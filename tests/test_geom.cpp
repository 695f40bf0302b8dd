// Unit tests for scaa::geom (vectors, poses, polylines, Frenet frames).

#include <gtest/gtest.h>

#include <cmath>

#include "geom/frenet.hpp"
#include "geom/polyline.hpp"
#include "geom/vec2.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace scaa;
using geom::Vec2;

constexpr double kPi = units::kPi;

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_EQ((a + b).x, 4.0);
  EXPECT_EQ((a + b).y, 1.0);
  EXPECT_EQ((a - b).x, -2.0);
  EXPECT_EQ((a * 2.0).y, 4.0);
  EXPECT_EQ((2.0 * a).y, 4.0);
}

TEST(Vec2, DotCrossNorm) {
  const Vec2 a{3.0, 4.0};
  EXPECT_EQ(a.norm(), 5.0);
  EXPECT_EQ(a.norm_sq(), 25.0);
  EXPECT_EQ(a.dot({1.0, 0.0}), 3.0);
  EXPECT_EQ((Vec2{1.0, 0.0}.cross({0.0, 1.0})), 1.0);   // CCW positive
  EXPECT_EQ((Vec2{0.0, 1.0}.cross({1.0, 0.0})), -1.0);  // CW negative
}

TEST(Vec2, NormalizedHandlesZero) {
  EXPECT_EQ(Vec2{}.normalized().x, 0.0);
  const Vec2 n = Vec2{10.0, 0.0}.normalized();
  EXPECT_DOUBLE_EQ(n.x, 1.0);
}

TEST(Vec2, RotationAndPerp) {
  const Vec2 r = Vec2{1.0, 0.0}.rotated(kPi / 2.0);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
  EXPECT_EQ((Vec2{1.0, 0.0}.perp().y), 1.0);  // left normal
}

TEST(Polyline, RejectsDegenerate) {
  EXPECT_THROW(geom::Polyline({{0, 0}}), std::invalid_argument);
  EXPECT_THROW(geom::Polyline({{0, 0}, {0, 0}}), std::invalid_argument);
}

TEST(Polyline, LengthAndSampling) {
  const geom::Polyline line({{0, 0}, {10, 0}, {10, 10}});
  EXPECT_DOUBLE_EQ(line.length(), 20.0);
  EXPECT_NEAR(line.position_at(5.0).x, 5.0, 1e-12);
  EXPECT_NEAR(line.position_at(15.0).y, 5.0, 1e-12);
  // Clamping at the ends.
  EXPECT_NEAR(line.position_at(-3.0).x, 0.0, 1e-12);
  EXPECT_NEAR(line.position_at(100.0).y, 10.0, 1e-12);
}

TEST(Polyline, HeadingFollowsSegments) {
  const geom::Polyline line({{0, 0}, {10, 0}, {10, 10}});
  EXPECT_NEAR(line.heading_at(5.0), 0.0, 1e-12);
  EXPECT_NEAR(line.heading_at(15.0), kPi / 2.0, 1e-12);
}

TEST(Polyline, SamplingClampsExactlyToEndpoints) {
  // The s <= 0 / s >= length branches must return the endpoint VALUES, not
  // epsilon-interpolated neighbours.
  const geom::Polyline line({{1.5, -2.0}, {7.5, 1.0}, {9.0, 8.0}});
  EXPECT_EQ(line.position_at(0.0).x, 1.5);
  EXPECT_EQ(line.position_at(-1e300).y, -2.0);
  EXPECT_EQ(line.position_at(line.length()).x, 9.0);
  EXPECT_EQ(line.position_at(1e300).y, 8.0);
  EXPECT_EQ(line.heading_at(-3.0), line.heading_at(0.0));
  EXPECT_EQ(line.heading_at(line.length() + 5.0),
            line.heading_at(line.length()));
}

TEST(Polyline, HeadingAtEndUsesIndexClampNotArcEpsilon) {
  // Final segment shorter than the historical `length() - 1e-9` clamp: an
  // arc-length clamp would land in the SECOND-TO-LAST segment and report
  // its heading; the index clamp must report the final segment's.
  const geom::Polyline line({{0, 0}, {10, 0}, {10.0, 1e-10}});
  EXPECT_NEAR(line.heading_at(line.length()), kPi / 2.0, 1e-12);
  EXPECT_NEAR(line.heading_at(line.length() + 1.0), kPi / 2.0, 1e-12);
  // Interior queries are untouched.
  EXPECT_NEAR(line.heading_at(5.0), 0.0, 1e-12);
}

TEST(Polyline, SegmentIndexHandlesExtremeNonUniformSpacing) {
  // 200 segments of 0.01 m followed by one of 100 m: the scaled
  // segment-index guess is maximally wrong in both directions (a small s
  // guesses the long tail, a large s guesses past the end), and the
  // monotone walk must still land on the exact segment.
  std::vector<Vec2> pts;
  for (int i = 0; i <= 200; ++i) pts.push_back({0.01 * i, 0.0});
  pts.push_back({2.0, 100.0});  // heading pi/2 for the final long segment
  const geom::Polyline fine_then_coarse(pts);
  EXPECT_NEAR(fine_then_coarse.heading_at(0.5), 0.0, 1e-12);
  EXPECT_NEAR(fine_then_coarse.heading_at(1.999), 0.0, 1e-12);
  EXPECT_NEAR(fine_then_coarse.heading_at(2.5), kPi / 2.0, 1e-12);
  EXPECT_NEAR(fine_then_coarse.position_at(1.0).x, 1.0, 1e-12);
  EXPECT_NEAR(fine_then_coarse.position_at(52.0).y, 50.0, 1e-9);

  // And the mirror image: one long segment, then a fine tail.
  std::vector<Vec2> pts2{{0.0, 0.0}, {100.0, 0.0}};
  for (int i = 1; i <= 200; ++i) pts2.push_back({100.0, 0.01 * i});
  const geom::Polyline coarse_then_fine(pts2);
  EXPECT_NEAR(coarse_then_fine.heading_at(50.0), 0.0, 1e-12);
  EXPECT_NEAR(coarse_then_fine.heading_at(101.5), kPi / 2.0, 1e-12);
  EXPECT_NEAR(coarse_then_fine.position_at(100.5).y, 0.5, 1e-12);
}

TEST(Polyline, ProjectionSignedLateral) {
  const geom::Polyline line({{0, 0}, {100, 0}});
  const auto left = line.project({50.0, 2.0});
  EXPECT_NEAR(left.s, 50.0, 1e-9);
  EXPECT_NEAR(left.lateral, 2.0, 1e-9);  // +left
  const auto right = line.project({50.0, -2.0});
  EXPECT_NEAR(right.lateral, -2.0, 1e-9);
}

TEST(Polyline, HintedProjectionMatchesFull) {
  // Build a curved (non-self-overlapping) arc and verify hinted projection
  // equals the full search.
  std::vector<Vec2> pts;
  for (int i = 0; i <= 200; ++i) {
    const double t = i * 0.0075;  // 1.5 rad of arc
    pts.push_back({100.0 * std::sin(t), 100.0 * (1.0 - std::cos(t))});
  }
  const geom::Polyline line(pts);
  double hint = -1.0;
  for (double s = 5.0; s < line.length() - 5.0; s += 7.0) {
    const Vec2 p = line.position_at(s) + Vec2{0.1, 0.2};
    const auto full = line.project(p, -1.0);
    const auto hinted = line.project(p, hint);
    EXPECT_NEAR(full.s, hinted.s, 1e-6);
    EXPECT_NEAR(full.lateral, hinted.lateral, 1e-9);
    hint = hinted.s;
  }
}

TEST(Frenet, RoundTrip) {
  const geom::Polyline line({{0, 0}, {50, 0}, {100, 30}});
  geom::FrenetFrame frame(line);
  const geom::FrenetPoint f{40.0, 1.5};
  const Vec2 world = frame.to_world(f);
  const auto back = frame.to_frenet(world);
  EXPECT_NEAR(back.s, f.s, 1e-6);
  EXPECT_NEAR(back.d, f.d, 1e-6);
}

TEST(Frenet, CurvatureOfArc) {
  // Sample a circle of radius 200 -> curvature 1/200 (left turn).
  std::vector<Vec2> pts;
  const double radius = 200.0;
  for (int i = 0; i <= 400; ++i) {
    const double a = i * 0.005;
    pts.push_back({radius * std::sin(a), radius * (1.0 - std::cos(a))});
  }
  const geom::Polyline line(pts);
  EXPECT_NEAR(line.sample(0.5 * line.length(), 5.0,
                          geom::Polyline::kNoSegmentHint)
                  .curvature,
              1.0 / radius, 1e-4);
}

TEST(Frenet, StraightLineZeroCurvature) {
  const geom::Polyline line({{0, 0}, {1000, 0}});
  EXPECT_NEAR(
      line.sample(500.0, 1.0, geom::Polyline::kNoSegmentHint).curvature, 0.0,
      1e-12);
}

TEST(Frenet, HintSurvivesTeleportingPoints) {
  // The frame caches the last projection as a hint. A point that jumps the
  // full length of a (non-folding) arc must still convert exactly: the
  // stale hint is invalidated by the widening retry, never trusted.
  std::vector<Vec2> pts;
  for (int i = 0; i <= 2000; ++i) {
    const double t = i * 0.0005;  // 1 rad of a 1 km arc
    pts.push_back({1000.0 * std::sin(t), 1000.0 * (1.0 - std::cos(t))});
  }
  const geom::Polyline line(pts);
  geom::FrenetFrame frame(line);
  geom::FrenetFrame fresh(line);

  util::Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    const double s = rng.uniform(1.0, line.length() - 1.0);
    const double d = rng.uniform(-4.0, 4.0);
    const Vec2 world = frame.to_world({s, d});
    const auto hinted = frame.to_frenet(world);   // hint: previous teleport
    const auto cold = fresh.reference().project(world, -1.0);
    EXPECT_EQ(hinted.s, cold.s) << "i=" << i;
    EXPECT_EQ(hinted.d, cold.lateral) << "i=" << i;
    EXPECT_EQ(frame.hint(), hinted.s);
  }
}

}  // namespace
