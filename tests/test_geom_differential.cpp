// Differential / property suite for the Polyline projection kernel.
//
// The fast SoA kernel (Polyline::project / project_many) is compared
// against an independent brute-force all-segments reference implemented
// here, over randomized polylines — uniform and jittered spacing, hairpins,
// near-duplicate-length segments — and thousands of query points, including
// off-end points and stale-hint recovery. The contract under test: the
// fast kernel matches the reference to <= 1 ulp in s and lateral (in
// practice bit-exactly: the winning segment's projection is evaluated with
// the reference's arithmetic), so geometry kernels can keep being rewritten
// for speed without re-baselining the Monte-Carlo campaigns.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "cli/campaigns.hpp"
#include "geom/frenet.hpp"
#include "geom/polyline.hpp"
#include "road/builder.hpp"
#include "util/rng.hpp"

namespace {

using namespace scaa;
using geom::Polyline;
using geom::Vec2;

// --- oracle -----------------------------------------------------------------

/// Brute-force projection written independently of src/geom (the historical
/// scalar algorithm): scan every segment, divide by the squared length,
/// first-wins on ties. Polyline::project_reference must match this bitwise.
/// `interior` records whether the winning foot point is strictly inside its
/// segment: there the nearest segment is unique and the fast kernel must
/// agree to <= 1 ulp in s AND lateral; a clamped foot (a shared vertex) can
/// be reached through either adjoining segment at sub-ulp-equal distance,
/// so only s and the closest point are comparable — the lateral's sign
/// convention depends on which segment's tangent won the tie.
struct OracleResult {
  Polyline::Projection proj;
  bool interior = false;
};

OracleResult oracle_project(const std::vector<Vec2>& pts, Vec2 p) {
  std::vector<double> cum(pts.size(), 0.0);
  for (std::size_t i = 1; i < pts.size(); ++i)
    cum[i] = cum[i - 1] + (pts[i] - pts[i - 1]).norm();

  OracleResult best;
  double best_dist_sq = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    const Vec2 a = pts[i];
    const Vec2 ab = pts[i + 1] - a;
    const double len_sq = ab.norm_sq();
    double t = (p - a).dot(ab) / len_sq;
    t = t < 0.0 ? 0.0 : (t > 1.0 ? 1.0 : t);
    const Vec2 c = a + ab * t;
    const double d_sq = (p - c).norm_sq();
    if (d_sq < best_dist_sq) {
      best_dist_sq = d_sq;
      best.proj.closest = c;
      best.proj.s = cum[i] + std::sqrt(len_sq) * t;
      best.proj.lateral = ab.normalized().cross(p - c);
      best.interior = t > 0.0 && t < 1.0;
    }
  }
  return best;
}

/// Saturating ulp distance via nextafter steps (no bit tricks, no UB).
int ulp_distance(double a, double b, int cap = 8) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b)) return cap;
  double lo = std::min(a, b);
  const double hi = std::max(a, b);
  int n = 0;
  while (lo < hi && n < cap) {
    lo = std::nextafter(lo, hi);
    ++n;
  }
  return n;
}

void expect_projection_close(Vec2 p, const Polyline::Projection& got,
                             const OracleResult& want, const char* what) {
  EXPECT_LE(ulp_distance(got.s, want.proj.s), 1)
      << what << ": s " << got.s << " vs " << want.proj.s;
  EXPECT_LE(ulp_distance(got.closest.x, want.proj.closest.x), 1) << what;
  EXPECT_LE(ulp_distance(got.closest.y, want.proj.closest.y), 1) << what;
  if (want.interior) {
    EXPECT_LE(ulp_distance(got.lateral, want.proj.lateral), 1)
        << what << ": lateral " << got.lateral << " vs " << want.proj.lateral;
  } else {
    // Vertex-clamped winner: the tangent (and so the lateral's sign and
    // obliquity) is tie-dependent, but |lateral| = |tangent x (p - c)| can
    // never exceed the point-to-vertex distance.
    EXPECT_LE(std::abs(got.lateral), (p - got.closest).norm() + 1e-9)
        << what;
  }
}

// --- polyline generators ----------------------------------------------------

/// Random curve with jittered spacing and bounded heading drift (no folds):
/// the paper-road class of geometry at every scale.
std::vector<Vec2> jittered_curve(util::Rng& rng, std::size_t points,
                                 double max_turn_per_step) {
  std::vector<Vec2> pts{{rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)}};
  double heading = rng.uniform(-3.14, 3.14);
  for (std::size_t i = 1; i < points; ++i) {
    heading += rng.uniform(-max_turn_per_step, max_turn_per_step);
    // Jittered spacing spanning two orders of magnitude.
    const double step = rng.uniform(0.0, 1.0) < 0.1
                            ? rng.uniform(0.02, 0.1)
                            : rng.uniform(0.2, 1.5);
    pts.push_back(pts.back() + geom::heading_vector(heading) * step);
  }
  return pts;
}

/// Segments whose lengths differ by ~1e-9 (near-duplicate lengths): the
/// reciprocal-length tables must not collapse them.
std::vector<Vec2> near_duplicate_lengths(util::Rng& rng, std::size_t points) {
  std::vector<Vec2> pts{{0.0, 0.0}};
  double heading = 0.0;
  for (std::size_t i = 1; i < points; ++i) {
    heading += rng.uniform(-0.05, 0.05);
    const double step = 0.5 + (i % 2) * 1e-9 + rng.uniform(0.0, 1e-10);
    pts.push_back(pts.back() + geom::heading_vector(heading) * step);
  }
  return pts;
}

/// Hairpin: two parallel legs @p gap apart joined by a tight U-turn.
std::vector<Vec2> hairpin(double leg, double gap, double spacing) {
  std::vector<Vec2> pts;
  for (double x = 0.0; x < leg; x += spacing) pts.push_back({x, 0.0});
  const double r = gap / 2.0;
  for (double a = -1.5707963267948966; a < 1.5707963267948966; a += 0.25)
    pts.push_back({leg + r * std::cos(a), r + r * std::sin(a)});
  for (double x = leg; x > 0.0; x -= spacing) pts.push_back({x, gap});
  return pts;
}

/// Query points for a polyline: near the line, far off, and beyond both
/// ends — the full input domain of the simulation's Frenet conversions.
std::vector<Vec2> query_points(util::Rng& rng, const Polyline& line,
                               std::size_t count) {
  std::vector<Vec2> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double kind = rng.uniform(0.0, 1.0);
    if (kind < 0.7) {
      // Near the line (the hot-loop case).
      const double s = rng.uniform(-5.0, line.length() + 5.0);
      const Vec2 base = line.position_at(s);
      queries.push_back(base + Vec2{rng.gaussian(0.0, 2.0),
                                    rng.gaussian(0.0, 2.0)});
    } else if (kind < 0.9) {
      // Anywhere in the bounding region.
      queries.push_back({rng.uniform(-50.0, 50.0) + line.point(0).x,
                         rng.uniform(-50.0, 50.0) + line.point(0).y});
    } else {
      // Off the ends, along the end tangents.
      const bool front = rng.uniform(0.0, 1.0) < 0.5;
      const double s = front ? 0.0 : line.length();
      const double along = rng.uniform(0.5, 30.0) * (front ? -1.0 : 1.0);
      queries.push_back(line.position_at(s) +
                        geom::heading_vector(line.heading_at(s)) * along +
                        Vec2{0.0, rng.uniform(-3.0, 3.0)});
    }
  }
  return queries;
}

struct Shape {
  const char* name;
  std::vector<Vec2> pts;
};

std::vector<Shape> shapes() {
  util::Rng rng(20220627);  // fixed: failures must reproduce
  std::vector<Shape> out;
  out.push_back({"straight_uniform", {}});
  for (int i = 0; i <= 400; ++i)
    out.back().pts.push_back({0.5 * i, 0.0});
  out.push_back({"gentle_arc", {}});
  for (int i = 0; i <= 500; ++i) {
    const double a = i * 0.004;
    out.back().pts.push_back({300.0 * std::sin(a),
                              300.0 * (1.0 - std::cos(a))});
  }
  for (int k = 0; k < 4; ++k) {
    auto fork = rng.fork(static_cast<std::uint64_t>(k) + 1);
    out.push_back({"jittered_curve", jittered_curve(fork, 600, 0.15)});
  }
  {
    auto fork = rng.fork(99);
    out.push_back({"near_duplicate_lengths",
                   near_duplicate_lengths(fork, 500)});
  }
  out.push_back({"hairpin", hairpin(80.0, 10.0, 0.5)});
  out.push_back({"tiny", {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}}});
  return out;
}

// --- differential properties ------------------------------------------------

TEST(ProjectDifferential, FullSearchMatchesOracle) {
  util::Rng rng(1);
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    const Polyline line(shape.pts);
    for (const Vec2 p : query_points(rng, line, 800)) {
      const auto want = oracle_project(shape.pts, p);
      expect_projection_close(p, line.project(p, -1.0), want,
                              "project(full)");
      // The in-tree reference must BE the oracle, bit for bit.
      const auto ref = line.project_reference(p);
      EXPECT_EQ(ref.s, want.proj.s);
      EXPECT_EQ(ref.lateral, want.proj.lateral);
      EXPECT_EQ(ref.closest.x, want.proj.closest.x);
      EXPECT_EQ(ref.closest.y, want.proj.closest.y);
    }
  }
}

TEST(ProjectDifferential, HintedMatchesFullOnContinuousMotion) {
  // The hot-loop contract: a point drifting along the line (any drift up to
  // several segments per query, lateral offsets included) projects through
  // the hinted path to the exact full-search result.
  util::Rng rng(2);
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    const Polyline line(shape.pts);
    double hint = -1.0;
    double s = 0.0;
    for (int i = 0; i < 2000; ++i) {
      s += rng.uniform(0.0, 3.0 * line.length() / 2000.0);
      if (s > line.length()) {
        // Wrap = a teleport, which on folded geometry (the hairpin) is
        // outside the hinted contract: restart with a full search, as a
        // caller re-acquiring a track would.
        s = 0.0;
        hint = -1.0;
      }
      const Vec2 p = line.position_at(s) +
                     Vec2{rng.gaussian(0.0, 0.5), rng.gaussian(0.0, 0.5)};
      const auto full = line.project(p, -1.0);
      const auto hinted = line.project(p, hint);
      EXPECT_EQ(hinted.s, full.s) << "i=" << i << " s=" << s;
      EXPECT_EQ(hinted.lateral, full.lateral);
      hint = hinted.s;
    }
  }
}

TEST(ProjectDifferential, StaleHintsRecoverOnUnfoldedCurves) {
  // Teleports: any hint, anywhere, must still produce the full-search
  // result on geometry that does not fold back near itself (the widening
  // retry covers the gap between the stale window and the true segment).
  util::Rng rng(3);
  for (int k = 0; k < 3; ++k) {
    auto fork = rng.fork(static_cast<std::uint64_t>(k) + 10);
    const Polyline line(jittered_curve(fork, 500, 0.02));
    for (int i = 0; i < 500; ++i) {
      const double s_true = rng.uniform(0.0, line.length());
      const Vec2 p = line.position_at(s_true) +
                     Vec2{rng.gaussian(0.0, 1.0), rng.gaussian(0.0, 1.0)};
      const double hint = rng.uniform(0.0, line.length() * 1.2);
      const auto full = line.project(p, -1.0);
      const auto hinted = line.project(p, hint);
      EXPECT_EQ(hinted.s, full.s) << "hint=" << hint << " s_true=" << s_true;
      EXPECT_EQ(hinted.lateral, full.lateral);
    }
  }
}

TEST(ProjectDifferential, HintWindowEdgeCases) {
  // Hints exactly at the ends, beyond the ends, and points off both ends:
  // the clamped window must still reproduce the full search.
  util::Rng rng(4);
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    const Polyline line(shape.pts);
    const double hints[] = {0.0,
                            1e-12,
                            line.length() * 0.5,
                            line.length() - 1e-9,
                            line.length(),
                            line.length() + 100.0};
    for (const double hint : hints) {
      for (int i = 0; i < 40; ++i) {
        // Points clustered around the hinted location plus off-end probes,
        // so edge windows see both interior and boundary winners.
        const double s = std::min(hint, line.length()) +
                         rng.uniform(-4.0, 4.0);
        const Vec2 p = line.position_at(s) +
                       Vec2{rng.gaussian(0.0, 0.8), rng.gaussian(0.0, 0.8)};
        const auto full = line.project(p, -1.0);
        const auto hinted = line.project(p, hint);
        EXPECT_EQ(hinted.s, full.s) << "hint=" << hint;
        EXPECT_EQ(hinted.lateral, full.lateral) << "hint=" << hint;
      }
    }
  }
}

TEST(ProjectDifferential, UTurnStaleHintRegression) {
  // Regression for the historical hint-window gap: with the point far past
  // the +/-window range on the other leg of a U-turn, the windowed search
  // used to lock onto the nearest in-window segment (a local minimum; for a
  // hint at the polyline start the old edge test did not even fire) and
  // return a lateral off by the leg gap. The widening retry must recover.
  const auto pts = hairpin(100.0, 9.0, 0.5);
  const Polyline line(pts);

  // Point hovering 0.5 m above leg B (y = 9), horizontally at x = 0.25 —
  // i.e. near the END of the polyline, while the hint sits at s = 0.
  const Vec2 p{0.25, 8.5};
  const auto want = oracle_project(pts, p);
  ASSERT_GT(want.proj.s, line.length() - 2.0);  // truly on leg B

  for (const double hint : {0.0, 2.0, 40.0, 99.0}) {
    const auto got = line.project(p, hint);
    EXPECT_EQ(got.s, want.proj.s) << "hint=" << hint;
    EXPECT_EQ(got.lateral, want.proj.lateral) << "hint=" << hint;
  }
}

TEST(ProjectDifferential, ProjectManyMatchesProjectElementwise) {
  util::Rng rng(5);
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    const Polyline line(shape.pts);
    const auto queries = query_points(rng, line, 600);
    std::vector<double> hints(queries.size());
    for (std::size_t i = 0; i < hints.size(); ++i)
      hints[i] = rng.uniform(0.0, 1.0) < 0.3
                     ? -1.0
                     : rng.uniform(0.0, line.length());
    std::vector<Polyline::Projection> batched(queries.size());
    line.project_many(queries, hints, batched);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto single = line.project(queries[i], hints[i]);
      EXPECT_EQ(batched[i].s, single.s) << "i=" << i;
      EXPECT_EQ(batched[i].lateral, single.lateral) << "i=" << i;
      EXPECT_EQ(batched[i].closest.x, single.closest.x) << "i=" << i;
      EXPECT_EQ(batched[i].closest.y, single.closest.y) << "i=" << i;
    }
  }
}

TEST(ProjectDifferential, ProjectManyWithoutHintsIsFullSearch) {
  util::Rng rng(6);
  auto fork = rng.fork(7);
  const auto pts = jittered_curve(fork, 300, 0.1);
  const Polyline line(pts);
  const auto queries = query_points(rng, line, 200);
  std::vector<Polyline::Projection> batched(queries.size());
  line.project_many(queries, {}, batched);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto full = line.project(queries[i], -1.0);
    EXPECT_EQ(batched[i].s, full.s) << "i=" << i;
    EXPECT_EQ(batched[i].lateral, full.lateral) << "i=" << i;
  }
}

TEST(ProjectDifferential, PaperRoadWorkloadIsBitExact) {
  // The query stream perfbench times (cli::projection_workload): four
  // vehicles advancing along the paper road, each carrying its own hint
  // from tick to tick, exactly as World projects them. Hinted project and
  // the batched project_many must both reproduce project_reference, which
  // must itself be the oracle, bit for bit.
  const road::Road road = road::RoadBuilder::paper_road();
  const Polyline& line = road.reference();
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < line.size(); ++i) pts.push_back(line.point(i));
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kTicks = 500;
  const std::vector<Vec2> points =
      cli::projection_workload(line, kTicks, kLanes);
  ASSERT_EQ(points.size(), kTicks * kLanes);

  std::vector<double> hints(kLanes, -1.0);
  std::vector<double> batch_hints(kLanes, -1.0);
  std::vector<Polyline::Projection> batched(kLanes);
  for (std::size_t t = 0; t < kTicks; ++t) {
    line.project_many({points.data() + t * kLanes, kLanes}, batch_hints,
                      batched);
    for (std::size_t l = 0; l < kLanes; ++l) {
      const Vec2 p = points[t * kLanes + l];
      const auto want = oracle_project(pts, p).proj;
      const auto ref = line.project_reference(p);
      const auto hinted = line.project(p, hints[l]);
      EXPECT_EQ(ref.s, want.s) << "t=" << t << " lane=" << l;
      EXPECT_EQ(ref.lateral, want.lateral) << "t=" << t << " lane=" << l;
      EXPECT_EQ(hinted.s, ref.s) << "t=" << t << " lane=" << l;
      EXPECT_EQ(hinted.lateral, ref.lateral) << "t=" << t << " lane=" << l;
      EXPECT_EQ(batched[l].s, ref.s) << "t=" << t << " lane=" << l;
      EXPECT_EQ(batched[l].lateral, ref.lateral) << "t=" << t << " lane=" << l;
      hints[l] = hinted.s;
      batch_hints[l] = batched[l].s;
    }
  }
}

TEST(ProjectDifferential, OffEndPointsClampToEndpoints) {
  util::Rng rng(8);
  auto fork = rng.fork(11);
  const Shape cases[] = {
      // Straight line: the endpoint clamp is provable, assert it exactly.
      {"straight", {{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}}},
      {"jittered", jittered_curve(fork, 400, 0.02)},
  };
  for (const Shape& shape : cases) {
    SCOPED_TRACE(shape.name);
    const Polyline line(shape.pts);
    for (int i = 0; i < 300; ++i) {
      const bool front = i % 2 == 0;
      const double s = front ? 0.0 : line.length();
      const Vec2 p = line.position_at(s) +
                     geom::heading_vector(line.heading_at(s)) *
                         (front ? -rng.uniform(1.0, 40.0)
                                : rng.uniform(1.0, 40.0)) +
                     geom::heading_vector(line.heading_at(s)).perp() *
                         rng.uniform(-0.2, 0.2);
      const auto got = line.project(p, -1.0);
      expect_projection_close(p, got, oracle_project(shape.pts, p),
                              front ? "before start" : "past end");
      if (shape.pts.size() == 4) {  // the straight shape
        EXPECT_EQ(got.s, front ? 0.0 : line.length());
      }
    }
  }
}

// --- Frenet round-trip property over the fast kernel ------------------------

TEST(ProjectDifferential, FrenetRoundTripThroughFastKernel) {
  util::Rng rng(9);
  auto fork = rng.fork(13);
  const auto pts = jittered_curve(fork, 800, 0.01);
  const Polyline line(pts);
  geom::FrenetFrame frame(line);
  for (int i = 0; i < 1000; ++i) {
    const geom::FrenetPoint f{rng.uniform(1.0, line.length() - 1.0),
                              rng.uniform(-2.0, 2.0)};
    const Vec2 world = frame.to_world(f);
    const auto back = frame.to_frenet(world);
    // Round-trip error comes from the tessellation, not the kernel: the
    // normal fans of adjacent segments overlap or gap by O(|d| * theta) in
    // s at a kink of exterior angle theta (first order — the skipped arc),
    // and by O(|d| * theta^2) in d. theta <= 0.01 and |d| <= 2 here.
    EXPECT_NEAR(back.s, f.s, 0.03) << "i=" << i;
    EXPECT_NEAR(back.d, f.d, 1e-3) << "i=" << i;
  }
}

}  // namespace
