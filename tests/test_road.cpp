// Unit tests for scaa::road (profile geometry, builder, queries).

#include <gtest/gtest.h>

#include "geom/frenet.hpp"
#include "road/builder.hpp"
#include "road/road.hpp"

namespace {

using namespace scaa;

road::RoadProfile two_lane() {
  road::RoadProfile p;
  p.lane_count = 2;
  p.lane_width = 3.7;
  p.guardrail_margin = 1.8;
  return p;
}

/// Road curvature at @p s, looked up without a segment hint.
double curvature_at(const road::Road& road, double s) {
  return road.sample(s, geom::Polyline::kNoSegmentHint).curvature;
}

TEST(RoadProfile, LaneGeometry) {
  const auto p = two_lane();
  EXPECT_DOUBLE_EQ(p.width(), 7.4);
  EXPECT_DOUBLE_EQ(p.lane_center(0), -1.85);  // right lane
  EXPECT_DOUBLE_EQ(p.lane_center(1), 1.85);   // left lane
  EXPECT_DOUBLE_EQ(p.lane_right_edge(0), -3.7);
  EXPECT_DOUBLE_EQ(p.lane_left_edge(0), 0.0);
  EXPECT_DOUBLE_EQ(p.lane_left_edge(1), 3.7);
  EXPECT_DOUBLE_EQ(p.right_guardrail(), -5.5);
  EXPECT_DOUBLE_EQ(p.left_guardrail(), 5.5);
}

TEST(Road, RejectsBadProfiles) {
  road::RoadBuilder b;
  b.straight(100.0);
  road::RoadProfile p = two_lane();
  p.lane_count = 0;
  EXPECT_THROW(b.build(p), std::invalid_argument);
  p = two_lane();
  p.lane_width = -1.0;
  EXPECT_THROW(b.build(p), std::invalid_argument);
}

TEST(Road, LaneAtOffsets) {
  road::RoadBuilder b;
  b.straight(100.0);
  const auto road = b.build(two_lane());
  EXPECT_EQ(road.lane_at(-1.85), 0);
  EXPECT_EQ(road.lane_at(1.85), 1);
  EXPECT_EQ(road.lane_at(-4.0), -1);  // off the carriageway
  EXPECT_EQ(road.lane_at(4.0), -1);
}

TEST(Road, LaneInvasionByFootprint) {
  road::RoadBuilder b;
  b.straight(100.0);
  const auto road = b.build(two_lane());
  const double half_width = 0.9;
  EXPECT_FALSE(road.invades_lane_line(-1.85, 0, half_width));  // centred
  EXPECT_TRUE(road.invades_lane_line(-0.8, 0, half_width));    // touches left
  EXPECT_TRUE(road.invades_lane_line(-2.9, 0, half_width));    // touches right
}

TEST(Road, GuardrailContact) {
  road::RoadBuilder b;
  b.straight(100.0);
  const auto road = b.build(two_lane());
  EXPECT_FALSE(road.hits_guardrail(-1.85, 0.9));
  EXPECT_TRUE(road.hits_guardrail(-4.7, 0.9));   // right rail at -5.5
  EXPECT_TRUE(road.hits_guardrail(4.7, 0.9));    // left rail at +5.5
}

TEST(RoadBuilder, StraightLengthExact) {
  road::RoadBuilder b;
  b.straight(123.0);
  const auto road = b.build(two_lane());
  EXPECT_NEAR(road.length(), 123.0, 1e-9);
}

TEST(RoadBuilder, ArcSweepsHeading) {
  road::RoadBuilder b;
  // Quarter circle of radius 100 (left): length = pi/2 * 100.
  const double curvature = 1.0 / 100.0;
  b.arc(100.0 * 3.14159265358979 / 2.0, curvature);
  const auto road = b.build(two_lane());
  // heading_at samples the chord of the last tessellation segment, so
  // allow ~kappa * spacing of discretization error.
  EXPECT_NEAR(road.reference().heading_at(road.length() - 0.5),
              3.14159265 / 2.0, 1e-2);
}

TEST(RoadBuilder, ArcCurvatureMatches) {
  road::RoadBuilder b;
  b.arc(500.0, 1.0 / 250.0);
  const auto road = b.build(two_lane());
  EXPECT_NEAR(curvature_at(road, 250.0), 1.0 / 250.0, 2e-4);
}

TEST(RoadBuilder, NegativeCurvatureTurnsRight) {
  road::RoadBuilder b;
  b.arc(200.0, -1.0 / 100.0);
  const auto road = b.build(two_lane());
  EXPECT_LT(road.reference().heading_at(150.0), 0.0);
}

TEST(RoadBuilder, ZeroCurvatureIsStraight) {
  road::RoadBuilder b;
  b.arc(100.0, 0.0);
  const auto road = b.build(two_lane());
  EXPECT_NEAR(road.reference().heading_at(90.0), 0.0, 1e-12);
}

TEST(RoadBuilder, RejectsBadArgs) {
  road::RoadBuilder b;
  EXPECT_THROW(b.straight(-5.0), std::invalid_argument);
  EXPECT_THROW(b.arc(0.0, 0.01), std::invalid_argument);
}

TEST(RoadBuilder, PaperRoadShape) {
  const auto road = road::RoadBuilder::paper_road();
  // Long enough for 50 s at 60 mph (~1.35 km) with margin.
  EXPECT_GT(road.length(), 2000.0);
  // Straight at the start, left curve later.
  EXPECT_NEAR(curvature_at(road, 100.0), 0.0, 1e-6);
  EXPECT_NEAR(curvature_at(road, 800.0), 1.0 / 1200.0, 1e-4);
  EXPECT_EQ(road.profile().lane_count, 2u);
}

TEST(RoadBuilder, WorldRoundTripOnCurve) {
  const auto road = road::RoadBuilder::paper_road();
  geom::FrenetFrame frame(road.reference());
  const auto p = frame.to_world({700.0, -1.85});
  const auto f = frame.to_frenet(p);
  EXPECT_NEAR(f.s, 700.0, 1e-4);
  EXPECT_NEAR(f.d, -1.85, 1e-6);
}

}  // namespace
