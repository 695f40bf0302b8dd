// Unit tests for scaa::adas (filters, planners, controllers, alerts,
// safety model) and scaa::sensors models.

#include <gtest/gtest.h>

#include <cmath>

#include "adas/alerts.hpp"
#include "util/stats.hpp"
#include "adas/kalman.hpp"
#include "adas/lateral_planner.hpp"
#include "adas/lead_tracker.hpp"
#include "adas/long_control.hpp"
#include "adas/longitudinal_planner.hpp"
#include "adas/safety_model.hpp"
#include "adas/torque_controller.hpp"
#include "road/builder.hpp"
#include "sensors/camera.hpp"
#include "sensors/gps.hpp"
#include "sensors/radar.hpp"

namespace {

using namespace scaa;

TEST(ConstantGainKalman, PaperEquations) {
  // Eq. 2: prediction under constant accel; Eq. 3: constant-gain update.
  adas::ConstantGainKalman kf(0.5, 20.0);
  const double predicted = kf.predict(2.0, 0.01);
  EXPECT_DOUBLE_EQ(predicted, 20.02);
  const double updated = kf.update(predicted, 20.10);
  EXPECT_DOUBLE_EQ(updated, 20.02 + 0.5 * (20.10 - 20.02));
  EXPECT_DOUBLE_EQ(kf.estimate(), updated);
}

TEST(ConstantGainKalman, ConvergesToMeasurement) {
  adas::ConstantGainKalman kf(0.5, 0.0);
  for (int i = 0; i < 50; ++i) kf.update(kf.predict(0.0, 0.01), 10.0);
  EXPECT_NEAR(kf.estimate(), 10.0, 1e-6);
}

TEST(Kalman2D, TracksConstantVelocityTarget) {
  adas::Kalman2D kf(6.0, 0.0625, 0.0144);
  double true_pos = 100.0;
  const double true_vel = -8.0;
  util::Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    true_pos += true_vel * 0.05;
    kf.predict(0.05);
    kf.update(true_pos + rng.gaussian(0.0, 0.25),
              true_vel + rng.gaussian(0.0, 0.12));
  }
  EXPECT_NEAR(kf.value(), true_pos, 0.5);
  EXPECT_NEAR(kf.rate(), true_vel, 0.2);
}

TEST(Kalman2D, ValueOnlyUpdateInfersRate) {
  adas::Kalman2D kf(6.0, 0.0625, 0.0144);
  kf.init(0.0, 0.0);
  double true_pos = 0.0;
  for (int i = 0; i < 600; ++i) {
    true_pos += 5.0 * 0.05;
    kf.predict(0.05);
    kf.update_value_only(true_pos);
  }
  EXPECT_NEAR(kf.rate(), 5.0, 0.5);
}

TEST(LeadTracker, SmoothsAndCoasts) {
  adas::LeadTracker tracker;
  msg::RadarState radar;
  radar.lead_valid = true;
  radar.lead_distance = 80.0;
  radar.lead_rel_speed = -10.0;
  radar.lead_speed = 16.0;
  for (int i = 0; i < 20; ++i) {
    tracker.predict(0.05);
    radar.lead_distance -= 0.5;
    tracker.update(radar);
  }
  EXPECT_TRUE(tracker.estimate().valid);
  EXPECT_NEAR(tracker.estimate().distance, radar.lead_distance, 1.0);
  // Dropout: coast for up to kMaxStale, then invalid.
  for (int i = 0; i < 8; ++i) tracker.predict(0.05);  // 0.4 s
  EXPECT_TRUE(tracker.estimate().valid);
  for (int i = 0; i < 4; ++i) tracker.predict(0.05);  // past 0.5 s
  EXPECT_FALSE(tracker.estimate().valid);
}

TEST(LongitudinalPlanner, CruisesAtSetSpeed) {
  adas::LongitudinalPlanner planner(adas::AccConfig{});
  const auto plan = planner.update(26.82, 26.82, {});
  EXPECT_NEAR(plan.accel, 0.0, 1e-9);
  EXPECT_FALSE(plan.following);
}

TEST(LongitudinalPlanner, AcceleratesWhenSlow) {
  adas::LongitudinalPlanner planner(adas::AccConfig{});
  const auto plan = planner.update(20.0, 26.82, {});
  EXPECT_GT(plan.accel, 0.5);
  EXPECT_LE(plan.accel, 2.0);  // OpenPilot max accel
}

TEST(LongitudinalPlanner, BrakesForCloseLead) {
  adas::LongitudinalPlanner planner(adas::AccConfig{});
  adas::LeadEstimate lead;
  lead.valid = true;
  lead.distance = 15.0;
  lead.rel_speed = -8.0;
  const auto plan = planner.update(26.82, 26.82, lead);
  EXPECT_TRUE(plan.following);
  EXPECT_LT(plan.accel, -1.0);
  EXPECT_GE(plan.accel, -3.5);  // OpenPilot max decel
}

TEST(LongitudinalPlanner, FarLeadDoesNotConstrain) {
  adas::LongitudinalPlanner planner(adas::AccConfig{});
  adas::LeadEstimate lead;
  lead.valid = true;
  lead.distance = 150.0;
  lead.rel_speed = 0.0;
  const auto plan = planner.update(26.82, 26.82, lead);
  EXPECT_FALSE(plan.following);
}

TEST(LongitudinalPlanner, SteadyStateHeadway) {
  // At equilibrium (accel == 0, matched speeds) the gap equals the
  // constant-time-gap law's desired gap.
  adas::AccConfig cfg;
  adas::LongitudinalPlanner planner(cfg);
  adas::LeadEstimate lead;
  lead.valid = true;
  lead.rel_speed = 0.0;
  const double v = 15.6;
  lead.distance = cfg.stop_distance + cfg.follow_headway * v;
  const auto plan = planner.update(v, 26.82, lead);
  EXPECT_NEAR(plan.accel, 0.0, 1e-9);
  EXPECT_NEAR(plan.desired_gap, lead.distance, 1e-9);
}

msg::ModelV2 centered_model(double curvature = 0.0) {
  msg::ModelV2 m;
  m.left_lane_line = 1.85;
  m.right_lane_line = -1.85;
  m.left_line_prob = 0.95;
  m.right_line_prob = 0.95;
  m.path_curvature = curvature;
  m.path_heading_error = 0.0;
  return m;
}

TEST(LateralPlanner, FeedForwardOnCurve) {
  adas::LateralPlannerConfig cfg;
  cfg.target_bias_std = 0.0;  // disable wander for determinism
  cfg.curve_target_gain = 0.0;
  adas::LateralPlanner planner(cfg, util::Rng(1));
  adas::LateralPlan plan;
  for (int i = 0; i < 50; ++i)
    plan = planner.update(centered_model(8.3e-4), 0.05, 15.0);
  EXPECT_NEAR(plan.desired_curvature, 8.3e-4, 1e-4);
}

TEST(LateralPlanner, CorrectsRightOffset) {
  adas::LateralPlannerConfig cfg;
  cfg.target_bias_std = 0.0;
  cfg.curve_target_gain = 0.0;
  adas::LateralPlanner planner(cfg, util::Rng(1));
  // Car 0.5 m right of centre: centre appears 0.5 m to the left.
  msg::ModelV2 m = centered_model();
  m.left_lane_line = 2.35;
  m.right_lane_line = -1.35;
  adas::LateralPlan plan;
  for (int i = 0; i < 50; ++i) plan = planner.update(m, 0.05, 15.0);
  EXPECT_GT(plan.desired_curvature, 1e-4);  // steer left, toward centre
}

TEST(LateralPlanner, HoldsAndDecaysWhenLinesLost) {
  adas::LateralPlannerConfig cfg;
  cfg.target_bias_std = 0.0;
  adas::LateralPlanner planner(cfg, util::Rng(1));
  msg::ModelV2 m = centered_model();
  m.left_lane_line = 2.85;  // 1 m right of centre -> nonzero correction
  m.right_lane_line = -0.85;
  for (int i = 0; i < 50; ++i) planner.update(m, 0.05, 15.0);
  const double before = planner.plan().desired_curvature;
  m.left_line_prob = 0.01;  // lines lost
  adas::LateralPlan plan;
  for (int i = 0; i < 100; ++i) plan = planner.update(m, 0.05, 15.0);
  EXPECT_FALSE(plan.lines_valid);
  // Decayed toward feed-forward (0 here), away from the stale correction.
  EXPECT_LT(std::abs(plan.desired_curvature), std::abs(before));
}

TEST(LateralPlanner, GainScheduleShrinksWithSpeed) {
  adas::LateralPlannerConfig cfg;
  cfg.target_bias_std = 0.0;
  cfg.curve_target_gain = 0.0;
  msg::ModelV2 m = centered_model();
  m.left_lane_line = 2.35;
  m.right_lane_line = -1.35;  // 0.5 m right of centre
  adas::LateralPlanner slow(cfg, util::Rng(1));
  adas::LateralPlanner fast(cfg, util::Rng(1));
  adas::LateralPlan ps, pf;
  for (int i = 0; i < 50; ++i) {
    ps = slow.update(m, 0.05, 10.0);
    pf = fast.update(m, 0.05, 30.0);
  }
  EXPECT_GT(ps.desired_curvature, pf.desired_curvature);
}

TEST(LateralPlanner, TargetOffsetBounded) {
  adas::LateralPlannerConfig cfg;
  cfg.target_bias_std = 5.0;  // absurd wander
  adas::LateralPlanner planner(cfg, util::Rng(7));
  for (int i = 0; i < 500; ++i) planner.update(centered_model(), 0.05, 15.0);
  EXPECT_LE(std::abs(planner.target_offset()), 1.0);
}

TEST(TorqueController, RateAndAbsoluteLimits) {
  adas::SteerConfig cfg;
  vehicle::VehicleParams params;
  adas::TorqueController tc(cfg, params);
  const double big = 1.0;  // huge curvature demand
  const double first = tc.update(big, big, 0.01);
  EXPECT_NEAR(first, cfg.angle_rate_limit, 1e-12);  // rate-limited first step
  double cmd = first;
  for (int i = 0; i < 100; ++i) cmd = tc.update(big, big, 0.01);
  EXPECT_NEAR(cmd, cfg.angle_cmd_limit, 1e-12);  // clipped at the limit
}

TEST(TorqueController, SaturationNeedsSustain) {
  adas::SteerConfig cfg;
  vehicle::VehicleParams params;
  adas::TorqueController tc(cfg, params);
  const double demand = 1.0;
  tc.update(demand, demand, 0.01);
  EXPECT_TRUE(tc.saturated_now());
  EXPECT_FALSE(tc.saturated());  // not sustained yet
  for (int i = 0; i < static_cast<int>(cfg.saturation_time / 0.01); ++i)
    tc.update(demand, demand, 0.01);
  EXPECT_TRUE(tc.saturated());
  // Demand returns to normal: saturation clears immediately.
  tc.update(0.0, 0.0, 0.01);
  EXPECT_FALSE(tc.saturated());
}

TEST(LongControl, JerkLimited) {
  adas::LongControl lc(adas::LongControlConfig{.max_jerk = 4.0});
  const double cmd = lc.update(2.0, 0.01);
  EXPECT_NEAR(cmd, 0.04, 1e-12);  // 4 m/s^3 * 10 ms
  lc.reset(0.0);
  EXPECT_DOUBLE_EQ(lc.last_command(), 0.0);
}

TEST(SafetyModel, ClampsAccel) {
  adas::SafetyLimits limits;
  const auto clamped = adas::clamp_to_limits({5.0, 0.0}, limits);
  EXPECT_DOUBLE_EQ(clamped.accel, 2.0);
  const auto braked = adas::clamp_to_limits({-9.0, 0.0}, limits);
  EXPECT_DOUBLE_EQ(braked.accel, -3.5);
}

TEST(SafetyModel, FcwThresholdOutsideEnvelope) {
  // The design defect behind Observation 2: the FCW trigger level exceeds
  // what the clamped command path can ever output.
  const adas::SafetyLimits limits;
  EXPECT_GT(limits.fcw_brake, -limits.min_accel);
}

TEST(Alerts, FcwNeverFiresBelowThreshold) {
  adas::AlertManager am;
  adas::AlertInputs in;
  in.lead_valid = true;
  in.brake_cmd = 3.5;  // the clamp maximum
  in.fcw_brake_threshold = 4.5;
  for (int i = 0; i < 100; ++i) am.update(in);
  EXPECT_EQ(am.fcw_events(), 0u);
}

TEST(Alerts, FcwFiresAboveThreshold) {
  adas::AlertManager am;
  adas::AlertInputs in;
  in.lead_valid = true;
  in.brake_cmd = 5.0;
  in.fcw_brake_threshold = 4.5;
  EXPECT_EQ(am.update(in), adas::AlertKind::kFcw);
  EXPECT_EQ(am.fcw_events(), 1u);
  am.update(in);  // still active: same event
  EXPECT_EQ(am.fcw_events(), 1u);
}

TEST(Alerts, SteerSaturatedEdgeCounted) {
  adas::AlertManager am;
  adas::AlertInputs in;
  in.steer_saturated = true;
  am.update(in);
  am.update(in);
  in.steer_saturated = false;
  am.update(in);
  in.steer_saturated = true;
  am.update(in);
  EXPECT_EQ(am.steer_saturated_events(), 2u);
  EXPECT_EQ(am.total_events(), 2u);
}

// --- sensor models ---------------------------------------------------------

TEST(Sensors, GpsPublishesAtRate) {
  msg::PubSubBus bus;
  sensors::GpsConfig cfg;
  cfg.rate_hz = 10.0;
  sensors::GpsModel gps(bus, cfg, util::Rng(1));
  vehicle::VehicleState state;
  state.speed = 20.0;
  for (std::uint64_t i = 0; i < 100; ++i) gps.step(i, state);
  EXPECT_EQ(bus.published_count(msg::Topic::kGpsLocationExternal), 10u);
}

TEST(Sensors, GpsSpeedNoisyButUnbiased) {
  msg::PubSubBus bus;
  util::RunningStats stats;
  bus.subscribe<msg::GpsLocationExternal>(
      [&](const msg::GpsLocationExternal& m) { stats.add(m.speed); });
  sensors::GpsModel gps(bus, sensors::GpsConfig{}, util::Rng(1));
  vehicle::VehicleState state;
  state.speed = 20.0;
  for (std::uint64_t i = 0; i < 100000; ++i) gps.step(i, state);
  EXPECT_NEAR(stats.mean(), 20.0, 0.01);
  EXPECT_GT(stats.stddev(), 0.01);
}

TEST(Sensors, RadarDetectsLeadInRange) {
  msg::PubSubBus bus;
  msg::Latest<msg::RadarState> latest(bus);
  sensors::RadarConfig cfg;
  cfg.dropout_prob = 0.0;
  sensors::RadarModel radar(bus, cfg, util::Rng(1));
  sensors::RadarModel::LeadTruth truth;
  truth.gap = 60.0;
  truth.rel_speed = -11.0;
  truth.lead_speed = 15.6;
  radar.step(0, truth);
  ASSERT_TRUE(latest.valid());
  EXPECT_TRUE(latest.value().lead_valid);
  EXPECT_NEAR(latest.value().lead_distance, 60.0, 1.5);
}

TEST(Sensors, RadarMissesOutOfRangeOrOffLane) {
  msg::PubSubBus bus;
  msg::Latest<msg::RadarState> latest(bus);
  sensors::RadarConfig cfg;
  cfg.dropout_prob = 0.0;
  sensors::RadarModel radar(bus, cfg, util::Rng(1));
  sensors::RadarModel::LeadTruth far;
  far.gap = 500.0;
  radar.step(0, far);
  EXPECT_FALSE(latest.value().lead_valid);
  sensors::RadarModel::LeadTruth off_lane;
  off_lane.gap = 50.0;
  off_lane.lateral_offset = 3.5;
  radar.step(5, off_lane);
  EXPECT_FALSE(latest.value().lead_valid);
  radar.step(10, std::nullopt);
  EXPECT_FALSE(latest.value().lead_valid);
}

TEST(Sensors, CameraReportsTrueLinesPlusNoise) {
  msg::PubSubBus bus;
  msg::Latest<msg::ModelV2> latest(bus);
  const auto road = road::RoadBuilder::paper_road();
  sensors::CameraConfig cfg;
  cfg.latency_steps = 0;
  sensors::CameraLaneModel cam(bus, road, cfg, util::Rng(1));
  vehicle::VehicleState state;
  state.s = 100.0;
  state.d = -1.85;  // centred in lane 0
  state.pose.heading = 0.0;
  const auto sample = road.sample(state.s, geom::Polyline::kNoSegmentHint);
  state.road_heading = sample.heading;
  state.road_curvature = sample.curvature;
  util::RunningStats center;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    cam.step(i, state, 0);
    if (latest.valid())
      center.add(0.5 * (latest.value().left_lane_line +
                        latest.value().right_lane_line));
  }
  // Centred: mean perceived centre offset ~ 0 (small OU bias).
  EXPECT_NEAR(center.mean(), 0.0, 0.15);
}

TEST(Sensors, CameraConfidenceDropsWhenStraddling) {
  msg::PubSubBus bus;
  msg::Latest<msg::ModelV2> latest(bus);
  const auto road = road::RoadBuilder::paper_road();
  sensors::CameraConfig cfg;
  cfg.latency_steps = 0;
  sensors::CameraLaneModel cam(bus, road, cfg, util::Rng(1));
  vehicle::VehicleState centred;
  centred.s = 100.0;
  centred.d = -1.85;
  const auto sample = road.sample(centred.s, geom::Polyline::kNoSegmentHint);
  centred.road_heading = sample.heading;
  centred.road_curvature = sample.curvature;
  cam.step(0, centred, 0);
  const double conf_centred = latest.value().left_line_prob;
  vehicle::VehicleState straddling = centred;
  straddling.d = -3.85;  // 2 m off lane centre
  cam.step(5, straddling, 0);
  EXPECT_LT(latest.value().left_line_prob, conf_centred);
}

}  // namespace
