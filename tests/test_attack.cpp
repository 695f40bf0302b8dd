// Unit tests for scaa::attack (context inference, Table I rules,
// strategies, value corruption, CAN attacker) and scaa::panda.

#include <gtest/gtest.h>

#include "attack/can_attacker.hpp"
#include "attack/context.hpp"
#include "attack/context_table.hpp"
#include "attack/strategies.hpp"
#include "attack/value_corruption.hpp"
#include "panda/safety.hpp"
#include "util/units.hpp"

namespace {

using namespace scaa;
using attack::UnsafeAction;

attack::SafetyContext base_context() {
  attack::SafetyContext ctx;
  ctx.time = 10.0;
  ctx.speed = units::mph_to_ms(60.0);
  ctx.lead_valid = true;
  ctx.hwt = 3.5;
  ctx.rel_speed = 0.0;
  ctx.d_left = 1.0;
  ctx.d_right = 1.0;
  ctx.perception_valid = true;
  return ctx;
}

TEST(ContextInference, ComputesHwtAndRs) {
  msg::PubSubBus bus;
  attack::ContextInference inf(bus, 0.9);

  msg::GpsLocationExternal gps;
  gps.speed = 20.0;
  gps.has_fix = true;
  bus.publish(gps);

  msg::RadarState radar;
  radar.lead_valid = true;
  radar.lead_distance = 50.0;
  radar.lead_rel_speed = -5.0;  // lead 5 m/s slower
  bus.publish(radar);

  msg::ModelV2 model;
  model.left_lane_line = 1.5;
  model.right_lane_line = -2.2;
  model.left_line_prob = 0.9;
  model.right_line_prob = 0.9;
  bus.publish(model);

  const auto ctx = inf.infer(12.0);
  EXPECT_DOUBLE_EQ(ctx.time, 12.0);
  EXPECT_DOUBLE_EQ(ctx.speed, 20.0);
  EXPECT_TRUE(ctx.lead_valid);
  EXPECT_DOUBLE_EQ(ctx.hwt, 2.5);        // 50 / 20
  EXPECT_DOUBLE_EQ(ctx.rel_speed, 5.0);  // ego - lead (paper sign)
  EXPECT_DOUBLE_EQ(ctx.d_left, 1.5 - 0.9);
  EXPECT_DOUBLE_EQ(ctx.d_right, 2.2 - 0.9);
}

TEST(ContextInference, InvalidWithoutMessages) {
  msg::PubSubBus bus;
  attack::ContextInference inf(bus, 0.9);
  const auto ctx = inf.infer(1.0);
  EXPECT_FALSE(ctx.lead_valid);
  EXPECT_FALSE(ctx.perception_valid);
  EXPECT_GT(ctx.hwt, 1e8);
}

TEST(ContextInference, ReadsCruiseStateAndResetClearsIt) {
  msg::PubSubBus bus;
  attack::ContextInference inf(bus, 0.9);
  // Before any carState the ADAS counts as engaged, set speed unknown.
  EXPECT_TRUE(inf.infer(0.0).cruise_enabled);
  EXPECT_DOUBLE_EQ(inf.infer(0.0).cruise_speed, 0.0);

  msg::CarState cs;
  cs.cruise_enabled = false;
  cs.cruise_speed = 26.8224;
  bus.publish(cs);
  EXPECT_FALSE(inf.infer(1.0).cruise_enabled);
  EXPECT_DOUBLE_EQ(inf.infer(1.0).cruise_speed, 26.8224);

  inf.reset(0.9);
  EXPECT_TRUE(inf.infer(2.0).cruise_enabled);
  EXPECT_DOUBLE_EQ(inf.infer(2.0).cruise_speed, 0.0);
}

TEST(ContextTable, Rule1Acceleration) {
  const attack::ContextTable table{attack::ContextTableParams{}};
  auto ctx = base_context();
  ctx.hwt = 2.0;       // <= t_safe (2.5)
  ctx.rel_speed = 3.0; // closing
  EXPECT_TRUE(table.match(ctx).enabled(UnsafeAction::kAcceleration));
  ctx.rel_speed = -1.0;  // not closing -> rule 1 off
  EXPECT_FALSE(table.match(ctx).enabled(UnsafeAction::kAcceleration));
  ctx.rel_speed = 3.0;
  ctx.hwt = 3.0;  // headway too large
  EXPECT_FALSE(table.match(ctx).enabled(UnsafeAction::kAcceleration));
}

TEST(ContextTable, Rule2Deceleration) {
  const attack::ContextTable table{attack::ContextTableParams{}};
  auto ctx = base_context();
  ctx.hwt = 3.0;
  ctx.rel_speed = -1.0;
  EXPECT_TRUE(table.match(ctx).enabled(UnsafeAction::kDeceleration));
  // Missing lead counts as clear headway (the radar-dropout trigger).
  ctx.lead_valid = false;
  EXPECT_TRUE(table.match(ctx).enabled(UnsafeAction::kDeceleration));
  // Too slow -> off (beta1).
  ctx.speed = units::mph_to_ms(20.0);
  EXPECT_FALSE(table.match(ctx).enabled(UnsafeAction::kDeceleration));
}

TEST(ContextTable, Rules34Steering) {
  const attack::ContextTable table{attack::ContextTableParams{}};
  auto ctx = base_context();
  ctx.d_left = 0.05;
  EXPECT_TRUE(table.match(ctx).enabled(UnsafeAction::kSteerLeft));
  EXPECT_FALSE(table.match(ctx).enabled(UnsafeAction::kSteerRight));
  ctx.d_left = 1.0;
  ctx.d_right = 0.08;
  EXPECT_TRUE(table.match(ctx).enabled(UnsafeAction::kSteerRight));
  // Perception invalid -> no steering rules (longitudinal rules unaffected).
  ctx.perception_valid = false;
  EXPECT_FALSE(table.match(ctx).enabled(UnsafeAction::kSteerLeft));
  EXPECT_FALSE(table.match(ctx).enabled(UnsafeAction::kSteerRight));
}

TEST(ContextTable, TargetHazards) {
  using attack::HazardClass;
  EXPECT_EQ(attack::ContextTable::target_hazard(UnsafeAction::kAcceleration),
            HazardClass::kH1);
  EXPECT_EQ(attack::ContextTable::target_hazard(UnsafeAction::kDeceleration),
            HazardClass::kH2);
  EXPECT_EQ(attack::ContextTable::target_hazard(UnsafeAction::kSteerLeft),
            HazardClass::kH3);
  EXPECT_EQ(attack::ContextTable::target_hazard(UnsafeAction::kSteerRight),
            HazardClass::kH3);
}

TEST(Channels, MapMatchesTable2) {
  using attack::AttackType;
  EXPECT_TRUE(channels_of(AttackType::kAcceleration).accel);
  EXPECT_FALSE(channels_of(AttackType::kAcceleration).steer);
  EXPECT_TRUE(channels_of(AttackType::kDeceleration).brake);
  EXPECT_TRUE(channels_of(AttackType::kSteeringLeft).steer);
  EXPECT_TRUE(channels_of(AttackType::kAccelerationSteering).accel);
  EXPECT_TRUE(channels_of(AttackType::kAccelerationSteering).steer);
  EXPECT_TRUE(channels_of(AttackType::kDecelerationSteering).brake);
  EXPECT_TRUE(channels_of(AttackType::kDecelerationSteering).steer);
}

attack::Strategy make(attack::StrategyKind kind, attack::AttackType type,
                      std::uint64_t seed,
                      const attack::StrategyParams& params = {}) {
  return attack::Strategy(kind, type, params, util::Rng(seed));
}

TEST(Strategies, RandomWindowRespectsBounds) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    auto strategy = make(attack::StrategyKind::kRandomStDur,
                         attack::AttackType::kAcceleration, seed);
    const auto ctx = base_context();
    const attack::ContextMatch match{};
    double first_active = -1.0, last_active = -1.0;
    for (double t = 0.0; t < 50.0; t += 0.01) {
      if (strategy.decide(ctx, match, t).active) {
        if (first_active < 0.0) first_active = t;
        last_active = t;
      }
    }
    ASSERT_GE(first_active, 5.0);
    ASSERT_LE(first_active, 40.0);
    const double duration = last_active - first_active;
    ASSERT_GE(duration, 0.45);
    ASSERT_LE(duration, 2.55);
  }
}

TEST(Strategies, RandomStFixedDuration) {
  auto strategy = make(attack::StrategyKind::kRandomSt,
                       attack::AttackType::kDeceleration, 7);
  const auto ctx = base_context();
  const attack::ContextMatch match{};
  double first = -1.0, last = -1.0;
  for (double t = 0.0; t < 50.0; t += 0.01) {
    if (strategy.decide(ctx, match, t).active) {
      if (first < 0.0) first = t;
      last = t;
    }
  }
  EXPECT_NEAR(last - first, 2.5, 0.02);
}

TEST(Strategies, ForcedWindowHonored) {
  attack::StrategyParams p;
  p.forced_start = 12.0;
  p.forced_duration = 1.5;
  auto strategy = make(attack::StrategyKind::kRandomStDur,
                       attack::AttackType::kAcceleration, 3, p);
  const auto ctx = base_context();
  const attack::ContextMatch match{};
  EXPECT_FALSE(strategy.decide(ctx, match, 11.99).active);
  EXPECT_TRUE(strategy.decide(ctx, match, 12.01).active);
  EXPECT_TRUE(strategy.decide(ctx, match, 13.49).active);
  EXPECT_FALSE(strategy.decide(ctx, match, 13.51).active);
}

TEST(Strategies, NoneNeverActivates) {
  attack::ContextTable table{attack::ContextTableParams{}};
  attack::Strategy strategy;
  auto ctx = base_context();
  ctx.hwt = 2.0;
  ctx.rel_speed = 5.0;  // rule 1 matched
  for (double t = 0.0; t < 50.0; t += 0.5)
    EXPECT_FALSE(strategy.decide(ctx, table.match(ctx), t).active);
  EXPECT_LT(strategy.first_activation(), 0.0);
}

TEST(Strategies, ContextAwareWaitsForContext) {
  attack::ContextTable table{attack::ContextTableParams{}};
  auto strategy = make(attack::StrategyKind::kContextAware,
                       attack::AttackType::kAcceleration, 3);
  auto ctx = base_context();  // rule 1 not matched (hwt 3.5)
  EXPECT_FALSE(strategy.decide(ctx, table.match(ctx), 10.0).active);
  ctx.hwt = 2.0;
  ctx.rel_speed = 5.0;  // now matched
  EXPECT_TRUE(strategy.decide(ctx, table.match(ctx), 10.01).active);
  // Latched even after the context clears.
  ctx.hwt = 3.5;
  EXPECT_TRUE(strategy.decide(ctx, table.match(ctx), 10.02).active);
  EXPECT_NEAR(strategy.first_activation(), 10.01, 1e-9);
}

TEST(Strategies, ContextAwareRespectsWarmup) {
  attack::ContextTable table{attack::ContextTableParams{}};
  auto strategy = make(attack::StrategyKind::kContextAware,
                       attack::AttackType::kAcceleration, 3);
  auto ctx = base_context();
  ctx.hwt = 2.0;
  ctx.rel_speed = 5.0;
  EXPECT_FALSE(strategy.decide(ctx, table.match(ctx), 3.0).active);
  EXPECT_TRUE(strategy.decide(ctx, table.match(ctx), 5.5).active);
}

TEST(Strategies, RandomDurStartsOnContextAndEnds) {
  attack::ContextTable table{attack::ContextTableParams{}};
  auto strategy = make(attack::StrategyKind::kRandomDur,
                       attack::AttackType::kAcceleration, 5);
  auto ctx = base_context();
  ctx.hwt = 2.0;
  ctx.rel_speed = 5.0;
  double first = -1.0, last = -1.0;
  for (double t = 10.0; t < 20.0; t += 0.01) {
    if (strategy.decide(ctx, table.match(ctx), t).active) {
      if (first < 0.0) first = t;
      last = t;
    }
  }
  EXPECT_NEAR(first, 10.0, 1e-9);
  EXPECT_GE(last - first, 0.45);
  EXPECT_LE(last - first, 2.55);
}

TEST(Strategies, StopsOnDriverEngagement) {
  // The attacker learns of the takeover only from the wire: the ADAS
  // reports itself disengaged in the carState it publishes.
  msg::PubSubBus bus;
  attack::ContextInference spy(bus, 0.9);
  attack::ContextTable table{attack::ContextTableParams{}};
  auto strategy = make(attack::StrategyKind::kContextAware,
                       attack::AttackType::kAcceleration, 3);
  auto ctx = base_context();
  ctx.hwt = 2.0;
  ctx.rel_speed = 5.0;
  msg::CarState cs;
  cs.cruise_enabled = true;
  bus.publish(cs);
  ctx.cruise_enabled = spy.infer(10.0).cruise_enabled;
  EXPECT_TRUE(strategy.decide(ctx, table.match(ctx), 10.0).active);

  cs.cruise_enabled = false;  // the driver took over
  bus.publish(cs);
  ctx.cruise_enabled = spy.infer(11.01).cruise_enabled;
  EXPECT_FALSE(strategy.decide(ctx, table.match(ctx), 11.01).active);
  // The stop holds even if a later carState read engaged again.
  ctx.cruise_enabled = true;
  EXPECT_FALSE(strategy.decide(ctx, table.match(ctx), 11.02).active);
  EXPECT_NEAR(strategy.first_activation(), 10.0, 1e-9);
}

TEST(Strategies, SteeringDirectionFollowsContext) {
  attack::ContextTable table{attack::ContextTableParams{}};
  auto strategy = make(attack::StrategyKind::kContextAware,
                       attack::AttackType::kSteeringRight, 3);
  auto ctx = base_context();
  ctx.d_left = 0.05;  // LEFT edge context does not trigger a RIGHT attack
  EXPECT_FALSE(strategy.decide(ctx, table.match(ctx), 10.0).active);
  ctx.d_left = 1.0;
  ctx.d_right = 0.05;
  const auto d = strategy.decide(ctx, table.match(ctx), 10.01);
  EXPECT_TRUE(d.active);
  EXPECT_EQ(d.steer_direction, -1);
}

TEST(Corruption, FixedValuesAreOpenPilotMaxima) {
  attack::ValueCorruption vc(false);
  attack::ActivationDecision d;
  d.active = true;
  const auto accel =
      vc.compute(d, attack::AttackType::kAcceleration, 20.0, 26.82, 0.01);
  EXPECT_DOUBLE_EQ(accel.accel_cmd.value(), 2.4);
  const auto brake =
      vc.compute(d, attack::AttackType::kDeceleration, 20.0, 26.82, 0.01);
  EXPECT_DOUBLE_EQ(brake.accel_cmd.value(), -4.0);
  d.steer_direction = -1;
  const auto steer =
      vc.compute(d, attack::AttackType::kSteeringRight, 20.0, 26.82, 0.01);
  EXPECT_DOUBLE_EQ(steer.steer_cmd.value(), -units::deg_to_rad(0.5));
  EXPECT_FALSE(steer.accel_cmd.has_value());
}

TEST(Corruption, StrategicSpeedConstraint) {
  // Eq. 1-3: the accel value tapers so predicted speed stays <= 1.1 cruise.
  const double cruise = 26.82;
  attack::ValueCorruption vc(true);
  attack::ActivationDecision d;
  d.active = true;
  // Warm the Kalman estimate at a speed just below the ceiling.
  double speed = 1.1 * cruise - 0.005;
  for (int i = 0; i < 50; ++i)
    vc.compute({}, attack::AttackType::kAcceleration, speed, cruise, 0.01);
  const auto v =
      vc.compute(d, attack::AttackType::kAcceleration, speed, cruise, 0.01);
  ASSERT_TRUE(v.accel_cmd.has_value());
  EXPECT_LT(*v.accel_cmd, 2.0);  // tapered below the limit
  EXPECT_GE(*v.accel_cmd, 0.0);
  // Predicted next-step speed respects the constraint.
  EXPECT_LE(vc.predicted_speed() + *v.accel_cmd * 0.01,
            1.1 * cruise + 1e-6);
}

TEST(Corruption, StrategicFullAccelWhenHeadroom) {
  attack::ValueCorruption vc(true);
  attack::ActivationDecision d;
  d.active = true;
  for (int i = 0; i < 50; ++i)
    vc.compute({}, attack::AttackType::kAcceleration, 20.0, 26.82, 0.01);
  const auto v =
      vc.compute(d, attack::AttackType::kAcceleration, 20.0, 26.82, 0.01);
  EXPECT_DOUBLE_EQ(v.accel_cmd.value(), 2.0);
}

TEST(Corruption, InactiveProducesNothing) {
  attack::ValueCorruption vc(true);
  const auto v =
      vc.compute({}, attack::AttackType::kAcceleration, 20.0, 26.82, 0.01);
  EXPECT_FALSE(v.accel_cmd.has_value());
  EXPECT_FALSE(v.steer_cmd.has_value());
}

TEST(CanAttacker, CorruptsAndRepairsChecksum) {
  const auto db = can::Database::simulated_car();
  can::CanBus bus;
  attack::CanAttacker attacker(db);
  attacker.attach(bus);
  can::CanParser receiver(db);
  std::optional<can::CanParser::Parsed> last;
  bus.attach_receiver(
      [&](const can::CanFrame& f) { last = receiver.parse(f); });

  can::CanPacker packer(db);
  attack::AttackValues values;
  values.steer_cmd = units::deg_to_rad(-2.0);
  attacker.set_values(values);
  bus.send(packer.pack("STEERING_CONTROL",
                       {{can::sig::kSteerAngleCmd, 0.1},
                        {can::sig::kSteerEnabled, 1.0}}));
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(last->checksum_ok);  // integrity repaired (Fig. 4)
  EXPECT_TRUE(last->counter_ok);   // counter untouched
  EXPECT_NEAR(last->values.at(can::sig::kSteerAngleCmd), -2.0, 0.01);
  EXPECT_EQ(attacker.frames_corrupted(), 1u);
  EXPECT_NEAR(attacker.last_original_steer(), units::deg_to_rad(0.1), 1e-4);
}

TEST(CanAttacker, PassthroughWhenIdle) {
  const auto db = can::Database::simulated_car();
  can::CanBus bus;
  attack::CanAttacker attacker(db);
  attacker.attach(bus);
  can::CanParser receiver(db);
  double angle = 0.0;
  bus.attach_receiver([&](const can::CanFrame& f) {
    angle = receiver.parse(f)->values.at(can::sig::kSteerAngleCmd);
  });
  can::CanPacker packer(db);
  bus.send(packer.pack("STEERING_CONTROL",
                       {{can::sig::kSteerAngleCmd, 0.3},
                        {can::sig::kSteerEnabled, 1.0}}));
  EXPECT_NEAR(angle, 0.3, 0.01);
  EXPECT_EQ(attacker.frames_corrupted(), 0u);
}

TEST(CanAttacker, AccelCorruption) {
  const auto db = can::Database::simulated_car();
  can::CanBus bus;
  attack::CanAttacker attacker(db);
  attacker.attach(bus);
  can::CanParser receiver(db);
  std::optional<can::CanParser::Parsed> last;
  bus.attach_receiver(
      [&](const can::CanFrame& f) { last = receiver.parse(f); });
  attack::AttackValues values;
  values.accel_cmd = -3.5;
  attacker.set_values(values);
  can::CanPacker packer(db);
  bus.send(packer.pack("GAS_BRAKE_COMMAND",
                       {{can::sig::kAccelCmd, 0.5},
                        {can::sig::kBrakeRequest, 0.0}}));
  EXPECT_TRUE(last->checksum_ok);
  EXPECT_NEAR(last->values.at(can::sig::kAccelCmd), -3.5, 0.001);
  EXPECT_DOUBLE_EQ(last->values.at(can::sig::kBrakeRequest), 1.0);
}

// --- Panda firmware checks --------------------------------------------------

TEST(Panda, PassesLegitimateCommands) {
  const auto db = can::Database::simulated_car();
  panda::PandaSafety panda(db, panda::PandaLimits{});
  can::CanPacker packer(db);
  EXPECT_TRUE(panda.check(packer.pack("GAS_BRAKE_COMMAND",
                                      {{can::sig::kAccelCmd, 1.9}})));
  EXPECT_TRUE(panda.check(packer.pack("STEERING_CONTROL",
                                      {{can::sig::kSteerAngleCmd, 0.2}})));
  EXPECT_EQ(panda.stats().frames_blocked, 0u);
}

TEST(Panda, BlocksOutOfEnvelopeAccel) {
  const auto db = can::Database::simulated_car();
  panda::PandaSafety panda(db, panda::PandaLimits{});
  can::CanPacker packer(db);
  EXPECT_FALSE(panda.check(packer.pack("GAS_BRAKE_COMMAND",
                                       {{can::sig::kAccelCmd, 2.4}})));
  EXPECT_FALSE(panda.check(packer.pack("GAS_BRAKE_COMMAND",
                                       {{can::sig::kAccelCmd, -4.0}})));
  EXPECT_EQ(panda.stats().frames_blocked, 2u);
}

TEST(Panda, BlocksSteerRateViolation) {
  const auto db = can::Database::simulated_car();
  panda::PandaSafety panda(db, panda::PandaLimits{});
  can::CanPacker packer(db);
  EXPECT_TRUE(panda.check(packer.pack("STEERING_CONTROL",
                                      {{can::sig::kSteerAngleCmd, 0.0}})));
  // Jump of 0.7 deg in one frame exceeds the 0.5 deg rate limit.
  EXPECT_FALSE(panda.check(packer.pack("STEERING_CONTROL",
                                       {{can::sig::kSteerAngleCmd, 0.7}})));
}

TEST(Panda, BlocksBadChecksum) {
  const auto db = can::Database::simulated_car();
  panda::PandaSafety panda(db, panda::PandaLimits{});
  can::CanPacker packer(db);
  auto frame = packer.pack("GAS_BRAKE_COMMAND", {{can::sig::kAccelCmd, 1.0}});
  frame.data[0] ^= 0x01;  // tamper without repair
  EXPECT_FALSE(panda.check(frame));
  EXPECT_EQ(panda.stats().checksum_rejects, 1u);
}

TEST(Panda, StrategicValuesEvadeChecks) {
  // The point of Eq. 1: strategically corrupted longitudinal commands sit
  // inside the Panda envelope and sail through.
  const auto db = can::Database::simulated_car();
  panda::PandaSafety panda(db, panda::PandaLimits{});
  can::CanPacker packer(db);
  const auto limits = attack::CorruptionLimits::strategic();
  EXPECT_TRUE(panda.check(packer.pack(
      "GAS_BRAKE_COMMAND", {{can::sig::kAccelCmd, limits.accel}})));
  EXPECT_TRUE(panda.check(packer.pack(
      "GAS_BRAKE_COMMAND", {{can::sig::kAccelCmd, limits.brake}})));
}

}  // namespace
