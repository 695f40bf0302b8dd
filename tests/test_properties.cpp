// Property-style parameterized tests: invariants that must hold across
// sweeps of seeds, scenarios, and configurations.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "attack/value_corruption.hpp"
#include "can/packer.hpp"
#include "exp/campaign.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace {

using namespace scaa;

// --- CAN codec: encode/decode round-trips over random signals ---------------

struct SignalCase {
  int start_bit;
  int size;
  can::ByteOrder order;
  bool is_signed;
  double factor;
};

// CTest names each discovered case after its printed parameter. Without a
// printer gtest dumps the struct's raw bytes, uninitialised padding
// included, so the test names would change from one build to the next.
void PrintTo(const SignalCase& c, std::ostream* os) {
  *os << "start" << c.start_bit << "_size" << c.size
      << (c.order == can::ByteOrder::kBigEndian ? "_be" : "_le")
      << (c.is_signed ? "_signed" : "_unsigned") << "_factor" << c.factor;
}

class SignalRoundTrip : public ::testing::TestWithParam<SignalCase> {};

TEST_P(SignalRoundTrip, RandomValuesSurvive) {
  const auto c = GetParam();
  can::DbcSignal sig{"S", c.start_bit, c.size, c.order, c.is_signed,
                     c.factor, 0.0};
  util::Rng rng(static_cast<std::uint64_t>(c.start_bit * 131 + c.size));
  for (int i = 0; i < 500; ++i) {
    const double physical =
        rng.uniform(sig.min_physical(), sig.max_physical());
    std::array<std::uint8_t, 8> data{};
    sig.encode(data, physical);
    // Round-trip error bounded by half a raw step.
    EXPECT_NEAR(sig.decode(data), physical, 0.5 * std::abs(c.factor) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SignalRoundTrip,
    ::testing::Values(
        SignalCase{0, 8, can::ByteOrder::kLittleEndian, false, 1.0},
        SignalCase{4, 12, can::ByteOrder::kLittleEndian, true, 0.25},
        SignalCase{7, 16, can::ByteOrder::kBigEndian, true, 0.01},
        SignalCase{7, 16, can::ByteOrder::kBigEndian, false, 0.01},
        SignalCase{23, 8, can::ByteOrder::kBigEndian, false, 2.0},
        SignalCase{15, 24, can::ByteOrder::kBigEndian, true, 0.001},
        SignalCase{8, 32, can::ByteOrder::kLittleEndian, true, 0.1}));

// --- checksum: any corrupted bit is detected; repair always validates -------

class ChecksumProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChecksumProperty, SingleBitFlipsDetected) {
  util::Rng rng(GetParam());
  can::CanFrame frame;
  frame.id = 0xE4;
  frame.dlc = 8;
  for (auto& b : frame.data)
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  can::apply_honda_checksum(frame);
  ASSERT_TRUE(can::verify_honda_checksum(frame));
  for (int bit = 0; bit < 60; ++bit) {  // skip the checksum nibble itself
    can::CanFrame tampered = frame;
    tampered.data[static_cast<std::size_t>(bit / 8)] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(can::verify_honda_checksum(tampered)) << "bit " << bit;
    can::apply_honda_checksum(tampered);
    EXPECT_TRUE(can::verify_honda_checksum(tampered));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChecksumProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// --- strategic corruption: the Eq. 1 envelope holds for any speed history ---

class StrategicEnvelope : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StrategicEnvelope, SpeedPredictionNeverExceedsCeiling) {
  const double cruise = 26.82;
  attack::ValueCorruption vc(true);
  util::Rng rng(GetParam());
  double speed = rng.uniform(15.0, 29.0);
  attack::ActivationDecision d;
  d.active = true;
  for (int i = 0; i < 2000; ++i) {
    speed = std::max(0.0, speed + rng.gaussian(0.0, 0.05));
    const auto v =
        vc.compute(d, attack::AttackType::kAcceleration, speed, cruise, 0.01);
    ASSERT_TRUE(v.accel_cmd.has_value());
    EXPECT_GE(*v.accel_cmd, 0.0);
    EXPECT_LE(*v.accel_cmd, 2.0);
    // The Eq. 1 guarantee: the attack never *pushes* the prediction past
    // the ceiling. (External noise can carry the measured speed above it,
    // in which case the attack must command zero.)
    const double predicted = vc.predicted_speed();
    if (predicted <= 1.1 * cruise) {
      EXPECT_LE(predicted + *v.accel_cmd * 0.01, 1.1 * cruise + 1e-9);
    } else {
      EXPECT_DOUBLE_EQ(*v.accel_cmd, 0.0);
    }
    speed += *v.accel_cmd * 0.01;  // the attack takes effect
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategicEnvelope,
                         ::testing::Values(11, 22, 33, 44));

// --- whole-world invariants over the scenario grid --------------------------

struct GridCase {
  int scenario;
  double gap;
};

// Printed for the same reason as SignalCase: stable test names.
void PrintTo(const GridCase& c, std::ostream* os) {
  *os << "S" << c.scenario << "_gap" << c.gap;
}

class BaselineInvariants : public ::testing::TestWithParam<GridCase> {};

TEST_P(BaselineInvariants, NoAttackNoAccidentAnySeed) {
  const auto c = GetParam();
  for (std::uint64_t seed = 100; seed < 103; ++seed) {
    exp::CampaignItem item;
    item.strategy = attack::StrategyKind::kNone;
    item.scenario_id = c.scenario;
    item.initial_gap = c.gap;
    item.seed = seed;
    sim::World world(exp::world_config_for(item));
    const auto s = world.run();
    EXPECT_FALSE(s.any_accident)
        << "S" << c.scenario << " gap " << c.gap << " seed " << seed;
    EXPECT_FALSE(s.hazard_h1);
    EXPECT_EQ(s.fcw_events, 0u);
    EXPECT_FALSE(s.attack_activated);
    EXPECT_EQ(s.frames_corrupted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BaselineInvariants,
    ::testing::Values(GridCase{1, 50.0}, GridCase{1, 100.0}, GridCase{2, 70.0},
                      GridCase{3, 70.0}, GridCase{4, 50.0},
                      GridCase{4, 100.0}));

class AttackInvariants
    : public ::testing::TestWithParam<attack::AttackType> {};

TEST_P(AttackInvariants, SummaryConsistency) {
  const auto type = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    exp::CampaignItem item;
    item.strategy = attack::StrategyKind::kContextAware;
    item.type = type;
    item.strategic_values = true;
    item.scenario_id = 1 + static_cast<int>(seed % 4);
    item.initial_gap = 70.0;
    item.seed = seed * 17;
    sim::World world(exp::world_config_for(item));
    const auto s = world.run();

    // Hazard bookkeeping is internally consistent.
    EXPECT_EQ(s.any_hazard, s.hazard_h1 || s.hazard_h2 || s.hazard_h3);
    if (s.any_hazard) {
      EXPECT_GE(s.first_hazard_time, 0.0);
      EXPECT_LE(s.first_hazard_time, s.sim_end_time + 1e-9);
    }
    // TTH only defined when the attack preceded the hazard.
    if (s.tth >= 0.0) {
      EXPECT_TRUE(s.attack_activated);
      EXPECT_TRUE(s.any_hazard);
      EXPECT_NEAR(s.tth, s.first_hazard_time - s.attack_start, 1e-9);
    }
    // Corruption requires activation.
    if (s.frames_corrupted > 0) {
      EXPECT_TRUE(s.attack_activated);
    }
    // The gateway never sees an invalid checksum: the attacker repairs them.
    EXPECT_EQ(s.can_checksum_rejects, 0u);
    // The simulation never runs past its configured duration.
    EXPECT_LE(s.sim_end_time, 50.0 + 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Types, AttackInvariants,
    ::testing::Values(attack::AttackType::kAcceleration,
                      attack::AttackType::kDeceleration,
                      attack::AttackType::kSteeringLeft,
                      attack::AttackType::kSteeringRight,
                      attack::AttackType::kAccelerationSteering,
                      attack::AttackType::kDecelerationSteering));

// --- strategy timing invariants over seeds ----------------------------------

class StrategyTiming : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StrategyTiming, AttackWindowsInsideConfiguredBounds) {
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kRandomStDur;
  item.type = attack::AttackType::kSteeringRight;
  item.scenario_id = 2;
  item.initial_gap = 70.0;
  item.seed = GetParam();
  sim::World world(exp::world_config_for(item));
  const auto s = world.run();
  if (s.attack_activated) {
    EXPECT_GE(s.attack_start, 5.0 - 1e-9);
    EXPECT_LE(s.attack_start, 40.0 + 1e-9);
    // Duration never exceeds the configured maximum (the run may end or the
    // driver may intervene earlier, shortening it).
    EXPECT_LE(s.attack_duration, 2.5 + 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyTiming,
                         ::testing::Range<std::uint64_t>(200, 212));

// --- RNG stream independence -------------------------------------------------

class RngStreams : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngStreams, ForkedStreamsUncorrelated) {
  const util::Rng parent(GetParam());
  util::Rng a = parent.fork(1);
  util::Rng b = parent.fork(2);
  // Crude correlation test over 10k uniform pairs.
  double sum_ab = 0.0, sum_a = 0.0, sum_b = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const double x = a.uniform();
    const double y = b.uniform();
    sum_ab += x * y;
    sum_a += x;
    sum_b += y;
  }
  const double cov = sum_ab / n - (sum_a / n) * (sum_b / n);
  EXPECT_NEAR(cov, 0.0, 0.01);  // 1/12 would be perfect correlation
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngStreams,
                         ::testing::Values(1, 7, 42, 1234, 99999));

}  // namespace
