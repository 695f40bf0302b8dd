// Unit tests for scaa::can (signals, checksums, packer/parser, bus).

#include <gtest/gtest.h>

#include "can/bus.hpp"
#include "can/checksum.hpp"
#include "can/database.hpp"
#include "can/packer.hpp"
#include "exp/campaign.hpp"
#include "fault/plan.hpp"
#include "sim/world.hpp"

namespace {

using namespace scaa;

TEST(DbcSignal, LittleEndianRoundTrip) {
  can::DbcSignal sig{"X", 0, 12, can::ByteOrder::kLittleEndian, false, 1.0,
                     0.0};
  std::array<std::uint8_t, 8> data{};
  sig.insert_raw(data, 0xABC);
  EXPECT_EQ(sig.extract_raw(data), 0xABC);
}

TEST(DbcSignal, BigEndianRoundTrip) {
  can::DbcSignal sig{"X", 7, 16, can::ByteOrder::kBigEndian, false, 1.0, 0.0};
  std::array<std::uint8_t, 8> data{};
  sig.insert_raw(data, 0x1234);
  EXPECT_EQ(data[0], 0x12);  // Motorola: MSB first
  EXPECT_EQ(data[1], 0x34);
  EXPECT_EQ(sig.extract_raw(data), 0x1234);
}

TEST(DbcSignal, SignedValues) {
  can::DbcSignal sig{"X", 7, 16, can::ByteOrder::kBigEndian, true, 1.0, 0.0};
  std::array<std::uint8_t, 8> data{};
  sig.insert_raw(data, -1234);
  EXPECT_EQ(sig.extract_raw(data), -1234);
  sig.insert_raw(data, 1234);
  EXPECT_EQ(sig.extract_raw(data), 1234);
}

TEST(DbcSignal, ScaleAndOffset) {
  can::DbcSignal sig{"X", 7, 16, can::ByteOrder::kBigEndian, true, 0.01, 0.0};
  std::array<std::uint8_t, 8> data{};
  sig.encode(data, -4.0);
  EXPECT_NEAR(sig.decode(data), -4.0, 0.005);
  sig.encode(data, 2.37);
  EXPECT_NEAR(sig.decode(data), 2.37, 0.005);
}

TEST(DbcSignal, EncodeClampsToRange) {
  can::DbcSignal sig{"X", 7, 8, can::ByteOrder::kBigEndian, false, 1.0, 0.0};
  std::array<std::uint8_t, 8> data{};
  sig.encode(data, 9999.0);
  EXPECT_EQ(sig.extract_raw(data), 255);
  sig.encode(data, -5.0);
  EXPECT_EQ(sig.extract_raw(data), 0);
}

TEST(DbcSignal, PhysicalRange) {
  can::DbcSignal sig{"X", 7, 8, can::ByteOrder::kBigEndian, true, 0.5, 10.0};
  EXPECT_DOUBLE_EQ(sig.min_physical(), 10.0 - 64.0);
  EXPECT_DOUBLE_EQ(sig.max_physical(), 10.0 + 63.5);
}

TEST(DbcSignal, NonOverlappingSignals) {
  // Two adjacent big-endian signals must not clobber each other.
  can::DbcSignal a{"A", 7, 16, can::ByteOrder::kBigEndian, true, 1.0, 0.0};
  can::DbcSignal b{"B", 23, 8, can::ByteOrder::kBigEndian, false, 1.0, 0.0};
  std::array<std::uint8_t, 8> data{};
  a.insert_raw(data, -42);
  b.insert_raw(data, 99);
  EXPECT_EQ(a.extract_raw(data), -42);
  EXPECT_EQ(b.extract_raw(data), 99);
}

TEST(Checksum, RoundTrip) {
  can::CanFrame frame;
  frame.id = 0xE4;
  frame.dlc = 5;
  frame.data = {0x12, 0x34, 0x56, 0x78, 0x00};
  can::apply_honda_checksum(frame);
  EXPECT_TRUE(can::verify_honda_checksum(frame));
}

TEST(Checksum, DetectsCorruption) {
  can::CanFrame frame;
  frame.id = 0xE4;
  frame.dlc = 5;
  frame.data = {0x12, 0x34, 0x56, 0x78, 0x00};
  can::apply_honda_checksum(frame);
  frame.data[1] ^= 0x10;  // tamper without checksum repair
  EXPECT_FALSE(can::verify_honda_checksum(frame));
}

TEST(Checksum, RepairAfterCorruptionValidates) {
  // The attacker's move (paper Fig. 4): corrupt, then re-checksum.
  can::CanFrame frame;
  frame.id = 0xE4;
  frame.dlc = 5;
  frame.data = {0x12, 0x34, 0x56, 0x78, 0x00};
  can::apply_honda_checksum(frame);
  frame.data[1] ^= 0x10;
  can::apply_honda_checksum(frame);
  EXPECT_TRUE(can::verify_honda_checksum(frame));
}

TEST(Checksum, CounterFieldIndependent) {
  can::CanFrame frame;
  frame.id = 0x1FA;
  frame.dlc = 6;
  can::write_counter(frame, 2);
  can::apply_honda_checksum(frame);
  EXPECT_EQ(can::read_counter(frame), 2);
  EXPECT_TRUE(can::verify_honda_checksum(frame));
  // Changing the counter invalidates the checksum (it is covered).
  can::write_counter(frame, 3);
  EXPECT_FALSE(can::verify_honda_checksum(frame));
}

TEST(Database, SimulatedCarLookup) {
  const auto db = can::Database::simulated_car();
  ASSERT_NE(db.by_id(can::msg_id::kSteeringControl), nullptr);
  EXPECT_EQ(db.by_id(can::msg_id::kSteeringControl)->name,
            "STEERING_CONTROL");
  ASSERT_NE(db.by_name("GAS_BRAKE_COMMAND"), nullptr);
  EXPECT_EQ(db.by_name("GAS_BRAKE_COMMAND")->id, can::msg_id::kGasBrakeCommand);
  EXPECT_EQ(db.by_id(0x999), nullptr);
  EXPECT_EQ(db.by_name("NOPE"), nullptr);
}

TEST(Packer, RoundTripThroughParser) {
  const auto db = can::Database::simulated_car();
  can::CanPacker packer(db);
  can::CanParser parser(db);
  const auto frame = packer.pack("STEERING_CONTROL",
                                 {{can::sig::kSteerAngleCmd, -0.42},
                                  {can::sig::kSteerEnabled, 1.0}});
  const auto parsed = parser.parse(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->checksum_ok);
  EXPECT_NEAR(parsed->values.at(can::sig::kSteerAngleCmd), -0.42, 0.005);
  EXPECT_DOUBLE_EQ(parsed->values.at(can::sig::kSteerEnabled), 1.0);
}

TEST(Packer, UnknownNamesThrow) {
  const auto db = can::Database::simulated_car();
  can::CanPacker packer(db);
  EXPECT_THROW(packer.pack("NOPE", {}), std::invalid_argument);
  EXPECT_THROW(packer.pack("STEERING_CONTROL", {{"NOPE", 1.0}}),
               std::invalid_argument);
}

TEST(Packer, CounterAdvances) {
  const auto db = can::Database::simulated_car();
  can::CanPacker packer(db);
  std::uint8_t last = can::read_counter(packer.pack("SPEED", {}));
  for (int i = 0; i < 8; ++i) {
    const auto frame = packer.pack("SPEED", {});
    const auto counter = can::read_counter(frame);
    EXPECT_EQ(counter, (last + 1) & 0x3);
    last = counter;
  }
}

TEST(Parser, CounterContinuityTracked) {
  const auto db = can::Database::simulated_car();
  can::CanPacker packer(db);
  can::CanParser parser(db);
  parser.parse(packer.pack("SPEED", {}));
  packer.pack("SPEED", {});  // skipped frame -> discontinuity
  const auto parsed = parser.parse(packer.pack("SPEED", {}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->counter_ok);
  EXPECT_EQ(parser.counter_errors(), 1u);
}

TEST(Parser, UnknownIdReturnsNullopt) {
  const auto db = can::Database::simulated_car();
  can::CanParser parser(db);
  can::CanFrame frame;
  frame.id = 0x777;
  EXPECT_FALSE(parser.parse(frame).has_value());
}

TEST(Bus, DeliveryOrderAndCounts) {
  can::CanBus bus;
  std::vector<std::uint32_t> seen;
  bus.attach_receiver([&](const can::CanFrame& f) { seen.push_back(f.id); });
  bus.send({.id = 1});
  bus.send({.id = 2});
  bus.send({.id = 3});
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(bus.frames_sent(), 3u);
}

TEST(Bus, InterceptorModifiesInFlight) {
  can::CanBus bus;
  bus.attach_interceptor([](can::CanFrame& f) {
    f.data[0] = 0xFF;
    return true;
  });
  can::CanFrame out;
  bus.attach_receiver([&](const can::CanFrame& f) { out = f; });
  bus.send({.id = 0xE4});
  EXPECT_EQ(out.data[0], 0xFF);
}

TEST(Bus, InterceptorCanDrop) {
  can::CanBus bus;
  bus.attach_interceptor([](can::CanFrame& f) { return f.id != 0xBAD; });
  int received = 0;
  bus.attach_receiver([&](const can::CanFrame&) { ++received; });
  EXPECT_TRUE(bus.send({.id = 0x1}));
  EXPECT_FALSE(bus.send({.id = 0xBAD}));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(bus.frames_dropped(), 1u);
}

TEST(Bus, TapSeesPostInterception) {
  can::CanBus bus;
  bus.attach_interceptor([](can::CanFrame& f) {
    f.data[0] = 0x42;
    return true;
  });
  std::uint8_t tapped = 0;
  bus.attach_tap([&](const can::CanFrame& f) { tapped = f.data[0]; });
  bus.send({.id = 0xE4});
  EXPECT_EQ(tapped, 0x42);
}

TEST(Bus, DetachStopsCallbacks) {
  can::CanBus bus;
  int taps = 0;
  const auto id = bus.attach_tap([&](const can::CanFrame&) { ++taps; });
  bus.send({.id = 1});
  bus.detach(id);
  bus.send({.id = 1});
  EXPECT_EQ(taps, 1);
}

TEST(Bus, ToStringFormat) {
  can::CanFrame f;
  f.id = 0xE4;
  f.dlc = 2;
  f.data = {0xAB, 0xCD};
  EXPECT_EQ(can::to_string(f), "0E4#2/ABCD");
}

// --- frames claiming more than 8 data bytes --------------------------------

TEST(CanBusDlc, OversizedFramesAreDroppedAndCounted) {
  // A World whose every CAN opportunity corrupts a payload bit: the fault
  // hook, the attacker's interceptor, the defense-style tap and the gateway
  // all index the payload by the DLC, so a frame claiming 9 or 255 bytes
  // must reach none of them.
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kContextAware;
  item.seed = 9;
  sim::WorldConfig cfg = exp::world_config_for(item);
  cfg.fault_plan = std::make_shared<fault::FaultPlan>(
      fault::FaultPlan::parse_text("can_corrupt rate=1\n", "corrupt"));
  sim::World world(cfg);
  std::uint64_t tapped = 0;
  world.can().attach_tap([&](const can::CanFrame& f) {
    ASSERT_LE(f.dlc, can::kMaxDlc);
    ++tapped;
  });
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(world.step());

  const auto corrupt = fault::fault_index(fault::FaultKind::kCanCorrupt);
  const sim::SimulationSummary before = world.summarize();
  const std::uint64_t tapped_before = tapped;
  const std::uint64_t sent_before = world.can().frames_sent();
  ASSERT_GT(before.faults_fired[corrupt], 0u);
  for (const std::uint8_t dlc : {std::uint8_t{9}, std::uint8_t{255}}) {
    can::CanFrame frame;
    frame.id = can::msg_id::kSteeringControl;
    frame.dlc = dlc;
    frame.data = {1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_FALSE(world.can().send(frame)) << int{dlc};
  }
  EXPECT_EQ(world.can().frames_malformed(), 2u);
  EXPECT_EQ(world.can().frames_sent(), sent_before + 2);
  EXPECT_EQ(tapped, tapped_before);
  const sim::SimulationSummary after = world.summarize();
  EXPECT_EQ(after.faults_fired[corrupt], before.faults_fired[corrupt]);
  EXPECT_EQ(after.can_checksum_rejects, before.can_checksum_rejects);

  // The bus carries on: the next tick's command frames flow as before.
  ASSERT_TRUE(world.step());
  EXPECT_EQ(tapped, tapped_before + 2);
  EXPECT_EQ(world.can().frames_malformed(), 2u);
}

}  // namespace
