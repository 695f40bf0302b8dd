// Tests for the precompiled CAN codec (schema handles, flat pack/parse):
// bit-exact equivalence with the string-keyed compatibility path for every
// message of the simulated car, counter-continuity via the flat arrays,
// and the zero-heap-allocations-per-frame property of the hot path.

#include <gtest/gtest.h>

#include <array>
#include <map>

#include "can/database.hpp"
#include "can/packer.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"

namespace {

using namespace scaa;

TEST(Schema, ResolvesEveryMessageAndSignal) {
  const auto db = can::Database::simulated_car();
  const auto& schema = db.schema();
  ASSERT_EQ(schema.message_count(), db.messages().size());
  for (std::size_t m = 0; m < db.messages().size(); ++m) {
    const auto& msg = db.messages()[m];
    const can::MessageHandle by_id = schema.message_by_id(msg.id);
    const can::MessageHandle by_name = schema.message_by_name(msg.name);
    ASSERT_TRUE(by_id.valid()) << msg.name;
    EXPECT_EQ(by_id.index, m);
    EXPECT_EQ(by_name.index, m);
    EXPECT_EQ(schema.signal_count(by_id), msg.signals.size());
    for (std::size_t s = 0; s < msg.signals.size(); ++s) {
      const can::SignalHandle sig =
          schema.signal_by_name(by_id, msg.signals[s].name);
      ASSERT_TRUE(sig.valid()) << msg.signals[s].name;
      EXPECT_EQ(sig.message, m);
      EXPECT_EQ(sig.signal, s);
      EXPECT_EQ(&db.signal(sig), &msg.signals[s]);
    }
  }
}

TEST(Schema, UnknownLookupsAreInvalid) {
  const auto db = can::Database::simulated_car();
  EXPECT_FALSE(db.schema().message_by_id(0x7FF).valid());
  EXPECT_FALSE(db.schema().message_by_name("NOPE").valid());
  const auto steering = db.handle("STEERING_CONTROL");
  EXPECT_FALSE(db.schema().signal_by_name(steering, "NOPE").valid());
  EXPECT_FALSE(
      db.schema().signal_by_name(can::MessageHandle{}, "SPEED").valid());
  EXPECT_THROW(db.handle("NOPE"), std::invalid_argument);
  EXPECT_THROW(db.signal_handle("STEERING_CONTROL", "NOPE"),
               std::invalid_argument);
}

TEST(Schema, ExtendedIdsResolveThroughOverflowTable) {
  // Ids beyond the 11-bit direct table must still resolve (extended CAN).
  std::vector<can::DbcMessage> msgs;
  can::DbcMessage big;
  big.name = "EXTENDED";
  big.id = 0x18DAF110;  // 29-bit id
  big.size = 8;
  big.signals = {can::DbcSignal{"X", 7, 8, can::ByteOrder::kBigEndian, false,
                                1.0, 0.0}};
  msgs.push_back(big);
  const can::Database db(std::move(msgs));
  ASSERT_TRUE(db.schema().message_by_id(0x18DAF110).valid());
  EXPECT_FALSE(db.schema().message_by_id(0x18DAF111).valid());
  EXPECT_EQ(db.by_id(0x18DAF110)->name, "EXTENDED");
}

/// The equivalence property the compatibility shim rests on: for every
/// message and a spread of values across each signal's physical range, the
/// precompiled path and the string-keyed path produce bit-identical frames
/// and decode to identical values.
TEST(Codec, PrecompiledMatchesStringPathForEveryMessage) {
  const auto db = can::Database::simulated_car();
  can::CanPacker string_packer(db);
  can::CanPacker handle_packer(db);
  can::CanParser string_parser(db);
  can::CanParser handle_parser(db);
  util::Rng rng(20220707);

  std::vector<double> values;
  for (const auto& msg : db.messages()) {
    const can::MessageHandle handle = db.handle(msg.name);
    for (int round = 0; round < 64; ++round) {
      std::map<std::string, double> named;
      values.assign(msg.signals.size(), 0.0);
      for (std::size_t s = 0; s < msg.signals.size(); ++s) {
        const auto& sig = msg.signals[s];
        const double span = sig.max_physical() - sig.min_physical();
        const double v = sig.min_physical() + rng.uniform(0.0, 1.0) * span;
        named[sig.name] = v;
        values[s] = v;
      }
      const can::CanFrame a = string_packer.pack(msg.name, named);
      const can::CanFrame b = handle_packer.pack(handle, values);
      ASSERT_EQ(a, b) << msg.name << " round " << round;

      const auto parsed_map = string_parser.parse(a);
      const auto* parsed_flat = handle_parser.parse_flat(b);
      ASSERT_TRUE(parsed_map.has_value());
      ASSERT_NE(parsed_flat, nullptr);
      EXPECT_EQ(parsed_map->checksum_ok, parsed_flat->checksum_ok);
      EXPECT_EQ(parsed_map->counter_ok, parsed_flat->counter_ok);
      ASSERT_EQ(parsed_flat->values.size(), msg.signals.size());
      for (std::size_t s = 0; s < msg.signals.size(); ++s) {
        EXPECT_EQ(parsed_map->values.at(msg.signals[s].name),
                  parsed_flat->values[s])
            << msg.name << "." << msg.signals[s].name;
      }
    }
  }
}

TEST(Codec, UnsetSignalsLeaveBitsZeroLikeOmittedNames) {
  const auto db = can::Database::simulated_car();
  can::CanPacker string_packer(db);
  can::CanPacker handle_packer(db);
  // Omitting a name from the map and passing kSignalUnset must produce the
  // same frame (raw zero bits, not "physical zero").
  const can::CanFrame a = string_packer.pack(
      "STEERING_CONTROL", {{can::sig::kSteerEnabled, 1.0}});
  std::array<double, 2> values{can::kSignalUnset, can::kSignalUnset};
  const auto enabled =
      db.signal_handle("STEERING_CONTROL", can::sig::kSteerEnabled);
  values[enabled.signal] = 1.0;
  const can::CanFrame b =
      handle_packer.pack(db.handle("STEERING_CONTROL"), values);
  EXPECT_EQ(a, b);
}

TEST(Codec, FlatCounterContinuityAcrossMessages) {
  const auto db = can::Database::simulated_car();
  can::CanPacker packer(db);
  can::CanParser parser(db);
  const auto speed = db.handle("SPEED");
  const auto steering = db.handle("STEERING_CONTROL");
  const std::array<double, 2> zeros{0.0, 0.0};

  // Counters are tracked per message: interleaving ids must not trip the
  // continuity check.
  for (int i = 0; i < 6; ++i) {
    const auto* a = parser.parse_flat(packer.pack(speed, zeros));
    ASSERT_NE(a, nullptr);
    EXPECT_TRUE(a->counter_ok) << i;
    const auto* b = parser.parse_flat(packer.pack(steering, zeros));
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(b->counter_ok) << i;
  }
  // A skipped SPEED frame is a discontinuity for SPEED only.
  packer.pack(speed, zeros);
  EXPECT_FALSE(parser.parse_flat(packer.pack(speed, zeros))->counter_ok);
  EXPECT_TRUE(parser.parse_flat(packer.pack(steering, zeros))->counter_ok);
  EXPECT_EQ(parser.counter_errors(), 1u);
}

TEST(Codec, PrecompiledPackParseDoesNotAllocate) {
  const auto db = can::Database::simulated_car();
  can::CanPacker packer(db);
  can::CanParser parser(db);
  const auto steering = db.handle("STEERING_CONTROL");
  const auto angle =
      db.signal_handle("STEERING_CONTROL", can::sig::kSteerAngleCmd);
  std::array<double, 2> values{0.0, 1.0};

  // Warm up (first calls may touch lazily-initialized runtime state).
  for (int i = 0; i < 8; ++i) {
    values[angle.signal] = 0.01 * i;
    (void)parser.parse_flat(packer.pack(steering, values));
  }

  double sum = 0.0;
  const std::uint64_t before =
      util::g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    values[angle.signal] = 0.001 * i;
    const can::CanFrame frame = packer.pack(steering, values);
    const auto* parsed = parser.parse_flat(frame);
    sum += parsed->values[angle.signal];
  }
  const std::uint64_t after =
      util::g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "precompiled pack/parse hit the heap";
  EXPECT_GT(sum, 0.0);
}

}  // namespace
