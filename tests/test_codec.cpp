// Tests for the precompiled CAN codec (schema handles, flat pack/parse):
// bit-exact equivalence with the string-keyed compatibility path for every
// message of the simulated car, counter-continuity via the flat arrays,
// and the zero-heap-allocations-per-frame property of the hot path.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <map>

#include "can/checksum.hpp"
#include "can/database.hpp"
#include "can/packer.hpp"
#include "util/alloc_counter.hpp"
#include "util/math.hpp"
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
          schema.signal_by_name(by_id, msg.signals[s].name());
      ASSERT_TRUE(sig.valid()) << msg.signals[s].name();
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
        named[sig.name()] = v;
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
        EXPECT_EQ(parsed_map->values.at(msg.signals[s].name()),
                  parsed_flat->values[s])
            << msg.name << "." << msg.signals[s].name();
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

// --- word codec vs the historical per-bit codec ----------------------------
// The codec packs and parses whole 64-bit payload words. The reference here
// is the byte-array bit walk it replaced: one payload bit at a time, Intel
// ascending from the start bit, Motorola down the sawtooth; llround for the
// rounding; the checksum as a nibble loop.

using Payload = std::array<std::uint8_t, 8>;

int next_bit_motorola(int bit) {
  return bit % 8 == 0 ? (bit / 8 + 1) * 8 + 7 : bit - 1;
}

std::int64_t ref_extract(const can::DbcSignal& sig, const Payload& data) {
  std::uint64_t raw = 0;
  int bit = sig.start_bit();
  for (int i = 0; i < sig.size(); ++i) {
    const std::uint64_t b =
        (data[static_cast<std::size_t>(bit / 8)] >> (bit % 8)) & 1u;
    if (sig.order() == can::ByteOrder::kLittleEndian) {
      raw |= b << i;
      ++bit;
    } else {
      raw = (raw << 1) | b;
      bit = next_bit_motorola(bit);
    }
  }
  if (sig.is_signed() && sig.size() < 64 && (raw >> (sig.size() - 1)) & 1)
    raw |= ~0ull << sig.size();
  return static_cast<std::int64_t>(raw);
}

void ref_insert(const can::DbcSignal& sig, Payload& data, std::int64_t value) {
  const auto raw = static_cast<std::uint64_t>(value);
  int bit = sig.start_bit();
  for (int i = 0; i < sig.size(); ++i) {
    const bool le = sig.order() == can::ByteOrder::kLittleEndian;
    const unsigned b =
        static_cast<unsigned>((raw >> (le ? i : sig.size() - 1 - i)) & 1u);
    auto& byte = data[static_cast<std::size_t>(bit / 8)];
    byte = static_cast<std::uint8_t>((byte & ~(1u << (bit % 8))) |
                                     (b << (bit % 8)));
    bit = le ? bit + 1 : next_bit_motorola(bit);
  }
}

double ref_decode(const can::DbcSignal& sig, const Payload& data) {
  return static_cast<double>(ref_extract(sig, data)) * sig.factor() +
         sig.offset();
}

void ref_encode(const can::DbcSignal& sig, Payload& data, double physical) {
  const int n = sig.size();
  const double lo = sig.is_signed() ? -std::ldexp(1.0, n - 1) : 0.0;
  const double hi = sig.is_signed() ? std::ldexp(1.0, n - 1) - 1.0
                                    : std::ldexp(1.0, n) - 1.0;
  const double scaled =
      std::clamp((physical - sig.offset()) / sig.factor(), lo, hi);
  ref_insert(sig, data, static_cast<std::int64_t>(std::llround(scaled)));
}

std::uint8_t ref_checksum(std::uint32_t id, const Payload& data, int length) {
  unsigned sum = 0;
  for (std::uint32_t a = id; a > 0; a >>= 4) sum += a & 0xFu;
  for (int i = 0; i < length; ++i) {
    const std::uint8_t byte = data[static_cast<std::size_t>(i)];
    sum += byte >> 4;
    if (i != length - 1) sum += byte & 0xFu;
  }
  return static_cast<std::uint8_t>((8 - sum) & 0xFu);
}

/// The layouts SignalRoundTrip (test_properties.cpp) sweeps, plus every
/// signal of the simulated car.
std::vector<can::DbcSignal> differential_signals() {
  std::vector<can::DbcSignal> out = {
      {"L0", 0, 8, can::ByteOrder::kLittleEndian, false, 1.0, 0.0},
      {"L1", 4, 12, can::ByteOrder::kLittleEndian, true, 0.25, 0.0},
      {"L2", 7, 16, can::ByteOrder::kBigEndian, true, 0.01, 0.0},
      {"L3", 7, 16, can::ByteOrder::kBigEndian, false, 0.01, 0.0},
      {"L4", 23, 8, can::ByteOrder::kBigEndian, false, 2.0, 0.0},
      {"L5", 15, 24, can::ByteOrder::kBigEndian, true, 0.001, 0.0},
      {"L6", 8, 32, can::ByteOrder::kLittleEndian, true, 0.1, 0.0},
  };
  const auto db = can::Database::simulated_car();
  for (const auto& m : db.messages())
    out.insert(out.end(), m.signals.begin(), m.signals.end());
  return out;
}

/// Physical values to encode: in range, out of range on both sides, exact
/// raw ties (k + 0.5 steps), the range ends, signed zeros and infinities.
double differential_value(const can::DbcSignal& sig, util::Rng& rng) {
  const double lo = sig.min_physical();
  const double hi = sig.max_physical();
  const double span = hi - lo;
  switch (rng.uniform_int(0, 5)) {
    case 0: return rng.uniform(lo, hi);
    case 1: return rng.uniform(lo - span, hi + span);
    case 2: {
      const double k = std::floor(rng.uniform(lo, hi) / sig.factor());
      return (rng.uniform_int(0, 1) ? k + 0.5 : k - 0.5) * sig.factor() +
             sig.offset();
    }
    case 3: return rng.uniform_int(0, 1) ? lo : hi;
    case 4: return rng.uniform_int(0, 1) ? -0.0 : 0.0;
    default:
      return rng.uniform_int(0, 1) ? std::numeric_limits<double>::infinity()
                                   : -std::numeric_limits<double>::infinity();
  }
}

Payload random_payload(util::Rng& rng) {
  Payload p;
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
  return p;
}

TEST(CanCodecDifferential, SignalsMatchPerBitReference) {
  util::Rng rng(3401);
  for (const can::DbcSignal& sig : differential_signals()) {
    SCOPED_TRACE(sig.name());
    for (int i = 0; i < 2000; ++i) {
      // Encode over random surrounding bits: only the signal's bits change.
      const double v = differential_value(sig, rng);
      Payload got = random_payload(rng);
      Payload want = got;
      sig.encode(got, v);
      ref_encode(sig, want, v);
      ASSERT_EQ(got, want) << "value " << v;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sig.decode(got)),
                std::bit_cast<std::uint64_t>(ref_decode(sig, got)));

      // Raw insert/extract, with raw values beyond the signal's width.
      const auto raw = static_cast<std::int64_t>(rng.next());
      sig.insert_raw(got, raw);
      ref_insert(sig, want, raw);
      ASSERT_EQ(got, want) << "raw " << raw;
      const Payload noise = random_payload(rng);
      EXPECT_EQ(sig.extract_raw(noise), ref_extract(sig, noise));
    }
  }
}

TEST(CanCodecDifferential, PackAndParseMatchPerBitReference) {
  const auto db = can::Database::simulated_car();
  can::CanPacker packer(db);
  can::CanParser parser(db);
  util::Rng rng(3402);
  std::vector<double> values;
  for (const can::DbcMessage& msg : db.messages()) {
    SCOPED_TRACE(msg.name);
    const can::MessageHandle handle = db.handle(msg.name);
    for (int round = 0; round < 1000; ++round) {
      // Reference frame: signals into zero bytes, then counter, then
      // checksum into the last byte.
      Payload want{};
      values.clear();
      for (const can::DbcSignal& sig : msg.signals) {
        const bool unset = rng.uniform_int(0, 7) == 0;
        const double v =
            unset ? can::kSignalUnset : differential_value(sig, rng);
        values.push_back(v);
        if (!unset) ref_encode(sig, want, v);
      }
      auto& last = want[msg.size - 1u];
      last = static_cast<std::uint8_t>((last & 0xCF) | ((round & 3) << 4));
      last = static_cast<std::uint8_t>((last & 0xF0) |
                                       ref_checksum(msg.id, want, msg.size));

      const can::CanFrame frame = packer.pack(handle, values);
      ASSERT_EQ(frame.data, want) << "round " << round;
      ASSERT_EQ(frame.dlc, msg.size);

      const auto* parsed = parser.parse_flat(frame);
      ASSERT_NE(parsed, nullptr);
      EXPECT_TRUE(parsed->checksum_ok);
      EXPECT_TRUE(parsed->counter_ok);
      for (std::size_t s = 0; s < msg.signals.size(); ++s) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed->values[s]),
                  std::bit_cast<std::uint64_t>(
                      ref_decode(msg.signals[s], frame.data)));
      }
    }
  }
}

TEST(CanCodecDifferential, WordChecksumMatchesNibbleLoop) {
  util::Rng rng(3403);
  for (int i = 0; i < 20000; ++i) {
    const auto id = static_cast<std::uint32_t>(rng.next() >> 35);  // 29 bits
    const int dlc = rng.uniform_int(0, 8);
    can::CanFrame frame;
    frame.id = id;
    frame.dlc = static_cast<std::uint8_t>(dlc);
    frame.data = random_payload(rng);
    const std::uint8_t want = ref_checksum(id, frame.data, dlc);
    ASSERT_EQ(can::honda_checksum(id, frame.data, dlc), want)
        << "id " << id << " dlc " << dlc;
    if (dlc == 0) {
      EXPECT_FALSE(can::verify_honda_checksum(frame));
      EXPECT_EQ(can::read_counter(frame), 0);
      continue;
    }
    const std::size_t tail = static_cast<std::size_t>(dlc - 1);
    EXPECT_EQ(can::verify_honda_checksum(frame),
              (frame.data[tail] & 0xF) == want);
    EXPECT_EQ(can::read_counter(frame), (frame.data[tail] >> 4) & 0x3);

    Payload expect = frame.data;
    const auto counter = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    expect[tail] = static_cast<std::uint8_t>((expect[tail] & 0xCF) |
                                             ((counter & 0x3) << 4));
    can::write_counter(frame, counter);
    ASSERT_EQ(frame.data, expect);
    expect[tail] = static_cast<std::uint8_t>(
        (expect[tail] & 0xF0) | ref_checksum(id, expect, dlc));
    can::apply_honda_checksum(frame);
    ASSERT_EQ(frame.data, expect);
    EXPECT_TRUE(can::verify_honda_checksum(frame));
  }
}

TEST(CanCodecDifferential, RoundingMatchesLlround) {
  util::Rng rng(3404);
  std::vector<double> xs = {0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5,
                            0.49999999999999994, -0.49999999999999994,
                            std::nextafter(0.5, 1.0), 0x1p52, -0x1p52,
                            0x1p52 + 1.0, 0x1p53, 0x1p63 - 1024.0,
                            -0x1p63 + 1024.0, 4503599627370495.5,
                            -4503599627370495.5};
  for (int i = 0; i < 20000; ++i) {
    const double k = std::floor(rng.uniform(-1e15, 1e15));
    xs.push_back(k + 0.5);
    xs.push_back(rng.uniform(-1e6, 1e6));
    xs.push_back(std::ldexp(rng.uniform(-1.0, 1.0), rng.uniform_int(-60, 62)));
  }
  for (const double x : xs)
    ASSERT_EQ(math::round_half_away(x), std::llround(x)) << x;
  // No int64 value: the documented INT64_MIN.
  for (const double x : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), 0x1p63,
                         -0x1p63, 1e300})
    EXPECT_EQ(math::round_half_away(x), INT64_MIN) << x;
}

TEST(CanCodecDifferential, LayoutsPastThePayloadAreRejected) {
  using can::ByteOrder;
  const auto make = [](int start, int size, ByteOrder order) {
    return can::DbcSignal("S", start, size, order, false, 1.0, 0.0);
  };
  // Motorola start bit 56 sits at the word's bit 63 from the MSB: one bit
  // fits, two run off the payload; Intel likewise past bit 63.
  EXPECT_NO_THROW(make(56, 1, ByteOrder::kBigEndian));
  EXPECT_THROW(make(56, 2, ByteOrder::kBigEndian), std::invalid_argument);
  EXPECT_NO_THROW(make(7, 64, ByteOrder::kBigEndian));
  EXPECT_THROW(make(60, 8, ByteOrder::kLittleEndian), std::invalid_argument);
  EXPECT_THROW(make(64, 1, ByteOrder::kLittleEndian), std::invalid_argument);
  EXPECT_THROW(make(0, 0, ByteOrder::kLittleEndian), std::invalid_argument);
  EXPECT_THROW(can::DbcSignal("S", 0, 8, ByteOrder::kLittleEndian, false, 0.0,
                              0.0),
               std::invalid_argument);

  // The in-DLC rule parse_dbc applies holds for hand-built messages too.
  can::DbcMessage m;
  m.name = "SHORT";
  m.id = 0x10;
  m.size = 2;
  m.signals = {can::DbcSignal("S", 23, 8, ByteOrder::kBigEndian, false, 1, 0)};
  EXPECT_THROW(can::Database({m}), std::invalid_argument);
  m.size = 3;
  EXPECT_NO_THROW(can::Database({m}));
}

}  // namespace
