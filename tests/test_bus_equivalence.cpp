// Differential suite for the zero-copy bus refactor (suite name
// BusEquivalence — CI runs it by name under ASan/UBSan before the full
// matrix): typed fast-path delivery must be bit-identical to the
// historical decode(serialize(m)) round trip, the lazy raw path must emit
// byte-identical frames with gap-free sequence numbers no matter when the
// tap attaches, and the steady-state publish path must never touch the
// heap (counting operator new, as in test_codec).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "cli/campaigns.hpp"
#include "msg/bus.hpp"
#include "util/alloc_counter.hpp"

namespace {

using namespace scaa;

// Bit-level equality: the typed path must preserve NaN payloads and -0.0,
// not just numeric equality.
void expect_bits_eq(double a, double b, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << field;
}

// Messages with adversarial payloads: negative zero, denormals, infinities
// and a signaling-pattern NaN — everything the exact IEEE-754 codec is
// documented to round-trip bit-for-bit.
msg::GpsLocationExternal tricky_gps() {
  msg::GpsLocationExternal m;
  m.mono_time = 0xFFFF'FFFF'FFFF'FFFFull;
  m.latitude = -0.0;
  m.longitude = std::numeric_limits<double>::denorm_min();
  m.speed = std::numeric_limits<double>::infinity();
  m.bearing = std::bit_cast<double>(0x7FF4'0000'0000'0001ull);  // sNaN bits
  m.has_fix = true;
  return m;
}

msg::CarState tricky_car_state() {
  msg::CarState m;
  m.mono_time = 1;
  m.speed = 26.8224;
  m.accel = -1e-308;
  m.steer_angle = std::numeric_limits<double>::quiet_NaN();
  m.cruise_speed = std::numeric_limits<double>::max();
  m.cruise_enabled = true;
  m.driver_torque = -0.0;
  return m;
}

template <typename M>
M wire_round_trip(const M& m) {
  M out{};
  msg::deserialize(msg::serialize(m), out);
  return out;
}

/// Records the wire bytes of every typed delivery of M into @p last.
template <typename M>
void record_typed(msg::PubSubBus& bus, std::vector<std::uint8_t>& last) {
  bus.subscribe<M>([&last](const M& m) { last = msg::serialize(m); });
}

TEST(BusEquivalence, WireSizesAreExact) {
  EXPECT_EQ(msg::serialize(msg::GpsLocationExternal{}).size(),
            msg::WireSizeOf<msg::GpsLocationExternal>::value);
  EXPECT_EQ(msg::serialize(msg::ModelV2{}).size(),
            msg::WireSizeOf<msg::ModelV2>::value);
  EXPECT_EQ(msg::serialize(msg::RadarState{}).size(),
            msg::WireSizeOf<msg::RadarState>::value);
  EXPECT_EQ(msg::serialize(msg::CarState{}).size(),
            msg::WireSizeOf<msg::CarState>::value);
  EXPECT_EQ(msg::serialize(msg::CarControl{}).size(),
            msg::WireSizeOf<msg::CarControl>::value);
  EXPECT_EQ(msg::serialize(msg::ControlsState{}).size(),
            msg::WireSizeOf<msg::ControlsState>::value);
}

TEST(BusEquivalence, TypedDeliveryBitIdenticalToWireRoundTrip) {
  // The typed fast path hands the struct through by reference; the old bus
  // delivered decode(serialize(m)). Both must agree to 0 ulp — including
  // NaN bit patterns, which compare unequal numerically.
  msg::PubSubBus bus;
  msg::GpsLocationExternal got_gps;
  msg::CarState got_cs;
  bus.subscribe<msg::GpsLocationExternal>(
      [&](const msg::GpsLocationExternal& m) { got_gps = m; });
  bus.subscribe<msg::CarState>([&](const msg::CarState& m) { got_cs = m; });

  const auto gps = tricky_gps();
  const auto cs = tricky_car_state();
  bus.publish(gps);
  bus.publish(cs);

  const auto legacy_gps = wire_round_trip(gps);
  EXPECT_EQ(got_gps.mono_time, legacy_gps.mono_time);
  expect_bits_eq(got_gps.latitude, legacy_gps.latitude, "latitude");
  expect_bits_eq(got_gps.longitude, legacy_gps.longitude, "longitude");
  expect_bits_eq(got_gps.speed, legacy_gps.speed, "speed");
  expect_bits_eq(got_gps.bearing, legacy_gps.bearing, "bearing");
  EXPECT_EQ(got_gps.has_fix, legacy_gps.has_fix);

  const auto legacy_cs = wire_round_trip(cs);
  EXPECT_EQ(got_cs.mono_time, legacy_cs.mono_time);
  expect_bits_eq(got_cs.speed, legacy_cs.speed, "speed");
  expect_bits_eq(got_cs.accel, legacy_cs.accel, "accel");
  expect_bits_eq(got_cs.steer_angle, legacy_cs.steer_angle, "steer_angle");
  expect_bits_eq(got_cs.cruise_speed, legacy_cs.cruise_speed,
                 "cruise_speed");
  EXPECT_EQ(got_cs.cruise_enabled, legacy_cs.cruise_enabled);
  expect_bits_eq(got_cs.driver_torque, legacy_cs.driver_torque,
                 "driver_torque");

  // The steady-state mix perfbench times (cli::bus_tick_workload), on all
  // six topics. Serialization is exact IEEE-754, so equal bytes mean every
  // delivered field is bit-identical to decode(serialize(m)).
  msg::PubSubBus tick_bus;
  std::vector<std::uint8_t> last;
  record_typed<msg::GpsLocationExternal>(tick_bus, last);
  record_typed<msg::ModelV2>(tick_bus, last);
  record_typed<msg::RadarState>(tick_bus, last);
  record_typed<msg::CarState>(tick_bus, last);
  record_typed<msg::CarControl>(tick_bus, last);
  record_typed<msg::ControlsState>(tick_bus, last);
  std::uint64_t published = 0;
  cli::bus_tick_workload(2000, [&](const auto& m) {
    last.clear();
    tick_bus.publish(m);
    EXPECT_EQ(last, msg::serialize(wire_round_trip(m))) << published;
    ++published;
  });
  EXPECT_EQ(published, cli::bus_tick_workload_count(2000));
}

TEST(BusEquivalence, RawFramesMatchEagerSerializationExactly) {
  // What the eavesdropper sees on the lazy path must be byte-identical to
  // the old always-serialize bus, i.e. exactly serialize(m).
  msg::PubSubBus bus;
  std::vector<std::vector<std::uint8_t>> frames;
  bus.subscribe_raw(msg::Topic::kGpsLocationExternal,
                    [&](const msg::WireFrame& f) {
                      frames.emplace_back(f.payload.begin(),
                                          f.payload.end());
                    });
  const auto gps = tricky_gps();
  bus.publish(gps);
  msg::GpsLocationExternal plain;
  plain.speed = 13.5;
  bus.publish(plain);

  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], msg::serialize(gps));
  EXPECT_EQ(frames[1], msg::serialize(plain));

  // The steady-state mix perfbench times (cli::bus_tick_workload), with a
  // typed latch and a raw tap on every topic.
  msg::PubSubBus tick_bus;
  msg::Latest<msg::GpsLocationExternal> gps_latch(tick_bus);
  msg::Latest<msg::ModelV2> model_latch(tick_bus);
  msg::Latest<msg::RadarState> radar_latch(tick_bus);
  msg::Latest<msg::CarState> cs_latch(tick_bus);
  msg::Latest<msg::CarControl> cc_latch(tick_bus);
  msg::Latest<msg::ControlsState> st_latch(tick_bus);
  std::vector<std::uint8_t> frame;
  for (std::size_t i = 1; i <= msg::kTopicCount; ++i) {
    tick_bus.subscribe_raw(static_cast<msg::Topic>(i),
                           [&frame](const msg::WireFrame& f) {
                             frame.assign(f.payload.begin(), f.payload.end());
                           });
  }
  std::uint64_t published = 0;
  cli::bus_tick_workload(2000, [&](const auto& m) {
    frame.clear();
    tick_bus.publish(m);
    EXPECT_EQ(frame, msg::serialize(m)) << published;
    ++published;
  });
  EXPECT_EQ(published, cli::bus_tick_workload_count(2000));
}

TEST(BusEquivalence, FramesIdenticalWithAndWithoutOtherSubscribers) {
  // The bytes a raw subscriber sees must not depend on who else is
  // attached — typed subscribers or additional raw taps.
  msg::PubSubBus lone, crowded;
  std::vector<std::vector<std::uint8_t>> lone_frames, crowded_frames;
  std::vector<std::uint64_t> lone_seqs, crowded_seqs;
  lone.subscribe_raw(msg::Topic::kRadarState, [&](const msg::WireFrame& f) {
    lone_frames.emplace_back(f.payload.begin(), f.payload.end());
    lone_seqs.push_back(f.sequence);
  });
  msg::Latest<msg::RadarState> latest(crowded);
  crowded.subscribe_raw(msg::Topic::kRadarState,
                        [](const msg::WireFrame&) {});
  crowded.subscribe_raw(msg::Topic::kRadarState,
                        [&](const msg::WireFrame& f) {
                          crowded_frames.emplace_back(f.payload.begin(),
                                                      f.payload.end());
                          crowded_seqs.push_back(f.sequence);
                        });

  for (int i = 0; i < 16; ++i) {
    msg::RadarState m;
    m.mono_time = static_cast<std::uint64_t>(i);
    m.lead_valid = i % 2 == 0;
    m.lead_distance = 40.0 + 0.25 * i;
    m.lead_rel_speed = -0.5 * i;
    m.lead_speed = 20.0 - 0.125 * i;
    lone.publish(m);
    crowded.publish(m);
  }
  EXPECT_EQ(lone_frames, crowded_frames);
  EXPECT_EQ(lone_seqs, crowded_seqs);
  EXPECT_EQ(latest.updates(), 16u);
}

TEST(BusEquivalence, MidRunTapStartsWithGapFreeSequences) {
  // Sequence numbers advance on every publish even while nothing is
  // serialized, so an eavesdropper attaching mid-drive sees the same
  // numbering it would have on the old eager bus.
  msg::PubSubBus bus;
  msg::Latest<msg::CarControl> latest(bus);
  for (int i = 0; i < 5; ++i) bus.publish(msg::CarControl{});
  EXPECT_EQ(bus.published_count(msg::Topic::kCarControl), 5u);

  std::vector<std::uint64_t> seqs;
  bus.subscribe_raw(msg::Topic::kCarControl, [&](const msg::WireFrame& f) {
    seqs.push_back(f.sequence);
  });
  for (int i = 0; i < 3; ++i) bus.publish(msg::CarControl{});
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{6, 7, 8}));
  EXPECT_EQ(bus.published_count(msg::Topic::kCarControl), 8u);
}

TEST(BusEquivalence, CountsUnchangedAcrossRefactor) {
  msg::PubSubBus bus;
  EXPECT_EQ(bus.subscriber_count(msg::Topic::kModelV2), 0u);
  EXPECT_EQ(bus.published_count(msg::Topic::kModelV2), 0u);

  const auto a = bus.subscribe<msg::ModelV2>([](const msg::ModelV2&) {});
  const auto b =
      bus.subscribe_raw(msg::Topic::kModelV2, [](const msg::WireFrame&) {});
  msg::Latest<msg::ModelV2> latest(bus);
  EXPECT_EQ(bus.subscriber_count(msg::Topic::kModelV2), 3u);
  EXPECT_EQ(bus.subscriber_count(msg::Topic::kCarState), 0u);

  bus.publish(msg::ModelV2{});
  bus.publish(msg::ModelV2{});
  EXPECT_EQ(bus.published_count(msg::Topic::kModelV2), 2u);

  bus.unsubscribe(a);
  bus.unsubscribe(b);
  EXPECT_EQ(bus.subscriber_count(msg::Topic::kModelV2), 1u);
  bus.unsubscribe(a);  // idempotent
  EXPECT_EQ(bus.subscriber_count(msg::Topic::kModelV2), 1u);

  // Unsubscribing mid-dispatch must be reflected by subscriber_count
  // immediately (the entry is dead even before the sweep).
  bus.subscribe<msg::ModelV2>([&](const msg::ModelV2&) {
    bus.unsubscribe(latest.subscription_id());
    EXPECT_EQ(bus.subscriber_count(msg::Topic::kModelV2), 1u);
  });
  bus.publish(msg::ModelV2{});
  EXPECT_EQ(bus.subscriber_count(msg::Topic::kModelV2), 1u);
}

TEST(BusEquivalence, InvalidTopicsAreRejectedOrZero) {
  msg::PubSubBus bus;
  const auto bogus = static_cast<msg::Topic>(99);
  EXPECT_THROW(bus.subscribe_raw(bogus, [](const msg::WireFrame&) {}),
               std::invalid_argument);
  EXPECT_EQ(bus.published_count(bogus), 0u);
  EXPECT_EQ(bus.subscriber_count(bogus), 0u);
}

TEST(BusEquivalence, NestedSameTopicPublishKeepsOuterFrameIntact) {
  // A raw handler that re-publishes on the same topic (a replay tap) must
  // not clobber the scratch bytes later subscribers of the OUTER frame are
  // about to read — the nested publish serializes into a local buffer.
  msg::PubSubBus bus;
  bool reentered = false;
  bus.subscribe_raw(msg::Topic::kCarControl, [&](const msg::WireFrame&) {
    if (reentered) return;
    reentered = true;
    msg::CarControl inner;
    inner.accel = -9.0;
    inner.steer_angle = 0.5;
    bus.publish(inner);
  });
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> seen;
  bus.subscribe_raw(msg::Topic::kCarControl, [&](const msg::WireFrame& f) {
    seen.emplace_back(f.sequence, std::vector<std::uint8_t>(
                                      f.payload.begin(), f.payload.end()));
  });

  msg::CarControl outer;
  outer.enabled = true;
  outer.accel = 1.25;
  bus.publish(outer);

  msg::CarControl inner;
  inner.accel = -9.0;
  inner.steer_angle = 0.5;
  // Delivery order: the nested frame (seq 2) completes its fan-out inside
  // the first subscriber, then the outer frame (seq 1) reaches the second
  // subscriber — with its own bytes, not the nested message's.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, 2u);
  EXPECT_EQ(seen[0].second, msg::serialize(inner));
  EXPECT_EQ(seen[1].first, 1u);
  EXPECT_EQ(seen[1].second, msg::serialize(outer));
}

// --- zero-allocation proofs (process-wide counting operator new) ----------
// Both tests drive cli::bus_tick_workload — the exact steady-state publish
// mix behind perfbench's msg.publish_typed_op_ns / msg.publish_wire_op_ns
// kernels — so the zero-alloc proof covers the workload the benchmark
// measures.

TEST(BusEquivalence, TypedPublishDoesNotAllocate) {
  msg::PubSubBus bus;
  // The production subscriber set: typed latches on every topic (the
  // attacker's three + the control stack's).
  msg::Latest<msg::GpsLocationExternal> gps(bus);
  msg::Latest<msg::ModelV2> model(bus);
  msg::Latest<msg::RadarState> radar(bus);
  msg::Latest<msg::CarState> cs(bus);
  msg::Latest<msg::CarControl> cc(bus);
  msg::Latest<msg::ControlsState> st(bus);

  const auto pub = [&bus](const auto& m) { bus.publish(m); };
  cli::bus_tick_workload(16, pub);  // warm up

  const std::uint64_t before =
      util::g_allocation_count.load(std::memory_order_relaxed);
  cli::bus_tick_workload(5000, pub);
  const std::uint64_t after =
      util::g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "typed publish path hit the heap";
  EXPECT_EQ(cs.updates(), 5016u);
  EXPECT_EQ(radar.updates(), 1004u);
}

TEST(BusEquivalence, TappedSteadyStateDoesNotAllocate) {
  // With a raw tap attached, each publish serializes — but into the
  // per-topic scratch buffer, which after warm-up never reallocates.
  msg::PubSubBus bus;
  msg::Latest<msg::CarState> cs(bus);
  std::uint64_t byte_sum = 0;
  std::uint64_t frames = 0;
  for (std::size_t i = 1; i <= msg::kTopicCount; ++i) {
    bus.subscribe_raw(static_cast<msg::Topic>(i),
                      [&](const msg::WireFrame& f) {
                        ++frames;
                        for (const std::uint8_t b : f.payload) byte_sum += b;
                      });
  }

  const auto pub = [&bus](const auto& m) { bus.publish(m); };
  cli::bus_tick_workload(16, pub);  // warm up

  const std::uint64_t before =
      util::g_allocation_count.load(std::memory_order_relaxed);
  cli::bus_tick_workload(5000, pub);
  const std::uint64_t after =
      util::g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "tapped publish path hit the heap";
  EXPECT_GT(byte_sum, 0u);
  EXPECT_EQ(frames,
            cli::bus_tick_workload_count(16) +
                cli::bus_tick_workload_count(5000));
}

}  // namespace
