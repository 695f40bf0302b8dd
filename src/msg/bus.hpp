#pragma once

/// @file bus.hpp
/// The cereal-like publish/subscribe bus.
///
/// Design mirrors what matters about Cereal for the paper's attack:
///  * topics are public; any component can subscribe to any topic without
///    authentication or authorization (the eavesdropping vector, Fig. 3);
///  * messages are observable as serialized bytes on the wire; subscribers
///    can decode them with the public schema;
///  * publishers stamp a monotonically increasing per-topic sequence number
///    (lets tests assert no message loss).
///
/// Dispatch is split into two per-topic paths:
///  * the **typed fast path** (`subscribe<M>`, `Latest<M>`) receives the
///    published struct by const reference — zero serialization, zero
///    allocation. Because the codec is an exact little-endian IEEE-754
///    round trip, this is bit-identical to the historical
///    decode(serialize(m)) delivery.
///  * the **raw wire path** (`subscribe_raw`) receives the frame bytes.
///    Serialization happens lazily, only when at least one raw subscriber
///    is attached to the topic: the publish writes the message's
///    fixed-size frame (WireBytes<M>, one little-endian word store per
///    field) into a stack array, and the handlers see a non-owning
///    `WireFrame` view of it. The eavesdropping surface is therefore
///    preserved by design — any component may still tap byte-identical
///    frames without auth — the bytes are just not materialized when
///    nobody is looking.
///
/// Within one publish, typed subscribers run before raw subscribers; each
/// group runs in subscription order. Handlers may subscribe/unsubscribe
/// during dispatch: additions are delivered starting with the next
/// publish, removals take effect immediately and are compacted after the
/// outermost dispatch returns (index-based fan-out + deferred removal —
/// nothing is copied or reallocated mid-iteration).
///
/// The bus is single-threaded within one simulation (the 100 Hz loop runs
/// all services in order, like OpenPilot's single-machine deployment); the
/// campaign layer achieves parallelism by running many independent worlds.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "msg/codec.hpp"
#include "msg/messages.hpp"

namespace scaa::msg {

/// Wire layout of each schema message: its fields, in wire order, as
/// member pointers. This list is the one definition of a message's frame;
/// encode(), deserialize() and WireSizeOf all read it. Every message is a
/// flat fixed field sequence (no varints, no optional fields), so every
/// frame has one size, known at compile time.
template <auto... Fields>
struct WireFields {};

template <typename M>
struct WireLayout;
template <> struct WireLayout<GpsLocationExternal> {
  using M = GpsLocationExternal;
  using type = WireFields<&M::mono_time, &M::latitude, &M::longitude,
                          &M::speed, &M::bearing, &M::has_fix>;
};
template <> struct WireLayout<ModelV2> {
  using M = ModelV2;
  using type = WireFields<&M::mono_time, &M::left_lane_line,
                          &M::right_lane_line, &M::left_line_prob,
                          &M::right_line_prob, &M::path_curvature,
                          &M::path_heading_error>;
};
template <> struct WireLayout<RadarState> {
  using M = RadarState;
  using type = WireFields<&M::mono_time, &M::lead_valid, &M::lead_distance,
                          &M::lead_rel_speed, &M::lead_speed>;
};
template <> struct WireLayout<CarState> {
  using M = CarState;
  using type = WireFields<&M::mono_time, &M::speed, &M::accel,
                          &M::steer_angle, &M::cruise_speed,
                          &M::cruise_enabled, &M::driver_torque>;
};
template <> struct WireLayout<CarControl> {
  using M = CarControl;
  using type = WireFields<&M::mono_time, &M::enabled, &M::accel,
                          &M::steer_angle>;
};
template <> struct WireLayout<ControlsState> {
  using M = ControlsState;
  using type = WireFields<&M::mono_time, &M::active, &M::steer_saturated,
                          &M::fcw, &M::alert_count>;
};

namespace wire {

template <typename C, typename T>
T field_type_of(T C::*);

// A field occupies sizeof its type on the wire: f64 its eight IEEE-754
// bytes, a bool one byte.
static_assert(sizeof(bool) == 1, "bools travel as one byte");

inline void put(std::uint8_t* p, std::uint64_t v) noexcept { store_le(p, v); }
inline void put(std::uint8_t* p, std::uint32_t v) noexcept { store_le(p, v); }
inline void put(std::uint8_t* p, double v) noexcept {
  store_le(p, std::bit_cast<std::uint64_t>(v));
}
inline void put(std::uint8_t* p, bool v) noexcept { *p = v ? 1 : 0; }

inline void get(const std::uint8_t* p, std::uint64_t& v) noexcept {
  v = load_le<std::uint64_t>(p);
}
inline void get(const std::uint8_t* p, std::uint32_t& v) noexcept {
  v = load_le<std::uint32_t>(p);
}
inline void get(const std::uint8_t* p, double& v) noexcept {
  v = std::bit_cast<double>(load_le<std::uint64_t>(p));
}
inline void get(const std::uint8_t* p, bool& v) noexcept { v = *p != 0; }

template <auto... Fields>
constexpr std::size_t size_of(WireFields<Fields...>) noexcept {
  return (std::size_t{0} + ... + sizeof(decltype(field_type_of(Fields))));
}

template <typename M, auto... Fields>
void encode(const M& m, std::uint8_t* out, WireFields<Fields...>) noexcept {
  std::size_t at = 0;
  ((put(out + at, m.*Fields), at += sizeof(m.*Fields)), ...);
}

template <typename M, auto... Fields>
void decode(const std::uint8_t* in, M& m, WireFields<Fields...>) noexcept {
  std::size_t at = 0;
  ((get(in + at, m.*Fields), at += sizeof(m.*Fields)), ...);
}

}  // namespace wire

/// Exact wire size of each schema message.
template <typename M>
struct WireSizeOf {
  static constexpr std::size_t value =
      wire::size_of(typename WireLayout<M>::type{});
};
static_assert(WireSizeOf<GpsLocationExternal>::value == 41);  // u64 4*f64 bool
static_assert(WireSizeOf<ModelV2>::value == 56);              // u64 6*f64
static_assert(WireSizeOf<RadarState>::value == 33);  // u64 bool 3*f64
static_assert(WireSizeOf<CarState>::value == 49);    // u64 5*f64 bool
static_assert(WireSizeOf<CarControl>::value == 25);  // u64 bool 2*f64
static_assert(WireSizeOf<ControlsState>::value == 15);  // u64 3*bool u32

/// One message's frame: exactly WireSizeOf<M>::value bytes.
template <typename M>
using WireBytes = std::array<std::uint8_t, WireSizeOf<M>::value>;

/// Write the frame of @p m into @p out: one fixed-width store per field.
template <typename M>
void encode(const M& m, WireBytes<M>& out) noexcept {
  wire::encode(m, out.data(), typename WireLayout<M>::type{});
}

/// Serialize any schema message into a fresh, exactly-sized buffer.
template <typename M>
std::vector<std::uint8_t> serialize(const M& m) {
  WireBytes<M> frame;
  encode(m, frame);
  return {frame.begin(), frame.end()};
}

/// Deserialize into a schema message; throws std::out_of_range when
/// @p bytes is shorter than the frame (trailing bytes are ignored).
/// Accepts any contiguous byte view (vector, WireFrame payload, ...).
template <typename M>
void deserialize(std::span<const std::uint8_t> bytes, M& m) {
  if (bytes.size() < WireSizeOf<M>::value)
    throw std::out_of_range("msg::deserialize: truncated frame");
  wire::decode(bytes.data(), m, typename WireLayout<M>::type{});
}

/// A frame as seen on the wire. The payload is a non-owning view into the
/// publishing call's frame buffer: it is valid for the duration of the raw
/// handler call; a subscriber that wants to keep the bytes must copy them
/// (see msg::StoredFrame).
struct WireFrame {
  Topic topic{};
  std::uint64_t sequence = 0;
  std::span<const std::uint8_t> payload;
};

/// Pub/sub bus. Subscribers register callbacks per topic; publishing
/// synchronously fans the message out — typed subscribers get the struct,
/// raw subscribers get the (lazily serialized) wire bytes.
class PubSubBus {
 public:
  using RawHandler = std::function<void(const WireFrame&)>;

  /// Subscribe to raw frames on @p topic. No authentication — by design:
  /// this is the vulnerability surface. Returns a subscription id. Throws
  /// std::invalid_argument for a topic outside the schema.
  std::uint64_t subscribe_raw(Topic topic, RawHandler handler);

  /// Subscribe with typed delivery: the handler receives the published
  /// struct by const reference (no serialization round trip).
  template <typename M>
  std::uint64_t subscribe(std::function<void(const M&)> handler) {
    return subscribe_typed(TopicOf<M>::value,
                           [h = std::move(handler)](const void* m) {
                             h(*static_cast<const M*>(m));
                           });
  }

  /// Remove a subscription. Unknown ids are ignored (idempotent). Safe to
  /// call from inside a handler (including removing the running handler).
  void unsubscribe(std::uint64_t id);

  /// Publish a typed message: stamp the per-topic sequence, hand the
  /// struct to typed subscribers, and — only if the topic has at least one
  /// raw subscriber — serialize once into a stack frame and fan the
  /// WireFrame view out to them.
  template <typename M>
  void publish(const M& m) {
    TopicState& st = topics_[topic_index(TopicOf<M>::value)];
    const std::uint64_t seq = ++st.sequence;
    const DispatchGuard guard(*this);
    for (std::size_t i = 0, n = st.typed.size(); i < n; ++i) {
      const TypedSub* sub = st.typed[i].get();
      if (sub->alive) sub->handler(&m);
    }
    if (st.raw.empty()) return;
    // Each fan-out encodes into its own stack frame, so a raw handler that
    // publishes on the same topic (a replay tap) cannot clobber the bytes
    // this fan-out is still delivering.
    WireBytes<M> wire;
    encode(m, wire);
    const WireFrame frame{TopicOf<M>::value, seq, wire};
    for (std::size_t i = 0, n = st.raw.size(); i < n; ++i) {
      const RawSub* sub = st.raw[i].get();
      if (sub->alive) sub->handler(frame);
    }
  }

  /// Re-arm the bus for a new simulation: every per-topic sequence counter
  /// restarts from zero while every subscription — typed and raw — stays
  /// attached. Retaining the
  /// subscriber set is deliberate and security-relevant: an eavesdropper
  /// that tapped a topic once keeps receiving byte-identical frames across
  /// World resets, and the restarted sequence numbers stay gap-free, so
  /// nothing on the wire reveals that a new simulation began.
  void reset() noexcept;

  /// Messages published so far on @p topic (0 for an invalid topic).
  std::uint64_t published_count(Topic topic) const noexcept;

  /// Number of active subscriptions (typed + raw) on @p topic.
  std::size_t subscriber_count(Topic topic) const noexcept;

 private:
  // Typed handlers are type-erased per topic: each topic carries exactly
  // one message type, so the pointer cast back is done by subscribe<M>'s
  // wrapper, which is the only code that ever stores one.
  using TypedHandler = std::function<void(const void*)>;

  struct TypedSub {
    std::uint64_t id;
    bool alive;
    TypedHandler handler;
  };
  struct RawSub {
    std::uint64_t id;
    bool alive;
    RawHandler handler;
  };
  struct TopicState {
    // unique_ptr entries: a handler appended during dispatch may grow the
    // vector, but the subscription (and the std::function being executed)
    // never moves.
    std::vector<std::unique_ptr<TypedSub>> typed;
    std::vector<std::unique_ptr<RawSub>> raw;
    std::uint64_t sequence = 0;
  };

  struct DispatchGuard {
    PubSubBus& bus;
    explicit DispatchGuard(PubSubBus& b) noexcept : bus(b) {
      ++bus.dispatch_depth_;
    }
    ~DispatchGuard() {
      if (--bus.dispatch_depth_ == 0 && bus.sweep_pending_) bus.sweep_dead();
    }
  };

  std::uint64_t subscribe_typed(Topic topic, TypedHandler handler);
  void sweep_dead();

  std::array<TopicState, kTopicCount> topics_;
  std::uint64_t next_id_ = 1;
  int dispatch_depth_ = 0;
  bool sweep_pending_ = false;
};

/// Convenience latch: stores the most recent message of a type.
/// Mirrors OpenPilot's SubMaster "latest value" access pattern.
template <typename M>
class Latest {
 public:
  /// Attach to a bus; the latch must not outlive the bus.
  explicit Latest(PubSubBus& bus) {
    id_ = bus.subscribe<M>([this](const M& m) {
      value_ = m;
      ++updates_;
    });
  }

  /// Most recent message (default-constructed before the first publish).
  const M& value() const noexcept { return value_; }

  /// True once at least one message arrived.
  bool valid() const noexcept { return updates_ > 0; }

  /// Number of messages received.
  std::uint64_t updates() const noexcept { return updates_; }

  /// Subscription id (for unsubscribe).
  std::uint64_t subscription_id() const noexcept { return id_; }

  /// Forget the latched value (back to default-constructed, valid() ==
  /// false) while keeping the subscription attached. Used by the World
  /// reset path so consumers start a new simulation with no stale state.
  void reset() noexcept {
    value_ = M{};
    updates_ = 0;
  }

 private:
  M value_{};
  std::uint64_t updates_ = 0;
  std::uint64_t id_ = 0;
};

}  // namespace scaa::msg
