#pragma once

/// @file bus.hpp
/// The in-vehicle CAN bus with tap and man-in-the-middle attachment points.
///
/// Frames sent by any node are delivered, in order, to every attached
/// receiver. Two attachment kinds model the paper's threat surface:
///  * taps: read-only observers (traffic monitoring / reverse engineering);
///  * interceptors: transforms applied to a frame before delivery — this is
///    where the attack engine rewrites actuator commands (OBD-II position,
///    after the ADAS safety checks, before the actuators).

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "can/frame.hpp"

namespace scaa::can {

/// Verdict a benign-fault hook returns for a frame offered to the bus
/// (fault/injector.hpp). kDrop discards the frame before interception;
/// kDelay queues it for `delay_ticks` ticks and delivers it from
/// pump_delayed(). Payload corruption is expressed by the hook mutating
/// the frame and returning kPass.
struct FaultVerdict {
  enum class Action : std::uint8_t { kPass, kDrop, kDelay };
  Action action = Action::kPass;
  std::uint32_t delay_ticks = 0;
};

/// Ordered, lossless CAN bus model.
///
/// Real CAN arbitration/latency is not modelled: at the 100 Hz control rate
/// the handful of frames per cycle always fits the bus, so arbitration has
/// no observable effect on the experiments. A benign-fault hook (set once,
/// gated per run) reintroduces physical loss deliberately: dropped/delayed
/// frames model an unreliable bus, not an attacker — they vanish before
/// interceptors and taps, exactly like frames lost on a real lossy bus.
class CanBus {
 public:
  using Tap = std::function<void(const CanFrame&)>;
  /// Interceptor may modify the frame, or drop it by returning false.
  using Interceptor = std::function<bool(CanFrame&)>;
  using Receiver = std::function<void(const CanFrame&)>;
  /// Benign-fault hook consulted by send() while fault_active(); may
  /// mutate the frame (corruption) before returning its verdict.
  using FaultHook = std::function<FaultVerdict(CanFrame&)>;

  /// Delayed frames the bus holds at once; past this, a delay verdict
  /// degrades to immediate delivery (counted in delay_overflows()).
  static constexpr std::size_t kDelayQueueCapacity = 64;

  /// Attach a read-only tap (sees frames post-interception, like a device
  /// listening on the OBD-II connector). Returns an attachment id.
  std::uint64_t attach_tap(Tap tap);

  /// Attach an interceptor; interceptors run in attachment order before
  /// delivery. Returns an attachment id.
  std::uint64_t attach_interceptor(Interceptor interceptor);

  /// Attach a receiving node. Returns an attachment id.
  std::uint64_t attach_receiver(Receiver receiver);

  /// Detach any attachment by id (idempotent).
  void detach(std::uint64_t id);

  /// Send a frame: consult the fault hook (when active), then run
  /// interceptors, then taps, then deliver to receivers. Returns false
  /// when the frame was dropped (by a fault or an interceptor); a delayed
  /// frame returns true — it is delivered later by pump_delayed(). A frame
  /// with a DLC above 8 is malformed: it is dropped before the fault hook
  /// and counted in frames_malformed().
  bool send(CanFrame frame);

  /// Install the benign-fault hook. Wiring, like taps: set once at World
  /// construction, it survives reset(); the per-run set_fault_active()
  /// gate decides whether send() consults it. Reserves the delay queue up
  /// front so steady-state fault handling never allocates.
  void set_fault_hook(FaultHook hook);

  /// Gate the fault hook for the current run (off for plan-free worlds:
  /// send() then takes exactly its historical path).
  void set_fault_active(bool active) noexcept { fault_active_ = active; }

  /// Deliver every queued frame whose delay expires at @p tick, in
  /// original send order, and record @p tick as the current tick for
  /// subsequent delay verdicts. Called once per tick (top of
  /// World::mid_tick, shared by step() and the RealtimeExecutor).
  /// Redelivered frames skip the fault hook — a delayed frame is not
  /// re-dropped or re-delayed.
  void pump_delayed(std::uint64_t tick);

  /// Zero the frame counters and clear fault state (queued frames, tick,
  /// fault counters — queue capacity kept) for a new simulation.
  /// Attachments — taps, interceptors, receivers, the fault hook — and
  /// their ids stay; like the pub/sub bus, the wiring of a World survives
  /// reset() so a man-in-the-middle attached once keeps its position
  /// across simulations.
  void reset_counters() noexcept {
    sent_ = 0;
    dropped_ = 0;
    malformed_ = 0;
    delay_overflows_ = 0;
    current_tick_ = 0;
    delayed_.clear();  // capacity kept: reset stays allocation-free
  }

  /// Total frames offered to the bus.
  std::uint64_t frames_sent() const noexcept { return sent_; }

  /// Frames dropped by interceptors.
  std::uint64_t frames_dropped() const noexcept { return dropped_; }

  /// Frames dropped for a DLC above 8.
  std::uint64_t frames_malformed() const noexcept { return malformed_; }

  /// Delay verdicts that degraded to immediate delivery because the queue
  /// was full (surfaced as suppressed kCanDelay faults in the summary).
  std::uint64_t delay_overflows() const noexcept { return delay_overflows_; }

 private:
  /// Interceptors -> taps -> receivers (send() minus fault handling).
  bool dispatch(CanFrame frame);

  template <typename T>
  struct Entry {
    std::uint64_t id;
    T fn;
  };
  struct DelayedFrame {
    CanFrame frame;
    std::uint64_t due_tick;
  };
  std::vector<Entry<Tap>> taps_;
  std::vector<Entry<Interceptor>> interceptors_;
  std::vector<Entry<Receiver>> receivers_;
  FaultHook fault_hook_;
  std::vector<DelayedFrame> delayed_;
  std::uint64_t next_id_ = 1;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t delay_overflows_ = 0;
  std::uint64_t current_tick_ = 0;
  bool fault_active_ = false;
};

}  // namespace scaa::can
