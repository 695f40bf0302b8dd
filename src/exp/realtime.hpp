#pragma once

/// @file realtime.hpp
/// Real-time executor: pin the 100 Hz simulation tick to an absolute
/// deadline clock and account for where each tick's budget goes.
///
/// Campaigns run free-running (as fast as the hardware allows); this
/// executor answers the deployment question the paper leaves open — does
/// the detection pipeline fit a real ECU tick budget? — by stepping one
/// World at its configured rate against util::DeadlineClock and recording
/// per-subsystem latency, wake jitter, and overrun histograms.
///
/// Determinism: the executor drives the exact phase sequence World::step()
/// runs (begin_tick -> project_traffic -> mid_tick -> project_ego ->
/// end_tick) and feeds no clock value into any of them. The wall clock
/// only decides *when* the next tick fires, never what it computes, so a
/// realtime run's SimulationSummary is bit-identical to a free-running
/// run() on the same config and seed (enforced by the Realtime test
/// suite).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "msg/bus.hpp"
#include "sim/world.hpp"
#include "util/proc.hpp"
#include "util/stats.hpp"

namespace scaa::exp {

/// Knobs for one realtime run.
struct RealtimeConfig {
  double period_s = 0.01;  ///< tick deadline period (paper rig: 100 Hz)

  /// Test fault-injection hook: runs inside the measured tick, after the
  /// simulation phases. A hook that burns more than one period makes every
  /// tick overrun — the overrun-monotonicity tests inject exactly that.
  std::function<void()> slow_tick_hook;
};

/// Latency accounting for one instrumented subsystem: streaming stats in
/// seconds plus a fixed-width histogram in microseconds.
struct PhaseStats {
  /// @p hi_us is the histogram's upper edge; samples above it clamp into
  /// the last bin (so the top bin reads "at or beyond this budget").
  PhaseStats(std::string name, double hi_us);

  void add(double seconds);

  std::string name;
  util::RunningStats latency_s;
  util::Histogram hist_us;
};

/// Everything one realtime run produced. `summary` is the deterministic
/// part (bit-identical to free-running); the rest is wall-clock-derived
/// and varies run to run by nature.
struct RealtimeReport {
  sim::SimulationSummary summary;
  std::size_t ticks = 0;
  std::size_t overruns = 0;     ///< ticks whose work missed the deadline
  util::RunningStats wake_error_s;  ///< deadline-clock wake jitter
  double period_s = 0.01;

  /// phases[0] is the whole tick; the rest decompose it along the
  /// World::step phase boundaries: "traffic" (begin_tick: the traffic
  /// vehicles' control laws and dynamics), "project_sweep"
  /// (project_traffic plus project_ego: every moved vehicle's Frenet
  /// refresh and road sample), "ego"
  /// (mid_tick: sensors, bus publish, attack, ADAS planners and controls,
  /// driver, Ego dynamics), "monitor" (end_tick: hazard/safety
  /// monitoring).
  std::vector<PhaseStats> phases;

  /// Fraction of ticks that overran; 0 when no tick ran.
  double miss_fraction() const noexcept {
    return ticks == 0 ? 0.0
                      : static_cast<double>(overruns) /
                            static_cast<double>(ticks);
  }
};

/// Runs @p world to completion under the deadline clock. Like World::run(),
/// consumes the world (throws std::logic_error if it already ran; reset()
/// re-arms it). Throws std::invalid_argument on a non-positive period.
class RealtimeExecutor {
 public:
  static RealtimeReport run(sim::World& world, const RealtimeConfig& config);
};

/// Convenience free-function spelling of RealtimeExecutor::run.
inline RealtimeReport run_realtime(sim::World& world,
                                   const RealtimeConfig& config) {
  return RealtimeExecutor::run(world, config);
}

/// Append one tap frame to @p out: little-endian
/// [u16 topic][u64 sequence][u32 payload length][payload bytes].
/// The single framing definition shared by FifoTap and the byte-identity
/// oracle in tests, so the two cannot drift apart.
void append_tap_frame(std::vector<std::uint8_t>& out,
                      const msg::WireFrame& frame);

/// FIFO/socket bridge for the paper's eavesdropper: subscribes to the raw
/// wire path of every topic on a bus and streams each WireFrame over a
/// file descriptor, framed by append_tap_frame. External tools observe a
/// running simulation exactly like an in-process raw tap — the bytes are
/// the same lazily-serialized frames msg::MessageLog records.
///
/// The constructor mkfifo(3)s @p path when it does not exist (an existing
/// FIFO, file, or bound socket path is used as-is) and opens it for
/// writing — which, for a FIFO, blocks until a reader opens the other end:
/// start the consumer first. SIGPIPE is ignored process-wide so a reader
/// hanging up cannot kill the simulation; the tap keeps the failing errno
/// and stops streaming instead (broken() and write_errno() report it).
class FifoTap {
 public:
  FifoTap(msg::PubSubBus& bus, const std::string& path);
  ~FifoTap();

  FifoTap(const FifoTap&) = delete;
  FifoTap& operator=(const FifoTap&) = delete;

  /// Frames successfully written so far.
  std::uint64_t frames_streamed() const noexcept { return frames_; }

  /// True once a write failed; no further frames are streamed.
  bool broken() const noexcept { return write_errno_ != 0; }

  /// The errno of the write that broke the stream (EPIPE when the reader
  /// hung up); 0 while the stream is intact.
  int write_errno() const noexcept { return write_errno_; }

 private:
  void write_frame(const msg::WireFrame& frame);

  msg::PubSubBus* bus_;
  std::vector<std::uint64_t> subscriptions_;
  util::UniqueFd fd_;
  std::vector<std::uint8_t> scratch_;
  std::uint64_t frames_ = 0;
  int write_errno_ = 0;
};

}  // namespace scaa::exp
