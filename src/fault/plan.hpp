#pragma once

/// @file plan.hpp
/// Typed benign-fault plans: the deterministic description of which
/// CAN/sensor/ECU faults a simulation injects, and when.
///
/// A FaultPlan is immutable data — a bounded list of FaultSpecs with
/// activation windows and per-opportunity rates. All randomness lives in
/// the FaultInjector, which draws from a dedicated RNG stream forked from
/// the world seed (fault/injector.hpp), so a (seed, plan) pair replays the
/// exact same fault sequence at any thread or shard count. Plans are
/// shared across Worlds via shared_ptr<const FaultPlan> (the road/db
/// pattern): attaching one to a WorldConfig costs no per-reset allocation.

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace scaa::fault {

/// The fault taxonomy. Values are stable: they index the per-kind
/// fired/suppressed counters in SimulationSummary and appear in plan files
/// and fingerprints.
enum class FaultKind : std::uint8_t {
  kCanDrop = 0,     ///< drop a frame with probability `rate`
  kCanDelay,        ///< hold a frame in the bus queue for `ticks` ticks
  kCanCorrupt,      ///< flip one uniformly chosen payload bit
  kCanBusOff,       ///< bus-off window: every frame inside [t0,t1) is lost
  kSensorDropout,   ///< suppress a sensor publish
  kSensorFreeze,    ///< republish the previous value (stale mono_time)
  kSensorNoise,     ///< additive bias + extra gaussian noise burst
  kEcuStall,        ///< controls ECU misses `ticks` consecutive ticks
};

/// Number of fault kinds (size of the per-kind counter arrays).
inline constexpr std::size_t kFaultKindCount = 8;

/// Parse a plan-file kind token; returns false on an unknown token.
bool parse_fault_kind(std::string_view text, FaultKind& out) noexcept;

/// Which sensor a sensor-family fault applies to (ignored by CAN/ECU
/// kinds).
enum class FaultTarget : std::uint8_t { kAll = 0, kGps, kCamera, kRadar };

bool parse_fault_target(std::string_view text, FaultTarget& out) noexcept;

/// One fault. Fields not used by a kind are ignored (and default-zero so
/// the fingerprint stays canonical).
struct FaultSpec {
  FaultKind kind = FaultKind::kCanDrop;
  double t0 = 0.0;          ///< activation window [t0, t1) in sim seconds
  double t1 = 1.0e9;
  double rate = 0.0;        ///< per-opportunity Bernoulli probability
  double magnitude = 0.0;   ///< gaussian noise std (kSensorNoise)
  double bias = 0.0;        ///< additive offset (kSensorNoise)
  std::uint32_t ticks = 0;  ///< delay/stall duration in 10 ms ticks
  FaultTarget target = FaultTarget::kAll;

  /// True when sim time @p time falls inside the activation window.
  bool active_at(double time) const noexcept {
    return time >= t0 && time < t1;
  }
};

/// Thrown on malformed plan files; the message carries "<path>:<line>:"
/// diagnostics.
class FaultPlanError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// An immutable, bounded list of FaultSpecs. Fixed inline storage so the
/// injector can mirror per-spec state in flat arrays and the zero-alloc
/// world lifecycle holds with a plan attached.
class FaultPlan {
 public:
  static constexpr std::size_t kMaxFaults = 16;

  /// Append a spec; throws FaultPlanError once kMaxFaults is reached.
  void add(const FaultSpec& spec);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const FaultSpec& operator[](std::size_t i) const noexcept {
    return specs_[i];
  }

  /// Order-sensitive FNV-1a digest over every field of every spec.
  /// Folded into the campaign grid fingerprint (exp/checkpoint.cpp) so a
  /// resume against a checkpoint written under a different plan is
  /// rejected, and doubles travel as exact IEEE-754 bit patterns.
  std::uint64_t fingerprint() const noexcept;

  /// Parse a plan file. One spec per line:
  ///   <kind> [window=<t0>:<t1>] [rate=<p>] [ticks=<n>] [mag=<x>]
  ///          [bias=<x>] [target=<all|gps|camera|radar>]
  /// Blank lines and `#` comments are ignored; every number must be
  /// finite. Throws FaultPlanError with "<path>:<line>: <reason>" on any
  /// malformed input.
  static FaultPlan parse_file(const std::string& path);

  /// parse_file's core, on in-memory text (@p path only labels errors).
  static FaultPlan parse_text(std::string_view text, std::string_view path);

 private:
  std::array<FaultSpec, kMaxFaults> specs_{};
  std::size_t size_ = 0;
};

}  // namespace scaa::fault
