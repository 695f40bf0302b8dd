#pragma once

/// @file harness.hpp
/// Wires the defense detectors onto a live simulation, exactly the way a
/// retrofit monitoring ECU would: subscribe to the pub/sub bus, tap the CAN
/// bus, and read the car's own motion — no cooperation from the (possibly
/// compromised) command path required.

#include <cstdint>
#include <memory>

#include "attack/context.hpp"
#include "can/packer.hpp"
#include "defense/context_monitor.hpp"
#include "defense/control_invariant.hpp"
#include "sim/world.hpp"

namespace scaa::defense {

/// Outcome of running the defenses over one simulation.
struct DefenseOutcome {
  bool invariant_alarmed = false;
  double invariant_time = -1.0;  ///< [s] first control-invariant alarm
  bool monitor_alarmed = false;
  double monitor_time = -1.0;    ///< [s] first context-monitor alarm
  /// Detection latency vs. the attack: alarm time - attack start; negative
  /// when not applicable (no attack or no alarm).
  double invariant_latency = -1.0;
  double monitor_latency = -1.0;
  /// Did any alarm precede the first hazard?
  bool detected_before_hazard = false;
  /// Stale-input degraded mode (context_monitor.hpp); all zero unless the
  /// monitor config enables it.
  std::uint64_t degraded_entries = 0;
  double degraded_time = 0.0;  ///< [s] total time spent degraded
};

/// Attaches both detectors to a world and steps it to completion.
class DefenseHarness {
 public:
  DefenseHarness(sim::World& world, InvariantConfig invariant_config,
                 MonitorConfig monitor_config);

  /// Run the world to the end, feeding the detectors every cycle.
  /// Returns the defense outcome alongside the usual summary.
  DefenseOutcome run(sim::SimulationSummary* summary_out = nullptr);

  const ControlInvariantDetector& invariant() const noexcept {
    return invariant_;
  }
  const ContextAwareMonitor& monitor() const noexcept { return monitor_; }

 private:
  sim::World* world_;
  ControlInvariantDetector invariant_;
  ContextAwareMonitor monitor_;
  attack::ContextInference inference_;
  msg::Latest<msg::CarControl> car_control_;
  can::CanParser tap_parser_;
  // Resolved once: the tap checks every command frame at 100 Hz and
  // decodes the one signal it reads; it must not allocate (it rides inside
  // the simulation hot path). Borrowed from the world's database.
  const can::DbcSignal* steer_angle_sig_;
  const can::DbcSignal* accel_sig_;
  double wire_accel_ = 0.0;
  double wire_steer_ = 0.0;
};

}  // namespace scaa::defense
