#pragma once

/// @file context_monitor.hpp
/// Context-aware safety monitoring — the defender's mirror of the
/// attacker's Table I (after Zhou et al., DSN'21, cited by the paper as a
/// candidate defense).
///
/// The monitor watches the same system context the attacker infers (headway
/// time, relative speed, lane-edge distances) and the control actions on
/// the wire, and alarms when an *unsafe control action in the current
/// context* persists: accelerating while closing on a near lead, sustained
/// braking with clear road, steering toward an edge the car is already on.
/// Unlike the firmware envelope checks, this catches in-envelope values —
/// exactly the gap the paper's strategic corruption exploits.

#include <cstdint>

#include "attack/context.hpp"
#include "attack/context_table.hpp"

namespace scaa::defense {

/// Tuning of the context monitor.
struct MonitorConfig {
  attack::ContextTableParams table;  ///< same thresholds as the hazard analysis
  double accel_on = 0.5;     ///< [m/s^2] commanded accel that counts as "accelerate"
  double brake_on = 1.2;     ///< [m/s^2] commanded decel that counts as "brake"
  double steer_on = 0.0035;  ///< [rad] (~0.2 deg) commanded offset that counts as "steer"
  double persistence = 1.0;  ///< [s] unsafe action must persist this long.
                             ///< The legitimate planner's wander reverses
                             ///< within a second; an attack holds its
                             ///< direction until the hazard.

  /// Graceful degradation under benign faults. 0 (the default) disables
  /// the mechanism entirely — the paper's original behavior, bit-for-bit.
  /// When > 0, the monitor enters a degraded ("stale input") mode once its
  /// context inputs have been older than this for degrade_hysteresis_s
  /// continuously; while degraded it withholds alarms and clears its
  /// persistence windows — a lossy bus starves the context, an attack
  /// keeps feeding it — and it recovers after the inputs stay fresh for
  /// the same hysteresis.
  double stale_context_s = 0.0;  ///< [s] context age that counts as stale
  double degrade_hysteresis_s = 0.0;  ///< [s] dwell before entering/leaving
};

/// Inputs per control cycle.
struct MonitorInputs {
  attack::SafetyContext context;  ///< inferred system context
  double wire_accel = 0.0;        ///< accel command on the CAN bus [m/s^2]
  double wire_steer = 0.0;        ///< steering command on the CAN bus [rad]
  double nominal_steer = 0.0;     ///< road-curvature feed-forward [rad]
  /// Age [s] of the oldest eavesdropped input feeding `context` (0 when the
  /// caller does not track staleness). Compared against stale_context_s —
  /// only meaningful when the config enables degradation.
  double context_age = 0.0;
};

/// The monitor. Stateless rule evaluation + persistence windows.
class ContextAwareMonitor {
 public:
  explicit ContextAwareMonitor(MonitorConfig config) noexcept
      : config_(config), table_(config.table) {}

  /// Feed one cycle; returns true while an unsafe-action alarm is active.
  bool update(const MonitorInputs& in, double dt) noexcept;

  /// True once alarmed at least once.
  bool alarmed() const noexcept { return alarm_time_ >= 0.0; }

  /// Clock time of the first alarm; negative when never.
  double alarm_time() const noexcept { return alarm_time_; }

  /// Which unsafe action triggered the first alarm.
  attack::UnsafeAction alarm_action() const noexcept { return alarm_action_; }

  /// True while the monitor is in the stale-input degraded mode.
  bool degraded() const noexcept { return degraded_; }

  /// Times the monitor entered degraded mode this run.
  std::uint64_t degraded_entries() const noexcept { return degraded_entries_; }

  /// Total time [s] spent degraded this run.
  double degraded_time() const noexcept { return degraded_time_; }

 private:
  void update_degraded(const MonitorInputs& in, double dt) noexcept;

  MonitorConfig config_;
  attack::ContextTable table_;
  double unsafe_since_[4] = {-1.0, -1.0, -1.0, -1.0};
  double clock_ = 0.0;
  double alarm_time_ = -1.0;
  attack::UnsafeAction alarm_action_ = attack::UnsafeAction::kAcceleration;
  // Degraded-mode state; untouched (and alarm behavior unchanged) when
  // config_.stale_context_s == 0.
  bool degraded_ = false;
  double stale_since_ = -1.0;
  double fresh_since_ = -1.0;
  std::uint64_t degraded_entries_ = 0;
  double degraded_time_ = 0.0;
};

}  // namespace scaa::defense
