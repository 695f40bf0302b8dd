#pragma once

/// @file control_invariant.hpp
/// Control-invariant anomaly detection (the defense the paper's §V cites,
/// after Choi et al., CCS'18).
///
/// Idea: the defender holds a nominal model of how the vehicle responds to
/// actuator commands. Each cycle it predicts the next state from the
/// commands on the wire, compares against the measured state, and feeds the
/// residual into a CUSUM accumulator. Corrupted commands move the vehicle
/// exactly as commanded — so command-replacement attacks do NOT show up
/// here directly; what shows up is the *divergence between what the ADAS
/// planner wanted and what the bus carried*. We therefore monitor two
/// residual channels:
///   1. physics residual: wire command vs measured response (detects
///      actuator faults and crude spoofing of sensor values);
///   2. intent residual: ADAS-published carControl vs the command decoded
///      from the CAN bus (detects man-in-the-middle rewrites — the paper's
///      attack — as long as the detector taps both sides).

#include <cstdint>

namespace scaa::defense {

/// Tuning of the invariant detector.
struct InvariantConfig {
  double accel_model_tc = 0.25;   ///< [s] expected actuator lag
  double accel_residual_std = 0.8;   ///< [m/s^2] tolerated physics noise
                                     ///< (covers drag/rolling-resistance
                                     ///< model error while coasting)
  double steer_residual_std = 0.0035;///< [rad] tolerated steering noise
  double intent_accel_tol = 0.15; ///< [m/s^2] carControl vs CAN tolerance
  double intent_steer_tol = 0.0026;  ///< [rad] (~0.15 deg) tolerance
  double cusum_drift = 1.2;       ///< CUSUM drift term (in sigmas)
  double cusum_threshold = 30.0;  ///< alarm threshold (in sigma-steps)
};

/// Per-cycle observations the detector consumes.
struct InvariantInputs {
  // What the ADAS says it commanded (published carControl).
  double intent_accel = 0.0;
  double intent_steer = 0.0;
  // What the CAN bus delivered to the actuators (decoded at the gateway).
  double wire_accel = 0.0;
  double wire_steer = 0.0;
  // Measured vehicle response.
  double measured_accel = 0.0;
  double measured_steer = 0.0;
};

/// CUSUM-based detector over the two residual channels.
class ControlInvariantDetector {
 public:
  explicit ControlInvariantDetector(InvariantConfig config) noexcept
      : config_(config) {}

  /// Feed one cycle; returns true while the alarm is raised.
  bool update(const InvariantInputs& in, double dt) noexcept;

  /// True once the alarm has fired at least once.
  bool alarmed() const noexcept { return alarm_time_ >= 0.0; }

  /// Time (sum of dt) at the first alarm; negative when never.
  double alarm_time() const noexcept { return alarm_time_; }

  /// Current physics CUSUM score (for tests/telemetry).
  double physics_score() const noexcept { return physics_cusum_; }

 private:
  InvariantConfig config_;
  double expected_accel_ = 0.0;  ///< lag-filtered wire command
  double physics_cusum_ = 0.0;
  double intent_cusum_ = 0.0;
  double clock_ = 0.0;
  double alarm_time_ = -1.0;
};

}  // namespace scaa::defense
