#pragma once

/// @file longitudinal.hpp
/// Longitudinal (speed) dynamics with actuator lag and resistive forces.

#include "vehicle/params.hpp"

namespace scaa::vehicle {

/// Integrates vehicle speed from a commanded acceleration.
///
/// The command is the *requested* net acceleration at the wheels (what the
/// ADAS long-control outputs). The realized acceleration follows it through
/// a first-order actuator lag, is clipped to powertrain/brake capability,
/// and then fights aerodynamic drag and rolling resistance. Speed never goes
/// negative (no reverse in any paper scenario).
class LongitudinalDynamics {
 public:
  explicit LongitudinalDynamics(const VehicleParams& params) noexcept
      : params_(params) {}

  /// Advance one step of @p dt seconds with commanded accel @p accel_cmd
  /// [m/s^2] (positive = gas, negative = brake).
  void step(double accel_cmd, double dt) noexcept;

  /// Current speed [m/s].
  double speed() const noexcept { return speed_; }

  /// Realized longitudinal acceleration over the last step [m/s^2].
  double accel() const noexcept { return realized_accel_; }

  /// Reset state (initial speed, zero acceleration).
  void reset(double speed) noexcept;

 private:
  VehicleParams params_;
  double speed_ = 0.0;
  double actuated_accel_ = 0.0;
  double realized_accel_ = 0.0;
};

}  // namespace scaa::vehicle
