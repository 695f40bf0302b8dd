#pragma once

/// @file lateral.hpp
/// Lateral dynamics: kinematic bicycle model with steering actuator limits.

#include "vehicle/params.hpp"

namespace scaa::vehicle {

/// Tracks the actuated road-wheel steering angle and derives yaw rate.
///
/// Kinematic bicycle: yaw_rate = v / L * tan(delta). Valid in the paper's
/// regime (lateral accelerations well under tyre limits at highway speed;
/// the attack steering offsets are fractions of a degree). The actuator
/// applies a first-order lag plus a slew-rate limit and an absolute angle
/// clip — the slew limit is what gives the ~1 s "time before significant
/// path deviation" safety property.
class LateralDynamics {
 public:
  explicit LateralDynamics(const VehicleParams& params) noexcept
      : params_(params) {}

  /// Advance one step: move the actuated angle toward @p steer_cmd [rad].
  void step(double steer_cmd, double dt) noexcept;

  /// Actuated road-wheel angle [rad]; positive steers left.
  double steer_angle() const noexcept { return steer_angle_; }

  /// Yaw rate [rad/s] at the given speed with the current actuated angle.
  double yaw_rate(double speed) const noexcept;

  /// Reset the actuated angle.
  void reset(double steer_angle = 0.0) noexcept { steer_angle_ = steer_angle; }

 private:
  VehicleParams params_;
  double steer_angle_ = 0.0;
};

}  // namespace scaa::vehicle
