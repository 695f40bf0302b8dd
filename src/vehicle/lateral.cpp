#include "vehicle/lateral.hpp"

#include <cmath>

#include "util/math.hpp"

namespace scaa::vehicle {

void LateralDynamics::step(double steer_cmd, double dt) noexcept {
  const double clipped =
      math::clamp(steer_cmd, -params_.max_steer_angle, params_.max_steer_angle);
  // First-order lag toward the command…
  const double alpha = dt / (params_.steer_time_constant + dt);
  double target = math::lowpass(steer_angle_, clipped, alpha);
  // …bounded by the actuator slew rate.
  steer_angle_ =
      math::rate_limit(steer_angle_, target, params_.max_steer_rate * dt);
}

double LateralDynamics::yaw_rate(double speed) const noexcept {
  return speed / params_.wheelbase * std::tan(steer_angle_);
}

}  // namespace scaa::vehicle
