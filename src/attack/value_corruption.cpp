#include "attack/value_corruption.hpp"

#include <algorithm>

#include "util/math.hpp"

namespace scaa::attack {

ValueCorruption::ValueCorruption(bool strategic) noexcept
    : strategic_(strategic),
      limits_(strategic ? CorruptionLimits::strategic()
                        : CorruptionLimits::fixed()) {}

AttackValues ValueCorruption::compute(const ActivationDecision& decision,
                                      AttackType type, double measured_speed,
                                      double cruise_speed, double dt) noexcept {
  AttackValues values;

  // Maintain the speed prediction every cycle, active or not, so the
  // estimate is warm when the attack fires (Eq. 2-3).
  if (!kf_initialized_) {
    speed_kf_.reset(measured_speed);
    kf_initialized_ = true;
  } else {
    const double predicted = speed_kf_.predict(last_accel_cmd_, dt);
    speed_kf_.update(predicted, measured_speed);
  }
  last_accel_cmd_ = 0.0;

  if (!decision.active) return values;

  const AttackChannels ch = channels_of(type);

  if (ch.accel) {
    double accel = limits_.accel;
    if (strategic_) {
      // Eq. 1 speed constraint: v̂_{t+1} = v̂_t + a*dt <= 1.1 * v_cruise.
      const double headroom =
          (1.1 * cruise_speed - speed_kf_.estimate()) / dt;
      accel = math::clamp(headroom, 0.0, limits_.accel);
    }
    values.accel_cmd = accel;
    last_accel_cmd_ = accel;
  }
  if (ch.brake) {
    values.accel_cmd = limits_.brake;
    last_accel_cmd_ = limits_.brake;
  }
  if (ch.steer && decision.steer_direction != 0) {
    values.steer_cmd =
        static_cast<double>(decision.steer_direction) * limits_.steer;
  }
  return values;
}

}  // namespace scaa::attack
