#pragma once

/// @file value_corruption.hpp
/// Attack value selection (paper §III-C step 4, Eq. 1-3).
///
/// Two modes:
///  * Fixed (Table III footnote 1): the maximum limits OpenPilot's control
///    software accepts — accel 2.4 m/s^2, brake -4 m/s^2, steering offset
///    0.5 deg. Effective, but the magnitudes are noticeable to the driver
///    and would be rejected by Panda's firmware checks on a real car.
///  * Strategic (footnote 2): values chosen each cycle to stay inside every
///    safety envelope — accel <= 2 m/s^2 AND predicted speed <= 1.1 x
///    cruise (Eq. 2-3 Kalman speed prediction), brake -3.5 m/s^2, steering
///    offset 0.25 deg — so neither the ADAS alerts nor the driver's anomaly
///    thresholds trip.

#include <optional>

#include "adas/kalman.hpp"
#include "attack/strategies.hpp"
#include "util/units.hpp"

namespace scaa::attack {

/// Corruption values applied to outgoing commands this cycle.
struct AttackValues {
  std::optional<double> accel_cmd;  ///< replacement accel [m/s^2]
  std::optional<double> steer_cmd;  ///< replacement road-wheel angle [rad]
};

/// Parameter sets of Table III. `steer` is the steering-command override
/// magnitude: the corrupted STEERING_CONTROL frame carries this constant
/// angle, replacing whatever the ALC wanted. It is at (fixed) or below
/// (strategic) the per-frame delta limit the safety checks verify, so the
/// corruption passes every rate check — yet because the wire value is
/// *replaced*, the lane-keeping controller loses all authority while the
/// attack runs.
struct CorruptionLimits {
  double accel = 2.4;                      ///< [m/s^2]
  double brake = -4.0;                     ///< [m/s^2]
  double steer = units::deg_to_rad(0.5);   ///< [rad] angle override

  /// Fixed-mode limits (OpenPilot software maxima).
  static CorruptionLimits fixed() noexcept { return {}; }

  /// Strategic-mode limits (inside every safety envelope).
  static CorruptionLimits strategic() noexcept {
    return {2.0, -3.5, units::deg_to_rad(0.25)};
  }
};

/// Computes per-cycle corruption values for an active attack.
class ValueCorruption {
 public:
  /// @p strategic enables Eq. 1-3 dynamic value selection within
  /// CorruptionLimits::strategic(); otherwise the fixed() maxima apply.
  explicit ValueCorruption(bool strategic = false) noexcept;

  /// Compute the values for this cycle.
  /// @p decision   strategy output (channels + steering direction)
  /// @p type       the attack type (selects channels)
  /// @p measured_speed the eavesdropped ego speed [m/s]
  /// @p cruise_speed   the eavesdropped set speed [m/s]
  /// @p dt         control period [s]
  AttackValues compute(const ActivationDecision& decision, AttackType type,
                       double measured_speed, double cruise_speed,
                       double dt) noexcept;

  /// Current speed estimate of the attacker's Kalman filter.
  double predicted_speed() const noexcept { return speed_kf_.estimate(); }

 private:
  static constexpr double kKalmanGain = 0.5;  ///< K_t of Eq. 3

  bool strategic_;
  CorruptionLimits limits_;
  adas::ConstantGainKalman speed_kf_{kKalmanGain};
  double last_accel_cmd_ = 0.0;
  bool kf_initialized_ = false;
};

}  // namespace scaa::attack
