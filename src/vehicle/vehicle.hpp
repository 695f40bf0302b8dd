#pragma once

/// @file vehicle.hpp
/// A complete simulated vehicle: pose integration over road geometry.

#include "geom/frenet.hpp"
#include "geom/vec2.hpp"
#include "road/road.hpp"
#include "vehicle/lateral.hpp"
#include "vehicle/longitudinal.hpp"
#include "vehicle/params.hpp"

namespace scaa::vehicle {

/// Snapshot of the physical state of a vehicle (ground truth).
///
/// The Frenet state (s, d) and the road sample at s (road_heading,
/// road_curvature) are set together, by Vehicle::reset() and
/// Vehicle::refresh_frenet(), so every consumer of the road at the vehicle
/// (lane keeping, the camera, the driver, the defense) reads one lookup.
struct VehicleState {
  geom::Pose pose;           ///< world-frame position + heading
  double speed = 0.0;        ///< [m/s]
  double accel = 0.0;        ///< realized longitudinal accel [m/s^2]
  double steer_angle = 0.0;  ///< actuated road-wheel angle [rad]
  double yaw_rate = 0.0;     ///< [rad/s]
  double s = 0.0;            ///< Frenet arc length along the road [m]
  double d = 0.0;            ///< Frenet lateral offset, +left [m]
  double road_heading = 0.0;    ///< road heading at s [rad]
  double road_curvature = 0.0;  ///< road curvature at s, +left [1/m]
};

/// Actuator command set delivered to a vehicle every control cycle.
struct ActuatorCommand {
  double accel = 0.0;        ///< net longitudinal accel request [m/s^2]
  double steer_angle = 0.0;  ///< road-wheel angle request [rad]
};

/// Integrates a vehicle over a road. Owns its dynamics models; borrows the
/// road (must outlive the vehicle).
class Vehicle {
 public:
  /// Place the vehicle at arc length @p s0, lateral offset @p d0, with the
  /// road's local heading and initial @p speed.
  Vehicle(const road::Road& road, const VehicleParams& params, double s0,
          double d0, double speed);

  /// Re-place the vehicle exactly as the constructor does, reusing the
  /// existing storage: dynamics, Frenet hint, and state end up bit-identical
  /// to a freshly constructed Vehicle. The road is sampled at @p s0 and the
  /// Frenet frame's search is seeded there. No allocation.
  void reset(const road::Road& road, const VehicleParams& params, double s0,
             double d0, double speed);

  /// Advance dynamics and world pose by @p dt seconds under @p cmd. The
  /// Frenet state (s, d and the road sample) still describes the previous
  /// pose until refresh_frenet() — the World integrates every vehicle of a
  /// tick phase first and projects them afterwards, so the projection cost
  /// is timed as a phase of its own.
  void integrate(const ActuatorCommand& cmd, double dt);

  /// Project the current world pose onto the road, seeded with this
  /// vehicle's previous projection, and store its Frenet coordinates with
  /// the road sample at the new s (seeded with the projection's segment).
  void refresh_frenet() noexcept;

  /// Current ground-truth state.
  const VehicleState& state() const noexcept { return state_; }

  /// Physical parameters.
  const VehicleParams& params() const noexcept { return params_; }

 private:
  const road::Road* road_;
  VehicleParams params_;
  LongitudinalDynamics longitudinal_;
  LateralDynamics lateral_;
  geom::FrenetFrame frenet_;
  VehicleState state_;
};

/// Longitudinal gap between two vehicles on the same road, rear bumper of
/// @p lead minus front bumper of @p follower (negative = overlapping).
double bumper_gap(const VehicleState& follower, const VehicleParams& fp,
                  const VehicleState& lead, const VehicleParams& lp) noexcept;

}  // namespace scaa::vehicle
