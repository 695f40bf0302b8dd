#include "vehicle/vehicle.hpp"

#include "util/math.hpp"

namespace scaa::vehicle {

Vehicle::Vehicle(const road::Road& road, const VehicleParams& params,
                 double s0, double d0, double speed)
    : road_(&road),
      params_(params),
      longitudinal_(params),
      lateral_(params),
      frenet_(road.reference()) {
  reset(road, params, s0, d0, speed);
}

void Vehicle::reset(const road::Road& road, const VehicleParams& params,
                    double s0, double d0, double speed) {
  // Exactly the constructor's initialization, expressed as assignments so
  // a resident Vehicle can be re-placed without reallocating. The dynamics
  // models and the Frenet frame are plain value types; state_ is rebuilt
  // from scratch so no field of a previous simulation leaks through.
  road_ = &road;
  params_ = params;
  longitudinal_ = LongitudinalDynamics(params);
  lateral_ = LateralDynamics(params);
  frenet_ = geom::FrenetFrame(road.reference(), s0);
  longitudinal_.reset(speed);
  const auto sample = road.sample(s0, geom::Polyline::kNoSegmentHint);
  state_ = VehicleState{};
  state_.pose.position = frenet_.to_world({s0, d0});
  state_.pose.heading = sample.heading;
  state_.speed = speed;
  state_.s = s0;
  state_.d = d0;
  state_.road_heading = sample.heading;
  state_.road_curvature = sample.curvature;
}

void Vehicle::integrate(const ActuatorCommand& cmd, double dt) {
  longitudinal_.step(cmd.accel, dt);
  lateral_.step(cmd.steer_angle, dt);

  const double speed = longitudinal_.speed();
  const double yaw_rate = lateral_.yaw_rate(speed);

  // Midpoint integration of the unicycle pose: accurate to O(dt^2) which is
  // ample at 10 ms steps and highway curvatures.
  const double mid_heading = state_.pose.heading + 0.5 * yaw_rate * dt;
  state_.pose.position += geom::heading_vector(mid_heading) * (speed * dt);
  state_.pose.heading =
      math::wrap_angle(state_.pose.heading + yaw_rate * dt);

  state_.speed = speed;
  state_.accel = longitudinal_.accel();
  state_.steer_angle = lateral_.steer_angle();
  state_.yaw_rate = yaw_rate;
}

void Vehicle::refresh_frenet() noexcept {
  const auto f = frenet_.to_frenet(state_.pose.position);
  const auto sample = road_->sample(f.s, frenet_.hint_segment());
  state_.s = f.s;
  state_.d = f.d;
  state_.road_heading = sample.heading;
  state_.road_curvature = sample.curvature;
}

double bumper_gap(const VehicleState& follower, const VehicleParams& fp,
                  const VehicleState& lead, const VehicleParams& lp) noexcept {
  return (lead.s - 0.5 * lp.length) - (follower.s + 0.5 * fp.length);
}

}  // namespace scaa::vehicle
