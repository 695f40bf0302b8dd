#include "defense/harness.hpp"

#include <algorithm>
#include <cmath>

#include "util/units.hpp"

namespace scaa::defense {

DefenseHarness::DefenseHarness(sim::World& world,
                               InvariantConfig invariant_config,
                               MonitorConfig monitor_config)
    : world_(&world),
      invariant_(invariant_config),
      monitor_(monitor_config),
      inference_(world.message_bus(), 0.9),
      car_control_(world.message_bus()),
      tap_parser_(world.dbc()),
      steer_angle_sig_(&world.dbc().signal(world.dbc().signal_handle(
          "STEERING_CONTROL", can::sig::kSteerAngleCmd))),
      accel_sig_(&world.dbc().signal(world.dbc().signal_handle(
          "GAS_BRAKE_COMMAND", can::sig::kAccelCmd))) {
  world.can().attach_tap([this](const can::CanFrame& frame) {
    const auto* checked = tap_parser_.validate(frame);
    if (checked == nullptr || !checked->checksum_ok) return;
    if (frame.id == can::msg_id::kSteeringControl) {
      wire_steer_ = units::deg_to_rad(steer_angle_sig_->decode(frame.data));
    } else if (frame.id == can::msg_id::kGasBrakeCommand) {
      wire_accel_ = accel_sig_->decode(frame.data);
    }
  });
}

DefenseOutcome DefenseHarness::run(sim::SimulationSummary* summary_out) {
  const double dt = 0.01;
  while (world_->step()) {
    const auto& ego = world_->ego_state();

    InvariantInputs inv;
    inv.intent_accel = car_control_.value().accel;
    inv.intent_steer = car_control_.value().steer_angle;
    inv.wire_accel = wire_accel_;
    inv.wire_steer = wire_steer_;
    inv.measured_accel = ego.accel;
    inv.measured_steer = ego.steer_angle;
    invariant_.update(inv, dt);

    MonitorInputs mon;
    mon.context = inference_.infer(world_->time());
    mon.wire_accel = wire_accel_;
    mon.wire_steer = wire_steer_;
    mon.nominal_steer = std::atan(2.7 * ego.road_curvature);
    // Age of the oldest eavesdropped context input: each latched message
    // is stamped with its publish step (mono_time, 10 ms steps). A lossy
    // or faulted bus starves these latches; the monitor's degraded mode
    // keys off exactly that staleness.
    const double now = world_->time();
    const auto age = [now](msg::MonoTime mono) {
      return now - static_cast<double>(mono) * 0.01;
    };
    mon.context_age = std::max({age(inference_.gps().mono_time),
                                age(inference_.model().mono_time),
                                age(inference_.radar().mono_time)});
    monitor_.update(mon, dt);
  }

  const auto summary = world_->summarize();
  if (summary_out != nullptr) *summary_out = summary;

  DefenseOutcome out;
  out.invariant_alarmed = invariant_.alarmed();
  out.invariant_time = invariant_.alarm_time();
  out.monitor_alarmed = monitor_.alarmed();
  out.monitor_time = monitor_.alarm_time();
  if (summary.attack_activated) {
    if (out.invariant_alarmed &&
        out.invariant_time >= summary.attack_start)
      out.invariant_latency = out.invariant_time - summary.attack_start;
    if (out.monitor_alarmed && out.monitor_time >= summary.attack_start)
      out.monitor_latency = out.monitor_time - summary.attack_start;
  }
  const double first_alarm =
      out.invariant_alarmed
          ? (out.monitor_alarmed
                 ? std::min(out.invariant_time, out.monitor_time)
                 : out.invariant_time)
          : out.monitor_time;
  out.detected_before_hazard =
      (out.invariant_alarmed || out.monitor_alarmed) &&
      (!summary.any_hazard || first_alarm < summary.first_hazard_time);
  out.degraded_entries = monitor_.degraded_entries();
  out.degraded_time = monitor_.degraded_time();
  return out;
}

}  // namespace scaa::defense
