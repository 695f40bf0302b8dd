#pragma once

/// @file controls.hpp
/// The 100 Hz control daemon ("controlsd"): glues perception, planning,
/// control, safety and alerting together, and encodes actuator commands
/// onto the CAN bus.

#include <cstdint>
#include <memory>
#include <vector>

#include "adas/alerts.hpp"
#include "adas/lateral_planner.hpp"
#include "adas/lead_tracker.hpp"
#include "adas/long_control.hpp"
#include "adas/longitudinal_planner.hpp"
#include "adas/safety_model.hpp"
#include "adas/torque_controller.hpp"
#include "can/bus.hpp"
#include "can/packer.hpp"
#include "msg/bus.hpp"

namespace scaa::adas {

/// Aggregate configuration of the control stack.
struct ControlsConfig {
  AccConfig acc;
  LateralPlannerConfig lateral;
  SteerConfig steer;
  LongControlConfig longitudinal;
  SafetyLimits limits;
  double cruise_speed = 26.82;  ///< [m/s] = 60 mph set speed
};

/// One control cycle's externally visible outputs (for the world loop and
/// for tests).
struct ControlsOutput {
  double accel_cmd = 0.0;       ///< [m/s^2] post-safety-clamp
  double steer_angle_cmd = 0.0; ///< [rad]
  AlertKind alert = AlertKind::kNone;
  bool engaged = false;
};

/// The control stack. Consumes sensor messages from the pub/sub bus,
/// publishes carControl/controlsState, and emits STEERING_CONTROL and
/// GAS_BRAKE_COMMAND frames on the CAN bus every cycle.
class Controls {
 public:
  /// All dependencies are borrowed and must outlive the Controls instance.
  /// @p rng seeds the lateral planner's path-prediction wander.
  Controls(msg::PubSubBus& bus, can::CanBus& can_bus,
           const can::Database& db, ControlsConfig config,
           const vehicle::VehicleParams& params, util::Rng rng);

  /// Re-initialize the whole control stack for a new simulation on the
  /// same buses, bit-identical to fresh construction. The bus
  /// subscriptions stay attached (their latches are cleared); the
  /// precompiled CAN codec handles are reused — and therefore the reset is
  /// allocation-free — as long as @p db is the database the stack was
  /// last wired against. A different database re-resolves the handles
  /// (the only allocating path; World::reset always keeps its db).
  void reset(const can::Database& db, ControlsConfig config,
             const vehicle::VehicleParams& params, util::Rng rng);

  /// Run one 100 Hz cycle. @p step_index stamps outgoing messages.
  ControlsOutput step(std::uint64_t step_index, double dt);

  /// Engage/disengage the ADAS (cruise main switch).
  void set_engaged(bool engaged) noexcept { engaged_ = engaged; }
  bool engaged() const noexcept { return engaged_; }

  /// Alert statistics.
  const AlertManager& alerts() const noexcept { return alert_manager_; }

  /// Component access for white-box tests.
  const LeadTracker& lead_tracker() const noexcept { return lead_tracker_; }
  const LateralPlanner& lateral_planner() const noexcept { return lateral_planner_; }
  const ControlsConfig& config() const noexcept { return config_; }

 private:
  msg::PubSubBus* bus_;
  can::CanBus* can_bus_;
  const can::Database* db_;  ///< database the codec handles resolve against
  ControlsConfig config_;

  msg::Latest<msg::ModelV2> model_;
  msg::Latest<msg::RadarState> radar_;
  msg::Latest<msg::CarState> car_state_;

  LeadTracker lead_tracker_;
  LateralPlanner lateral_planner_;
  LongitudinalPlanner longitudinal_planner_;
  TorqueController torque_controller_;
  LongControl long_control_;
  AlertManager alert_manager_;
  can::CanPacker packer_;

  // CAN codec handles, resolved once at construction so the 100 Hz step
  // packs through the allocation-free precompiled path. The value buffers
  // are sized from the database schema (and preallocated here), so extra
  // signals in a message stay unset/raw-zero rather than being a failure.
  can::MessageHandle steering_msg_;
  can::MessageHandle gas_brake_msg_;
  can::SignalHandle steer_angle_sig_;
  can::SignalHandle steer_enabled_sig_;
  can::SignalHandle accel_sig_;
  can::SignalHandle brake_request_sig_;
  std::vector<double> steering_values_;
  std::vector<double> gas_brake_values_;

  std::uint64_t last_radar_seq_ = 0;
  std::uint64_t last_model_seq_ = 0;
  bool engaged_ = true;
};

}  // namespace scaa::adas
