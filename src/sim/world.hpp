#pragma once

/// @file world.hpp
/// The closed-loop simulation world (paper Fig. 5): CARLA-substitute
/// physics + OpenPilot-substitute ADAS + driver reaction simulator +
/// attack/fault-injection engine, stepped at 100 Hz for 50 s.

#include <array>
#include <cstddef>
#include <memory>
#include <optional>

#include "adas/controls.hpp"
#include "attack/engine.hpp"
#include "can/bus.hpp"
#include "can/database.hpp"
#include "can/packer.hpp"
#include "driver/driver_model.hpp"
#include "fault/injector.hpp"
#include "msg/bus.hpp"
#include "panda/safety.hpp"
#include "road/builder.hpp"
#include "sensors/camera.hpp"
#include "sensors/gps.hpp"
#include "sensors/radar.hpp"
#include "sim/hazard.hpp"
#include "sim/scenario.hpp"
#include "sim/trace.hpp"
#include "vehicle/vehicle.hpp"

namespace scaa::exp {
class RealtimeExecutor;  // drives the tick phases under a deadline clock
}

namespace scaa::sim {

/// Physical disturbances acting on the Ego (road crown, crosswind,
/// steering stiction) — the execution-side imperfection that, together
/// with perception error, produces the paper's imperfect lane centering.
struct EnvironmentConfig {
  double steer_disturbance_std = 0.0045; ///< [rad] ~0.26 deg stationary std
  double steer_disturbance_tc = 3.0;     ///< [s] OU correlation time
};

/// Everything configurable about one simulation run.
struct WorldConfig {
  Scenario scenario;
  EnvironmentConfig environment;
  bool attack_enabled = false;
  attack::AttackConfig attack;
  bool driver_enabled = true;
  bool panda_enforced = false;  ///< paper: bypassed in the CARLA rig
  std::uint64_t seed = 1;
  double duration = 50.0;  ///< [s] 5000 steps
  double dt = 0.01;        ///< [s] 100 Hz

  /// Immutable world assets, shareable across many Worlds. Campaigns build
  /// the road and DBC once and hand the same instances to thousands of
  /// simulations; when null, the World builds its own private copies.
  std::shared_ptr<const road::Road> road;
  std::shared_ptr<const can::Database> db;

  /// Benign-fault plan (fault/plan.hpp), shared like the assets above.
  /// Null (the default) means no fault injection at all — the simulation
  /// is bit-identical to one built before the fault layer existed.
  std::shared_ptr<const fault::FaultPlan> fault_plan;

  vehicle::VehicleParams ego_params;
  adas::ControlsConfig controls;
  sensors::GpsConfig gps;
  sensors::CameraConfig camera;
  sensors::RadarConfig radar;
  driver::DriverConfig driver;
  SafetyMonitorConfig monitor;
};

/// Outcome summary of one simulation (the unit the campaign aggregates).
struct SimulationSummary {
  // hazards
  bool any_hazard = false;
  attack::HazardClass first_hazard = attack::HazardClass::kNone;
  double first_hazard_time = -1.0;
  bool hazard_h1 = false, hazard_h2 = false, hazard_h3 = false;
  double hazard_h1_time = -1.0, hazard_h2_time = -1.0, hazard_h3_time = -1.0;
  // accidents
  bool any_accident = false;
  AccidentClass first_accident = AccidentClass::kNone;
  double first_accident_time = -1.0;
  bool accident_a1 = false, accident_a2 = false, accident_a3 = false;
  // alerts
  std::uint64_t alert_events = 0;
  std::uint64_t steer_saturated_events = 0;
  std::uint64_t fcw_events = 0;
  bool alert_before_hazard = false;  ///< an alert preceded the first hazard
  // lane invasions
  std::uint64_t lane_invasions = 0;
  double lane_invasion_rate = 0.0;  ///< events per second
  // attack
  bool attack_activated = false;
  double attack_start = -1.0;
  double attack_duration = 0.0;  ///< [s] total time the attack was live
  double tth = -1.0;  ///< first hazard time - attack start; <0 when n/a
  std::uint64_t frames_corrupted = 0;
  // driver
  bool driver_engaged = false;
  double driver_engage_time = -1.0;
  double driver_perception_time = -1.0;
  // bookkeeping
  double sim_end_time = 0.0;
  std::uint64_t can_checksum_rejects = 0;
  std::uint64_t panda_frames_blocked = 0;  ///< only when panda_enforced
  // benign fault injection, indexed by fault::FaultKind (all zero when no
  // fault plan is attached)
  std::array<std::uint64_t, fault::kFaultKindCount> faults_fired{};
  std::array<std::uint64_t, fault::kFaultKindCount> faults_suppressed{};
};

/// The world. Lifecycle: construct, run() once, then reset() to re-arm the
/// same instance for the next simulation — a reset World is bit-identical
/// to a freshly constructed one, but performs zero heap allocations, and
/// its bus wiring persists. Campaign runners construct a fresh World per
/// item. A
/// second run() without an intervening reset() throws. Past its first few
/// ticks (which warm lazily sized buffers), no tick touches the heap.
class World {
 public:
  explicit World(WorldConfig config);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Re-initialize in place for a new simulation under @p config, ending
  /// in exactly the state a freshly constructed World(config) would have:
  /// RNG streams re-forked from config.seed, every subsystem re-armed.
  /// Bus wiring (subscriptions, taps, interceptors, the CAN gateway)
  /// persists across reset — which is why the eavesdropping surface
  /// survives it — and nothing allocates in steady state. @p config may
  /// carry a different shared road; the shared CAN database, however, must
  /// be the instance the World was constructed against (or null to keep
  /// it): the codec handles and the attacker's recon are wired to it, so a
  /// different database throws std::invalid_argument.
  void reset(const WorldConfig& config);

  /// Run to completion (or first accident). Pass a trace to record steps.
  /// Throws std::logic_error on a second run() without reset().
  SimulationSummary run(Trace* trace = nullptr);

  /// Advance a single step; returns false when the simulation is over.
  /// (Exposed for incremental inspection in tests/examples.)
  bool step();

  /// True once the simulation reached its end (terminal accident or
  /// configured duration).
  bool finished() const noexcept { return finished_; }

  /// --- state access (valid between construction and end of run) ---
  double time() const noexcept { return time_; }
  const vehicle::VehicleState& ego_state() const noexcept;
  const road::Road& road() const noexcept { return *road_; }
  const SafetyMonitor& monitor() const noexcept { return *monitor_; }
  const adas::Controls& controls() const noexcept { return *controls_; }
  const attack::AttackEngine* attack_engine() const noexcept {
    // The engine object is always resident (shape-invariant construction,
    // so reset() never allocates), but it is only part of the simulation
    // when the config enables it — observers see null otherwise.
    return config_.attack_enabled ? attack_engine_.get() : nullptr;
  }
  const driver::DriverModel& driver_model() const noexcept { return *driver_; }

  /// Summary from the current state (final after run()).
  SimulationSummary summarize() const;

  /// The in-process messaging bus — exposed because it IS the attack
  /// surface: anything may subscribe (see examples/eavesdropper.cpp).
  msg::PubSubBus& message_bus() noexcept { return msg_bus_; }

  /// The CAN bus, likewise exposed for taps/interceptors.
  can::CanBus& can() noexcept { return can_bus_; }

  /// The DBC database of the simulated car.
  const can::Database& dbc() const noexcept { return *db_; }

 private:
  // The realtime executor runs the exact step() phase sequence with a
  // timestamp at each boundary (exp/realtime.hpp); it feeds no clock value
  // into any phase, so its runs stay bit-identical to free-running ones.
  friend class exp::RealtimeExecutor;

  void publish_sensors();
  void record(Trace* trace, const vehicle::ActuatorCommand& cmd);

  /// step() decomposed into phases so the realtime executor can timestamp
  /// each boundary. Contract: begin_tick -> project_traffic -> mid_tick ->
  /// project_ego -> end_tick, with end_tick returning step()'s "still
  /// running" result. begin_tick integrates the traffic vehicles and
  /// mid_tick the Ego; each project_* phase then refreshes the Frenet state
  /// (s, d and the road sample at s) of the vehicles the preceding phase
  /// moved. So every road query of a tick reads a vehicle's state as of
  /// its last projection: the traffic laws in begin_tick and the camera
  /// and driver in mid_tick see the Ego's road sample at its pre-step s.
  void begin_tick();
  void project_traffic();
  void mid_tick();
  void project_ego();
  bool end_tick();

  /// Shared tail of construction and reset(): re-derive every piece of
  /// simulation state from config_ alone, allocation-free. Fresh and reset
  /// worlds are bit-identical because both end in this exact code path.
  void reset_in_place();

  WorldConfig config_;
  std::shared_ptr<const road::Road> road_;  ///< shared or privately owned
  std::shared_ptr<const can::Database> db_;

  msg::PubSubBus msg_bus_;
  can::CanBus can_bus_;

  std::unique_ptr<vehicle::Vehicle> ego_;
  std::unique_ptr<vehicle::Vehicle> lead_;
  std::unique_ptr<vehicle::Vehicle> trailing_;
  std::unique_ptr<vehicle::Vehicle> neighbor_;

  std::unique_ptr<sensors::GpsModel> gps_;
  std::unique_ptr<sensors::CameraLaneModel> camera_;
  std::unique_ptr<sensors::RadarModel> radar_;

  std::unique_ptr<adas::Controls> controls_;
  std::unique_ptr<attack::AttackEngine> attack_engine_;
  std::unique_ptr<panda::PandaSafety> panda_;
  std::unique_ptr<driver::DriverModel> driver_;
  std::unique_ptr<SafetyMonitor> monitor_;
  std::unique_ptr<can::CanParser> gateway_parser_;

  // All four vehicles and the attack engine are always constructed (the
  // shape-invariant layout reset() relies on); these flags say which ones
  // the current scenario actually simulates.
  bool has_trailing_ = false;
  bool has_neighbor_ = false;
  std::uint64_t panda_attach_id_ = 0;  ///< interceptor id while panda_ lives

  // Latest decoded actuator commands at the "car gateway".
  double gateway_accel_cmd_ = 0.0;
  double gateway_steer_cmd_ = 0.0;
  std::uint64_t gateway_rejects_ = 0;
  std::size_t camera_lane_ = 0;  ///< lane the camera is currently locked to

  // Resolved once: the gateway checks each frame's integrity and decodes
  // the one signal it reads (allocation-free). Borrowed from the database.
  const can::DbcSignal* gateway_steer_sig_ = nullptr;
  const can::DbcSignal* gateway_accel_sig_ = nullptr;

  // Constant lane geometry, hoisted out of the step loop.
  double lane0_center_ = 0.0;
  double lane1_center_ = 0.0;

  util::Rng env_rng_{0};
  double steer_disturbance_ = 0.0;

  // Benign-fault execution (by value: fixed inline state, so the
  // zero-alloc lifecycle holds with a plan attached). Inert without one.
  fault::FaultInjector fault_injector_;

  double time_ = 0.0;
  std::uint64_t step_index_ = 0;
  bool finished_ = false;
  bool ran_ = false;  ///< run() consumed; reset() re-arms
  bool driver_was_engaged_ = false;
  std::uint64_t last_alert_events_ = 0;
  bool alert_seen_before_hazard_ = false;
};

}  // namespace scaa::sim
