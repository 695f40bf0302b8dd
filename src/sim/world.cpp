#include "sim/world.hpp"

#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "util/math.hpp"
#include "util/units.hpp"

namespace scaa::sim {

namespace {

/// Lane-tracking steering for scripted (non-ADAS) traffic: curvature
/// feed-forward plus P on lateral offset and heading error, from the road
/// sample in the vehicle's Frenet state. These vehicles are ideal drivers —
/// all interesting imperfection lives in the Ego stack.
double tracking_steer(const vehicle::VehicleState& state,
                      double lane_center_d, double wheelbase) {
  const double kp_offset = 0.015;
  const double kp_heading = 0.8;
  const double heading_err =
      math::wrap_angle(state.road_heading - state.pose.heading);
  const double curvature = state.road_curvature +
                           kp_offset * (lane_center_d - state.d) +
                           kp_heading * heading_err * 0.05;
  return std::atan(wheelbase * curvature);
}

/// Speed-profile acceleration for the scripted lead.
double lead_accel(const LeadProfile& profile, double time, double speed) {
  const double target =
      time < profile.change_start ? profile.initial_speed : profile.target_speed;
  const double err = target - speed;
  return math::clamp(2.0 * err, -profile.change_rate, profile.change_rate);
}

/// Trailing-traffic car-following law (attentive human: tighter headway
/// than ACC, harder braking authority).
double trailing_accel(double gap, double own_speed, double ego_speed) {
  const double desired_gap = 4.0 + 1.5 * own_speed;
  const double accel =
      0.15 * (gap - desired_gap) + 0.8 * (ego_speed - own_speed);
  return math::clamp(accel, -8.0, 2.0);
}

}  // namespace

World::World(WorldConfig config)
    : config_(std::move(config)),
      road_(config_.road ? config_.road
                         : std::make_shared<const road::Road>(
                               road::RoadBuilder::paper_road())),
      db_(config_.db ? config_.db
                     : std::make_shared<const can::Database>(
                           can::Database::simulated_car())) {
  // Construction only allocates and wires; all simulation state comes from
  // reset_in_place() below, the same code path reset() runs — which is what
  // makes a reset World bit-identical to a fresh one.
  //
  // The layout is shape-invariant: every vehicle and the attack engine are
  // always constructed, whatever the scenario/attack flags say, so reset()
  // can re-target this instance to any campaign item without touching the
  // heap. Placement arguments here are placeholders.
  const road::Road& road = *road_;
  const can::Database& db = *db_;

  // --- actors -----------------------------------------------------------
  ego_ = std::make_unique<vehicle::Vehicle>(road, config_.ego_params, 0.0,
                                            0.0, 0.0);
  lead_ = std::make_unique<vehicle::Vehicle>(road, config_.ego_params, 0.0,
                                             0.0, 0.0);
  trailing_ = std::make_unique<vehicle::Vehicle>(road, config_.ego_params,
                                                 0.0, 0.0, 0.0);
  neighbor_ = std::make_unique<vehicle::Vehicle>(road, config_.ego_params,
                                                 0.0, 0.0, 0.0);

  // --- sensors -----------------------------------------------------------
  gps_ = std::make_unique<sensors::GpsModel>(msg_bus_, config_.gps,
                                             util::Rng(0));
  camera_ = std::make_unique<sensors::CameraLaneModel>(
      msg_bus_, road, config_.camera, util::Rng(0));
  radar_ = std::make_unique<sensors::RadarModel>(msg_bus_, config_.radar,
                                                 util::Rng(0));

  // --- benign-fault hooks -------------------------------------------------
  // Wiring only (like taps, it survives reset); the injector self-gates,
  // and the bus additionally skips its hook entirely for plan-free runs.
  can_bus_.set_fault_hook([this](can::CanFrame& frame) {
    return fault_injector_.on_can_frame(frame);
  });
  gps_->set_fault_hook([this](msg::GpsLocationExternal& fix) {
    return fault_injector_.on_gps(fix);
  });
  camera_->set_fault_hook([this](msg::ModelV2& model) {
    return fault_injector_.on_camera(model);
  });
  radar_->set_fault_hook([this](msg::RadarState& state) {
    return fault_injector_.on_radar(state);
  });

  // --- car gateway: decodes command frames into actuator requests --------
  // Handles resolved here, once; the receiver then decodes every frame
  // through the flat path (no heap, no string keys) at 100 Hz.
  gateway_parser_ = std::make_unique<can::CanParser>(db);
  gateway_steer_sig_ = &db.signal(
      db.signal_handle("STEERING_CONTROL", can::sig::kSteerAngleCmd));
  gateway_accel_sig_ = &db.signal(
      db.signal_handle("GAS_BRAKE_COMMAND", can::sig::kAccelCmd));
  can_bus_.attach_receiver([this](const can::CanFrame& frame) {
    const auto* checked = gateway_parser_->validate(frame);
    if (checked == nullptr) return;
    if (!checked->checksum_ok) {
      ++gateway_rejects_;
      return;  // the actuator ECU discards tampered frames
    }
    if (frame.id == can::msg_id::kSteeringControl) {
      gateway_steer_cmd_ =
          units::deg_to_rad(gateway_steer_sig_->decode(frame.data));
    } else if (frame.id == can::msg_id::kGasBrakeCommand) {
      gateway_accel_cmd_ = gateway_accel_sig_->decode(frame.data);
    }
  });

  // --- attack engine (interceptor attaches before... see note below) -----
  // CanBus runs interceptors in attachment order; attaching the attacker
  // here places it between the ADAS (sender) and the gateway (receiver),
  // i.e. at the OBD-II position, after OpenPilot's in-process checks.
  // Always attached: with the attack disabled the engine never steps and
  // its interceptor passes every frame through untouched.
  attack_engine_ = std::make_unique<attack::AttackEngine>(
      config_.attack, msg_bus_, can_bus_, db,
      config_.ego_params.half_width(), util::Rng(0));

  // --- optional Panda firmware enforcement --------------------------------
  // The paper's CARLA rig bypasses Panda; enable panda_enforced to study
  // what the firmware checks would have blocked. Attached after the
  // attacker, it polices the frames the actuators actually receive.
  if (config_.panda_enforced) {
    panda_ = std::make_unique<panda::PandaSafety>(db, panda::PandaLimits{});
    panda_attach_id_ = panda_->attach(can_bus_);
  }

  // --- ADAS ----------------------------------------------------------------
  adas::ControlsConfig cc = config_.controls;
  cc.cruise_speed = config_.scenario.cruise_speed;
  controls_ = std::make_unique<adas::Controls>(msg_bus_, can_bus_, db, cc,
                                               config_.ego_params,
                                               util::Rng(0));

  // --- driver & monitor ----------------------------------------------------
  driver_ = std::make_unique<driver::DriverModel>(
      config_.driver, config_.ego_params.wheelbase);
  monitor_ = std::make_unique<SafetyMonitor>(road, config_.monitor,
                                             /*ego_lane=*/0);

  reset_in_place();
}

World::~World() = default;

void World::reset(const WorldConfig& config) {
  if (config.db && config.db != db_) {
    throw std::invalid_argument(
        "World::reset: the CAN database must stay the same instance across "
        "reset (codec handles and bus wiring are resolved against it); "
        "pass a null db to keep the current one");
  }
  std::shared_ptr<const road::Road> road = config.road ? config.road : road_;
  std::shared_ptr<const can::Database> db = db_;
  config_ = config;
  road_ = std::move(road);
  db_ = std::move(db);

  // Panda is the one genuinely optional node: toggle its interceptor to
  // match the new config (the only reset path that may touch the heap).
  if (config_.panda_enforced && !panda_) {
    panda_ = std::make_unique<panda::PandaSafety>(*db_, panda::PandaLimits{});
    panda_attach_id_ = panda_->attach(can_bus_);
  } else if (!config_.panda_enforced && panda_) {
    can_bus_.detach(panda_attach_id_);
    panda_attach_id_ = 0;
    panda_.reset();
  }

  reset_in_place();
}

void World::reset_in_place() {
  const road::Road& road = *road_;
  const auto& profile = road.profile();
  lane0_center_ = profile.lane_center(0);
  lane1_center_ = profile.lane_center(1);
  util::Rng rng(config_.seed);

  // --- actors -----------------------------------------------------------
  // Ego starts in the right lane (lane 0, nearer the right guardrail).
  const double ego_s0 = 30.0;
  ego_->reset(road, config_.ego_params, ego_s0, lane0_center_,
              config_.scenario.ego_speed);

  const vehicle::VehicleParams traffic_params = config_.ego_params;
  const double lead_s0 = ego_s0 + config_.scenario.initial_gap +
                         config_.ego_params.length;  // bumper gap -> centers
  lead_->reset(road, traffic_params, lead_s0, lane0_center_,
               config_.scenario.lead.initial_speed);

  has_trailing_ = config_.scenario.with_trailing;
  has_neighbor_ = config_.scenario.with_neighbor;
  trailing_->reset(
      road, traffic_params,
      ego_s0 - config_.scenario.trailing_gap - config_.ego_params.length,
      lane0_center_, config_.scenario.ego_speed);
  neighbor_->reset(road, traffic_params,
                   ego_s0 + config_.scenario.neighbor_offset, lane1_center_,
                   config_.scenario.ego_speed);

  // --- buses --------------------------------------------------------------
  // Sequence/frame counters restart; subscriptions, taps, interceptors and
  // the gateway receiver keep their wiring (the eavesdropping surface).
  msg_bus_.reset();
  can_bus_.reset_counters();

  // --- sensors ------------------------------------------------------------
  gps_->reset(config_.gps, rng.fork(11));
  camera_->reset(road, config_.camera, rng.fork(12));
  radar_->reset(config_.radar, rng.fork(13));

  // --- car gateway --------------------------------------------------------
  gateway_parser_->reset();
  gateway_accel_cmd_ = 0.0;
  gateway_steer_cmd_ = 0.0;
  gateway_rejects_ = 0;
  camera_lane_ = 0;

  // --- attack engine & Panda ---------------------------------------------
  attack_engine_->reset(config_.attack, config_.ego_params.half_width(),
                        rng.fork(14));
  if (panda_) panda_->reset();

  // --- ADAS ---------------------------------------------------------------
  adas::ControlsConfig cc = config_.controls;
  cc.cruise_speed = config_.scenario.cruise_speed;
  controls_->reset(*db_, cc, config_.ego_params, rng.fork(16));

  // --- environment disturbance stream --------------------------------------
  env_rng_ = rng.fork(15);
  steer_disturbance_ = 0.0;

  // --- benign-fault injection ----------------------------------------------
  // Stream 17 (next free id after controls = 16) is forked unconditionally:
  // fork() is const on the parent, so a plan-free world draws exactly the
  // streams it did before the fault layer existed — baseline bit-identity
  // is structural.
  fault_injector_.reset(config_.fault_plan, rng.fork(17));
  can_bus_.set_fault_active(fault_injector_.active());

  // --- driver & monitor ----------------------------------------------------
  *driver_ = driver::DriverModel(config_.driver, config_.ego_params.wheelbase);
  *monitor_ = SafetyMonitor(road, config_.monitor, /*ego_lane=*/0);

  // --- tick bookkeeping -----------------------------------------------------
  time_ = 0.0;
  step_index_ = 0;
  finished_ = false;
  ran_ = false;
  driver_was_engaged_ = false;
  last_alert_events_ = 0;
  alert_seen_before_hazard_ = false;
}

const vehicle::VehicleState& World::ego_state() const noexcept {
  return ego_->state();
}

void World::begin_tick() {
  const double dt = config_.dt;
  const auto wheelbase = config_.ego_params.wheelbase;

  // Every command below reads only pre-step state (the trailing and
  // neighbor laws follow the Ego, which steps later in the tick), so all
  // the traffic integrates first and project_traffic refreshes its Frenet
  // state afterwards.
  {
    vehicle::ActuatorCommand cmd;
    cmd.accel = lead_accel(config_.scenario.lead, time_, lead_->state().speed);
    cmd.steer_angle = tracking_steer(lead_->state(), lane0_center_, wheelbase);
    lead_->integrate(cmd, dt);
  }
  if (has_trailing_) {
    const double gap =
        vehicle::bumper_gap(trailing_->state(), trailing_->params(),
                            ego_->state(), ego_->params());
    vehicle::ActuatorCommand cmd;
    cmd.accel =
        trailing_accel(gap, trailing_->state().speed, ego_->state().speed);
    cmd.steer_angle =
        tracking_steer(trailing_->state(), lane0_center_, wheelbase);
    trailing_->integrate(cmd, dt);
  }
  if (has_neighbor_) {
    // The neighbor moves with the flow around the Ego (platooning traffic),
    // holding its initial longitudinal offset — so the left lane stays
    // occupied when a steering attack pushes the Ego into it.
    const double desired_s =
        ego_->state().s + config_.scenario.neighbor_offset;
    vehicle::ActuatorCommand cmd;
    cmd.accel = math::clamp(
        0.6 * (ego_->state().speed - neighbor_->state().speed) +
            0.05 * (desired_s - neighbor_->state().s),
        -4.0, 2.0);
    cmd.steer_angle =
        tracking_steer(neighbor_->state(), lane1_center_, wheelbase);
    neighbor_->integrate(cmd, dt);
  }
}

void World::project_traffic() {
  lead_->refresh_frenet();
  if (has_trailing_) trailing_->refresh_frenet();
  if (has_neighbor_) neighbor_->refresh_frenet();
}

void World::publish_sensors() {
  const auto& ego = ego_->state();
  gps_->step(step_index_, ego);

  // The camera anchors to whatever lane the car currently occupies (lane
  // re-lock after a departure), holding the last lane when off-road.
  const int lane_now = road_->lane_at(ego.d);
  if (lane_now >= 0) camera_lane_ = static_cast<std::size_t>(lane_now);
  camera_->step(step_index_, ego, camera_lane_);

  std::optional<sensors::RadarModel::LeadTruth> lead_truth;
  if (lead_) {
    sensors::RadarModel::LeadTruth t;
    t.gap = vehicle::bumper_gap(ego, ego_->params(), lead_->state(),
                                lead_->params());
    t.rel_speed = lead_->state().speed - ego.speed;
    t.lead_speed = lead_->state().speed;
    t.lateral_offset = lead_->state().d - ego.d;
    lead_truth = t;
  }
  radar_->step(step_index_, lead_truth);

  msg::CarState cs;
  cs.mono_time = step_index_;
  cs.speed = ego.speed;
  cs.accel = ego.accel;
  cs.steer_angle = ego.steer_angle;
  cs.cruise_speed = config_.scenario.cruise_speed;
  cs.cruise_enabled = controls_ ? controls_->engaged() : true;
  msg_bus_.publish(cs);
}

void World::mid_tick() {
  // Benign-fault phase: stamp the tick time for activation windows and
  // deliver CAN frames whose injected delay expires this tick — before the
  // sensors publish and the ECU steps, so a frame delayed N ticks is seen
  // exactly N ticks late by every consumer. Gated: plan-free worlds take
  // their historical path untouched.
  if (fault_injector_.active()) {
    fault_injector_.begin_tick(time_);
    can_bus_.pump_delayed(step_index_);
  }

  publish_sensors();

  if (config_.attack_enabled) attack_engine_->step(time_, config_.dt);

  // An ECU stall fault silences the controls for this tick: no planner
  // update, no command frames on the bus (the gateway holds its last
  // actuator values — exactly what a real stalled ECU looks like).
  if (!fault_injector_.ecu_stalled()) controls_->step(step_index_, config_.dt);

  // Driver observation & possible takeover. The driver judges the commands
  // the car is executing (pedal/wheel positions) and the physical motion.
  const vehicle::VehicleState& ego = ego_->state();
  driver::DriverObservation obs;
  obs.adas_alert = controls_->alerts().any_active();
  obs.accel_cmd = gateway_accel_cmd_;
  obs.steer_cmd = gateway_steer_cmd_;
  obs.nominal_steer =
      std::atan(config_.ego_params.wheelbase * ego.road_curvature);
  obs.speed = ego.speed;
  obs.cruise_speed = config_.scenario.cruise_speed;
  obs.center_offset = ego.d - lane0_center_;
  obs.heading_error = math::wrap_angle(ego.road_heading - ego.pose.heading);
  obs.road_curvature = ego.road_curvature;
  if (lead_) {
    const double gap = vehicle::bumper_gap(ego, ego_->params(),
                                           lead_->state(), lead_->params());
    obs.lead_visible = gap > 0.0 && gap < 150.0;
    obs.lead_gap = gap;
    obs.lead_rel_speed = lead_->state().speed - ego.speed;
  }

  std::optional<vehicle::ActuatorCommand> driver_cmd;
  if (config_.driver_enabled)
    driver_cmd = driver_->step(obs, time_, config_.dt);

  if (driver_->engaged() && !driver_was_engaged_) {
    driver_was_engaged_ = true;
    // The attacker learns of the takeover from the next carState.
    controls_->set_engaged(false);
  }

  // Physical steering disturbance (Ornstein-Uhlenbeck): road crown and
  // crosswind act on whoever is steering, ADAS or human.
  {
    const double tc = config_.environment.steer_disturbance_tc;
    const double sd = config_.environment.steer_disturbance_std;
    const double theta = 1.0 / tc;
    steer_disturbance_ +=
        -theta * steer_disturbance_ * config_.dt +
        env_rng_.gaussian(0.0, sd * std::sqrt(2.0 * theta * config_.dt));
  }

  vehicle::ActuatorCommand ego_cmd{gateway_accel_cmd_, gateway_steer_cmd_};
  if (driver_cmd.has_value()) ego_cmd = *driver_cmd;
  ego_cmd.steer_angle += steer_disturbance_;
  ego_->integrate(ego_cmd, config_.dt);
}

void World::project_ego() { ego_->refresh_frenet(); }

bool World::end_tick() {
  // Safety monitoring on the post-step state.
  MonitorInputs mi;
  mi.time = time_;
  mi.ego = ego_->state();
  mi.ego_params = &ego_->params();
  if (lead_) {
    mi.lead = lead_->state();
    mi.lead_params = &lead_->params();
  }
  if (has_trailing_) {
    mi.trailing = trailing_->state();
    mi.trailing_params = &trailing_->params();
  }
  if (has_neighbor_) {
    mi.neighbor = neighbor_->state();
    mi.neighbor_params = &neighbor_->params();
  }
  mi.cruise_speed = config_.scenario.cruise_speed;
  const bool terminal_accident = monitor_->update(mi);

  // Alert-before-hazard bookkeeping.
  const std::uint64_t alert_events = controls_->alerts().total_events();
  if (alert_events > last_alert_events_ && !monitor_->any_hazard())
    alert_seen_before_hazard_ = true;
  last_alert_events_ = alert_events;

  time_ += config_.dt;
  ++step_index_;
  if (terminal_accident || time_ >= config_.duration) finished_ = true;
  return !finished_;
}

bool World::step() {
  if (finished_) return false;
  begin_tick();
  project_traffic();
  mid_tick();
  project_ego();
  return end_tick();
}

void World::record(Trace* trace, const vehicle::ActuatorCommand& cmd) {
  if (trace == nullptr) return;
  const auto& profile = road_->profile();
  TraceRow row;
  row.time = time_;
  row.ego_s = ego_->state().s;
  row.ego_d = ego_->state().d;
  row.ego_speed = ego_->state().speed;
  row.ego_accel = ego_->state().accel;
  row.ego_steer = ego_->state().steer_angle;
  row.lane_center = profile.lane_center(0);
  row.lane_left = profile.lane_left_edge(0);
  row.lane_right = profile.lane_right_edge(0);
  row.lead_gap = lead_ ? vehicle::bumper_gap(ego_->state(), ego_->params(),
                                             lead_->state(), lead_->params())
                       : -1.0;
  row.accel_cmd = cmd.accel;
  row.steer_cmd = cmd.steer_angle;
  row.attack_active =
      config_.attack_enabled && attack_engine_->stats().active_now;
  row.alert_active = controls_->alerts().any_active();
  row.driver_engaged = driver_->engaged();
  trace->add(row);
}

SimulationSummary World::run(Trace* trace) {
  if (ran_) {
    throw std::logic_error(
        "World::run: this world already ran; call reset() to re-arm it "
        "before running again");
  }
  ran_ = true;
  if (trace != nullptr)
    trace->reserve(static_cast<std::size_t>(config_.duration / config_.dt) + 1);
  while (true) {
    const bool more = step();
    record(trace, {gateway_accel_cmd_, gateway_steer_cmd_});
    if (!more) break;
  }
  return summarize();
}

SimulationSummary World::summarize() const {
  using attack::HazardClass;
  SimulationSummary s;
  s.any_hazard = monitor_->any_hazard();
  s.first_hazard = monitor_->first_hazard();
  s.first_hazard_time = monitor_->first_hazard_time();
  s.hazard_h1 = monitor_->hazard_occurred(HazardClass::kH1);
  s.hazard_h2 = monitor_->hazard_occurred(HazardClass::kH2);
  s.hazard_h3 = monitor_->hazard_occurred(HazardClass::kH3);
  s.hazard_h1_time = monitor_->hazard_time(HazardClass::kH1);
  s.hazard_h2_time = monitor_->hazard_time(HazardClass::kH2);
  s.hazard_h3_time = monitor_->hazard_time(HazardClass::kH3);

  s.any_accident = monitor_->any_accident();
  s.first_accident = monitor_->first_accident();
  s.first_accident_time = monitor_->first_accident_time();
  s.accident_a1 = monitor_->accident_occurred(AccidentClass::kA1LeadCollision);
  s.accident_a2 = monitor_->accident_occurred(AccidentClass::kA2RearEnd);
  s.accident_a3 = monitor_->accident_occurred(AccidentClass::kA3Roadside);

  s.alert_events = controls_->alerts().total_events();
  s.steer_saturated_events = controls_->alerts().steer_saturated_events();
  s.fcw_events = controls_->alerts().fcw_events();
  s.alert_before_hazard = alert_seen_before_hazard_;

  s.lane_invasions = monitor_->lane_invasion_events();
  s.lane_invasion_rate =
      time_ > 0.0 ? static_cast<double>(s.lane_invasions) / time_ : 0.0;

  if (config_.attack_enabled) {
    const auto stats = attack_engine_->stats();
    s.attack_activated = stats.first_activation >= 0.0;
    s.attack_start = stats.first_activation;
    s.attack_duration =
        static_cast<double>(stats.cycles_active) * config_.dt;
    s.frames_corrupted = stats.frames_corrupted;
    if (s.any_hazard && s.attack_activated &&
        s.first_hazard_time >= s.attack_start)
      s.tth = s.first_hazard_time - s.attack_start;
  }

  s.driver_engaged = driver_->engaged();
  s.driver_engage_time = driver_->engage_time();
  s.driver_perception_time = driver_->perception_time();
  s.sim_end_time = time_;
  s.can_checksum_rejects = gateway_rejects_;
  if (panda_) s.panda_frames_blocked = panda_->stats().frames_blocked;

  s.faults_fired = fault_injector_.counters().fired;
  s.faults_suppressed = fault_injector_.counters().suppressed;
  // Delay verdicts the bus degraded to immediate delivery (queue full).
  s.faults_suppressed[fault::fault_index(fault::FaultKind::kCanDelay)] +=
      can_bus_.delay_overflows();
  return s;
}

}  // namespace scaa::sim
