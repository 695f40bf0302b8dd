#pragma once

/// @file camera.hpp
/// Camera + perception-model stand-in publishing `modelV2`.
///
/// OpenPilot's vision model outputs lane-line positions in the vehicle
/// frame. We derive them from ground truth (road geometry and the ego's
/// Frenet offset) and corrupt them the way a vision model is wrong:
///  * zero-mean white jitter on each line;
///  * a slowly wandering bias (Ornstein-Uhlenbeck): the low-frequency
///    estimation error that makes real ALC weave inside — and occasionally
///    across — the lane (the paper's Observation 1);
///  * a curve-dependent systematic bias toward the outside of the bend
///    (vision models consistently under-read curvature), which on the
///    paper's left-curved road parks the Ego slightly right of centre;
///  * degraded confidence on curves, and a small output latency.

#include <functional>

#include "msg/bus.hpp"
#include "road/road.hpp"
#include "util/rng.hpp"
#include "vehicle/vehicle.hpp"

namespace scaa::sensors {

/// Configuration of the camera lane-model.
struct CameraConfig {
  double rate_hz = 20.0;          ///< model output rate
  double line_noise_std = 0.04;   ///< [m] white jitter on each line
  double bias_std = 0.05;         ///< [m] stationary std of the wandering bias
  double bias_time_constant = 4.0;///< [s] bias correlation time (OU process)
  double heading_noise_std = 0.0035;  ///< [rad] error on path heading
  double curvature_noise_std = 2e-4;  ///< [1/m] error on path curvature
  double curve_conf_penalty = 0.15;   ///< confidence loss per 1e-3 curvature
  double offcenter_conf_start = 1.2;  ///< [m] straddling: lines leave the view
  double offcenter_conf_slope = 0.7;  ///< confidence loss per extra metre
  double latency_steps = 2;           ///< output delay in 10 ms steps
};

/// Publishes modelV2 from ground truth with structured perception error.
class CameraLaneModel {
 public:
  CameraLaneModel(msg::PubSubBus& bus, const road::Road& road,
                  CameraConfig config, util::Rng rng);

  /// Re-arm with a fresh road/config/RNG, exactly as constructed (same
  /// bus): the wandering bias restarts at zero and the latency delay line
  /// empties, keeping its capacity. No allocation.
  void reset(const road::Road& road, CameraConfig config,
             util::Rng rng) noexcept;

  /// Advance one 10 ms step; publishes at the configured rate with latency.
  /// The road geometry at the truth position comes from the truth's road
  /// sample (truth.road_heading, truth.road_curvature).
  void step(std::uint64_t step_index, const vehicle::VehicleState& truth,
            std::size_t ego_lane);

  /// Current value of the wandering bias [m] (exposed for tests).
  double bias() const noexcept { return bias_; }

  /// Benign-fault hook consulted immediately before each publish — i.e. on
  /// the frame leaving the latency delay line, not the one entering it
  /// (may perturb the model output; false suppresses the publish). See
  /// GpsModel::set_fault_hook.
  using FaultHook = std::function<bool(msg::ModelV2&)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

 private:
  msg::ModelV2 make_measurement(std::uint64_t step_index,
                                const vehicle::VehicleState& truth,
                                std::size_t ego_lane);

  msg::PubSubBus* bus_;
  const road::Road* road_;
  CameraConfig config_;
  util::Rng rng_;
  std::uint64_t steps_per_frame_;
  double bias_ = 0.0;
  std::vector<msg::ModelV2> delay_line_;
  FaultHook fault_hook_;
};

}  // namespace scaa::sensors
