#include "sensors/camera.hpp"

#include <algorithm>
#include <cmath>

#include "util/math.hpp"

namespace scaa::sensors {

CameraLaneModel::CameraLaneModel(msg::PubSubBus& bus, const road::Road& road,
                                 CameraConfig config, util::Rng rng)
    : bus_(&bus), road_(&road), config_(config), rng_(rng) {
  const double steps = 100.0 / std::max(1.0, config_.rate_hz);
  steps_per_frame_ = static_cast<std::uint64_t>(std::max(1.0, steps));
}

void CameraLaneModel::reset(const road::Road& road, CameraConfig config,
                            util::Rng rng) noexcept {
  road_ = &road;
  config_ = config;
  rng_ = rng;
  const double steps = 100.0 / std::max(1.0, config_.rate_hz);
  steps_per_frame_ = static_cast<std::uint64_t>(std::max(1.0, steps));
  bias_ = 0.0;
  delay_line_.clear();  // capacity kept: steady-state resets do not allocate
}

msg::ModelV2 CameraLaneModel::make_measurement(
    std::uint64_t step_index, const vehicle::VehicleState& truth,
    std::size_t ego_lane) {
  const auto& profile = road_->profile();

  // Ornstein-Uhlenbeck bias update at the frame rate: mean-reverting walk
  // with stationary std config_.bias_std.
  const double dt = static_cast<double>(steps_per_frame_) / 100.0;
  const double theta = 1.0 / config_.bias_time_constant;
  const double diffusion = config_.bias_std * std::sqrt(2.0 * theta * dt);
  bias_ += -theta * bias_ * dt + rng_.gaussian(0.0, diffusion);

  const double curvature = truth.road_curvature;

  // True lateral offsets of the ego lane's lines in the vehicle frame
  // (+left of the vehicle centre).
  const double true_left = profile.lane_left_edge(ego_lane) - truth.d;
  const double true_right = profile.lane_right_edge(ego_lane) - truth.d;

  msg::ModelV2 m;
  m.mono_time = step_index;
  m.left_lane_line =
      true_left + bias_ + rng_.gaussian(0.0, config_.line_noise_std);
  m.right_lane_line =
      true_right + bias_ + rng_.gaussian(0.0, config_.line_noise_std);
  m.path_curvature =
      curvature + rng_.gaussian(0.0, config_.curvature_noise_std);
  m.path_heading_error =
      math::wrap_angle(truth.road_heading - truth.pose.heading) +
      rng_.gaussian(0.0, config_.heading_noise_std);

  // Confidence: degraded on curves and, critically, when the car straddles
  // a line — the lane lines leave the camera's useful field of view, which
  // is when the planner stops updating (and the alerting stack with it).
  const double off_center =
      std::abs(truth.d - profile.lane_center(ego_lane));
  const double straddle_loss =
      config_.offcenter_conf_slope *
      std::max(0.0, off_center - config_.offcenter_conf_start);
  const double conf_loss =
      std::abs(curvature) * 1000.0 * config_.curve_conf_penalty;
  const double conf = math::clamp(0.98 - conf_loss - straddle_loss, 0.05, 1.0);
  m.left_line_prob = conf;
  m.right_line_prob = conf;
  return m;
}

void CameraLaneModel::step(std::uint64_t step_index,
                           const vehicle::VehicleState& truth,
                           std::size_t ego_lane) {
  if (step_index % steps_per_frame_ != 0) return;

  delay_line_.push_back(make_measurement(step_index, truth, ego_lane));

  const auto latency_frames = static_cast<std::size_t>(
      config_.latency_steps / static_cast<double>(steps_per_frame_));
  if (delay_line_.size() > latency_frames) {
    msg::ModelV2& front = delay_line_.front();
    if (!fault_hook_ || fault_hook_(front)) bus_->publish(front);
    delay_line_.erase(delay_line_.begin());
  }
}

}  // namespace scaa::sensors
