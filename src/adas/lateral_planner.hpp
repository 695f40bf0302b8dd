#pragma once

/// @file lateral_planner.hpp
/// ALC lateral planning: lane-centre tracking from perception output.

#include "msg/messages.hpp"
#include "util/rng.hpp"

namespace scaa::adas {

/// Tuning of the lateral planner. The structure is curvature feed-forward
/// plus offset/heading feedback (a Stanley-style law — same family as
/// OpenPilot's controller, without the preview MPC). Gains are chosen for
/// ~critical damping at highway speed: omega = v*sqrt(offset_gain).
struct LateralPlannerConfig {
  double offset_gain = 0.006;     ///< [1/m^2] curvature per metre of offset
  double heading_gain = 0.12;     ///< [1/m] curvature per radian of heading err
  double gain_ref_speed = 15.0;   ///< [m/s] gains scheduled by (ref/v)^2 —
                                  ///< keeps the loop crossover speed-invariant
  double offset_filter = 0.35;    ///< low-pass alpha on the measured offset
  double curvature_filter = 0.25; ///< low-pass alpha on model curvature
  double max_curvature = 0.008;   ///< [1/m] plan clip
  double invalid_decay = 0.08;    ///< per-frame decay toward FF when lanes lost

  /// Nonlinear lane-edge authority: extra restoring gain once the car
  /// strays past `edge_start` from centre. Must stay modest — combined
  /// with actuator lag a steep wall destabilizes the loop.
  double edge_start = 0.75;       ///< [m] where the extra gain kicks in
  double edge_gain = 0.016;       ///< [1/m^2] extra curvature per metre beyond

  /// Path-prediction wander: the planner's *target* lateral position is not
  /// exactly the lane centre. It drifts as an OU process (the documented
  /// source of OpenPilot's in-lane weaving) and is systematically pulled
  /// toward the outside of curves. Because the error is in the target — not
  /// in the measured lines — eavesdroppers (and the lane-invasion sensor)
  /// see the true excursions.
  double target_bias_std = 0.35;       ///< [m] stationary std of the wander
  double target_bias_tc = 4.0;         ///< [s] OU correlation time
  double curve_target_gain = 450.0;    ///< [m per 1/m] outside-of-curve pull

  double min_line_prob = 0.3;     ///< below this, hold the previous plan
};

/// Output of the lateral planner each cycle.
struct LateralPlan {
  double desired_curvature = 0.0;  ///< [1/m], +left (post-clip)
  double raw_curvature = 0.0;      ///< [1/m] demand before the authority clip
  double center_offset = 0.0;      ///< perceived offset from lane centre, +left
  bool lines_valid = false;
};

/// Computes the desired path curvature every perception frame.
class LateralPlanner {
 public:
  /// @p rng seeds the path-prediction wander (deterministic per world).
  LateralPlanner(LateralPlannerConfig config, util::Rng rng) noexcept
      : config_(config), rng_(rng) {}

  /// Update with the latest modelV2 output; @p dt is the perception period
  /// and @p ego_speed [m/s] drives the gain schedule.
  LateralPlan update(const msg::ModelV2& model, double dt,
                     double ego_speed) noexcept;

  /// Most recent plan (held when perception is not confident).
  const LateralPlan& plan() const noexcept { return plan_; }

  /// Current target offset from the lane centre (exposed for tests).
  double target_offset() const noexcept { return target_offset_; }

 private:
  LateralPlannerConfig config_;
  util::Rng rng_;
  LateralPlan plan_;
  double filtered_curvature_ = 0.0;
  double filtered_offset_ = 0.0;
  double target_bias_ = 0.0;
  double target_offset_ = 0.0;
  bool has_state_ = false;
};

}  // namespace scaa::adas
