#pragma once

/// @file param_space.hpp
/// Fig. 8: attack start-time x duration parameter-space exploration.

#include <vector>

#include "exp/campaign.hpp"

namespace scaa::exp {

/// One point in the (start time, duration) space.
struct ParamSpacePoint {
  attack::StrategyKind strategy{};
  double start_time = 0.0;  ///< actual attack start [s]
  double duration = 0.0;    ///< actual attack duration [s]
  bool hazardous = false;
};

/// Sweep configuration for the Fig. 8 reproduction. The swept space itself
/// (Acceleration attacks in scenario S1 at a 100 m gap, a 31 x 9 grid of
/// windows starting in [5, 35] s and lasting [0.5, 2.5] s) is fixed.
struct ParamSpaceConfig {
  int overlay_runs = 20;    ///< runs per overlay strategy
  std::uint64_t base_seed = 88;
  std::size_t threads = 0;
};

/// Run the sweep: a deterministic grid of fixed-window attacks (the
/// Random-ST+DUR cloud) plus Random-ST / Random-DUR / Context-Aware
/// overlays, each point labelled hazardous or not.
std::vector<ParamSpacePoint> run_param_space(const ParamSpaceConfig& config);

/// Estimate the critical start time: the earliest start time whose grid
/// points (at the longest duration) become hazardous. Returns a negative
/// value when no hazardous point exists.
double estimate_critical_time(const std::vector<ParamSpacePoint>& points);

}  // namespace scaa::exp
