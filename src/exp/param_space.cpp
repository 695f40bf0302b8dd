#include "exp/param_space.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace scaa::exp {

namespace {

// The swept space: one attack type on one scenario, and the start-time x
// duration grid of the Random-ST+DUR background cloud.
constexpr attack::AttackType kType = attack::AttackType::kAcceleration;
constexpr int kScenarioId = 1;
constexpr double kInitialGap = 100.0;
constexpr int kGridStarts = 31;
constexpr int kGridDurations = 9;
constexpr double kMinStart = 5.0, kMaxStart = 35.0;
constexpr double kMinDuration = 0.5, kMaxDuration = 2.5;

/// A forced attack window; negative fields leave the strategy's own timing.
struct Window {
  double start = -1.0;
  double duration = -1.0;
};

}  // namespace

std::vector<ParamSpacePoint> run_param_space(const ParamSpaceConfig& cfg) {
  std::vector<CampaignItem> items;
  std::vector<Window> windows;
  std::uint64_t sm = cfg.base_seed;
  const auto add = [&](attack::StrategyKind strategy, Window window) {
    CampaignItem item;
    item.strategy = strategy;
    item.type = kType;
    item.strategic_values = strategy == attack::StrategyKind::kContextAware;
    item.driver_enabled = true;
    item.scenario_id = kScenarioId;
    item.initial_gap = kInitialGap;
    item.seed = util::splitmix64(sm);
    items.push_back(item);
    windows.push_back(window);
  };

  // Background grid: deterministic Random-ST+DUR windows.
  for (int i = 0; i < kGridStarts; ++i) {
    const double t = static_cast<double>(i) / (kGridStarts - 1);
    const double start = kMinStart + t * (kMaxStart - kMinStart);
    for (int j = 0; j < kGridDurations; ++j) {
      const double u = static_cast<double>(j) / (kGridDurations - 1);
      add(attack::StrategyKind::kRandomStDur,
          {start, kMinDuration + u * (kMaxDuration - kMinDuration)});
    }
  }
  // Overlays: Random-ST (fixed duration), Random-DUR and Context-Aware
  // use their own stochastic/contextual timing.
  for (int r = 0; r < cfg.overlay_runs; ++r) {
    add(attack::StrategyKind::kRandomSt, {});
    add(attack::StrategyKind::kRandomDur, {});
    add(attack::StrategyKind::kContextAware, {});
  }

  CampaignConfig cc;
  cc.threads = cfg.threads;
  const std::vector<CampaignResult> results = run_campaign(
      items, cc, /*checkpoint=*/nullptr,
      [&items, &windows](std::size_t i, const WorldAssets& assets) {
        sim::WorldConfig wc = world_config_for(items[i], assets);
        wc.attack.strategy_params.forced_start = windows[i].start;
        wc.attack.strategy_params.forced_duration = windows[i].duration;
        return sim::World(std::move(wc)).run();
      });

  // Report the realized window; drop overlay runs whose attack never
  // activated (no point to plot).
  std::vector<ParamSpacePoint> points;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::SimulationSummary& s = results[i].summary;
    ParamSpacePoint point;
    point.strategy = items[i].strategy;
    point.start_time = s.attack_start >= 0.0 ? s.attack_start
                                             : windows[i].start;
    point.duration =
        s.attack_duration > 0.0 ? s.attack_duration : windows[i].duration;
    point.hazardous = s.any_hazard;
    if (point.start_time >= 0.0) points.push_back(point);
  }
  return points;
}

double estimate_critical_time(const std::vector<ParamSpacePoint>& points) {
  double earliest = -1.0;
  for (const auto& p : points) {
    if (!p.hazardous) continue;
    if (earliest < 0.0 || p.start_time < earliest) earliest = p.start_time;
  }
  return earliest;
}

}  // namespace scaa::exp
