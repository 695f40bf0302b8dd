// The studies beyond the paper's tables, motivated by its §V: the
// Context-Aware ingredient ablation and the defense evaluation. Both run
// their grids through exp::run_campaign with a per-item simulate hook, so
// their reports are byte-identical at any thread count.

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "cli/campaigns.hpp"
#include "defense/harness.hpp"
#include "driver/driver_model.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace scaa::cli {

namespace {

long long ll(std::size_t v) { return static_cast<long long>(v); }

double fraction(std::size_t count, std::size_t total) {
  return total ? static_cast<double>(count) / static_cast<double>(total)
               : 0.0;
}

void note(std::ostream* progress, const std::string& line) {
  if (progress) *progress << line << "\n" << std::flush;
}

}  // namespace

Report ablation_report(const CampaignOptions& options, std::ostream* progress) {
  const exp::CampaignConfig cc = campaign_config(options);
  // One strategy grid, every item driven with @p reaction_time.
  const auto run = [&cc](attack::StrategyKind kind, bool strategic,
                         double reaction_time) {
    const auto grid =
        exp::make_grid(kind, strategic, /*driver_enabled=*/true, cc);
    return exp::aggregate(exp::run_campaign(
        grid, cc, /*checkpoint=*/nullptr,
        [&grid, reaction_time](std::size_t i, const exp::WorldAssets& assets) {
          sim::WorldConfig wc = exp::world_config_for(grid[i], assets);
          wc.driver.reaction_time = reaction_time;
          return sim::World(std::move(wc)).run();
        }));
  };

  Report report(
      "ablation: which ingredient of the Context-Aware attack matters, and "
      "the hazard rate vs. the driver's reaction time",
      {"study", "variant", "strategy", "values", "reaction_time",
       "simulations", "sims_with_hazards", "hazard_fraction",
       "sims_with_accidents", "accident_fraction", "sims_with_alerts",
       "alert_fraction", "hazards_without_alerts",
       "hazards_without_alerts_fraction"});
  struct Variant {
    const char* id;
    attack::StrategyKind kind;
    bool strategic;
  };
  // A: context trigger + latched duration + strategic values; B: context
  // trigger, random duration; C: random trigger, reaction-length duration;
  // D: A's timing with fixed (loud) values.
  const Variant variants[] = {
      {"A", attack::StrategyKind::kContextAware, true},
      {"B", attack::StrategyKind::kRandomDur, false},
      {"C", attack::StrategyKind::kRandomSt, false},
      {"D", attack::StrategyKind::kContextAware, false},
  };
  const auto add_row = [&report](const char* study, const Variant& v,
                                 double reaction_time,
                                 const exp::Aggregate& a) {
    report.add_row({std::string(study), std::string(v.id), to_string(v.kind),
                    std::string(v.strategic ? "strategic" : "fixed"),
                    reaction_time, ll(a.simulations), ll(a.sims_with_hazards),
                    a.hazard_fraction(), ll(a.sims_with_accidents),
                    a.accident_fraction(), ll(a.sims_with_alerts),
                    a.alert_fraction(), ll(a.hazards_without_alerts),
                    fraction(a.hazards_without_alerts, a.simulations)});
  };

  const double default_reaction = driver::DriverConfig{}.reaction_time;
  for (const Variant& v : variants) {
    add_row("ingredient", v, default_reaction,
            run(v.kind, v.strategic, default_reaction));
    note(progress, std::string("[ablation] variant ") + v.id + " done");
  }
  for (const double rt : {1.0, 1.5, 2.0, 2.5, 3.0, 3.5}) {
    const Variant& full = variants[0];
    add_row("reaction", full, rt, run(full.kind, full.strategic, rt));
    note(progress, "[ablation] reaction time " + util::format_double(rt, 1) +
                       " s done");
  }
  return report;
}

Report defense_report(const CampaignOptions& options, std::ostream* progress) {
  const exp::CampaignConfig cc = campaign_config(options);
  Report report(
      "defense: control-invariant detector + context-aware monitor vs. the "
      "paper's attacks (the No Attacks row is the attack-free false-alarm "
      "check)",
      {"strategy", "values", "simulations", "attacks", "sims_with_hazards",
       "hazard_fraction", "invariant_detections", "invariant_detection_rate",
       "monitor_detections", "monitor_detection_rate",
       "detected_before_hazard", "detected_before_hazard_rate",
       "monitor_latency_mean", "monitor_latency_std", "false_alarms",
       "false_alarm_rate"});
  struct Row {
    attack::StrategyKind kind;
    bool strategic;
    const char* values;
  };
  const Row rows[] = {
      {attack::StrategyKind::kRandomSt, false, "fixed"},
      {attack::StrategyKind::kContextAware, false, "fixed"},
      {attack::StrategyKind::kContextAware, true, "strategic"},
      {attack::StrategyKind::kNone, false, "-"},
  };
  for (const Row& row : rows) {
    const auto grid =
        exp::make_grid(row.kind, row.strategic, /*driver_enabled=*/true, cc);
    // Each item writes only its own slot, so the hook is race-free.
    std::vector<defense::DefenseOutcome> outcomes(grid.size());
    const auto results = exp::run_campaign(
        grid, cc, /*checkpoint=*/nullptr,
        [&grid, &outcomes](std::size_t i, const exp::WorldAssets& assets) {
          sim::World world(exp::world_config_for(grid[i], assets));
          defense::DefenseHarness harness(world, defense::InvariantConfig{},
                                          defense::MonitorConfig{});
          sim::SimulationSummary summary;
          outcomes[i] = harness.run(&summary);
          return summary;
        });

    // Fold in grid order: the latency moments then do not depend on which
    // worker ran which item. A detection latency is >= 0 only for an alarm
    // at or after an activated attack's start.
    std::size_t attacks = 0, hazards = 0, invariant = 0, monitor = 0;
    std::size_t before_hazard = 0, false_alarms = 0;
    util::RunningStats latency;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const sim::SimulationSummary& s = results[i].summary;
      const defense::DefenseOutcome& o = outcomes[i];
      if (s.attack_activated) ++attacks;
      if (s.any_hazard) ++hazards;
      if (o.invariant_alarmed && o.invariant_latency >= 0.0) ++invariant;
      if (o.monitor_alarmed && o.monitor_latency >= 0.0) {
        ++monitor;
        latency.add(o.monitor_latency);
      }
      if (s.attack_activated && o.detected_before_hazard) ++before_hazard;
      if (!s.attack_activated && (o.invariant_alarmed || o.monitor_alarmed))
        ++false_alarms;
    }
    report.add_row({to_string(row.kind), std::string(row.values),
                    ll(grid.size()), ll(attacks), ll(hazards),
                    fraction(hazards, grid.size()), ll(invariant),
                    fraction(invariant, attacks), ll(monitor),
                    fraction(monitor, attacks), ll(before_hazard),
                    fraction(before_hazard, attacks), latency.mean(),
                    latency.stddev(), ll(false_alarms),
                    fraction(false_alarms, grid.size() - attacks)});
    note(progress, "[defense] " + to_string(row.kind) + " (" + row.values +
                       ") done");
  }
  return report;
}

}  // namespace scaa::cli
