// Defense evaluation (the paper's §V future work, made concrete): how do a
// control-invariant detector and a context-aware monitor fare against the
// four attack strategies? Reports detection rate, detection latency, and
// whether detection beats the hazard — plus the false-positive rate on
// attack-free drives.
//
// Usage: bench_defense [--reps N] [--threads N]

#include <cstdio>
#include <vector>

#include "cli/args.hpp"
#include "defense/harness.hpp"
#include "exp/campaign.hpp"
#include "exp/thread_pool.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace scaa;

namespace {

struct DefenseAggregate {
  std::size_t runs = 0;
  std::size_t attacks = 0;
  std::size_t invariant_detections = 0;
  std::size_t monitor_detections = 0;
  std::size_t detected_before_hazard = 0;
  std::size_t hazards = 0;
  util::RunningStats monitor_latency;
};

exp::CampaignConfig defense_config(int reps) {
  exp::CampaignConfig cc;
  cc.base_seed = 31337;
  cc.repetitions = reps;
  return cc;
}

/// One harnessed drive: its summary and what the detectors made of it.
struct DefenseRun {
  sim::SimulationSummary summary;
  defense::DefenseOutcome outcome;
};

/// Run every item of @p grid under a DefenseHarness, each in its own World
/// on the shared @p assets. Results land by index, so every fold over them
/// runs in grid order whatever the thread schedule.
std::vector<DefenseRun> run_grid(const std::vector<exp::CampaignItem>& grid,
                                 const exp::WorldAssets& assets,
                                 std::size_t threads) {
  std::vector<DefenseRun> runs(grid.size());
  exp::ThreadPool pool(threads);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    pool.submit([&grid, &assets, &runs, i] {
      sim::World world(exp::world_config_for(grid[i], assets));
      defense::DefenseHarness harness(world, defense::InvariantConfig{},
                                      defense::MonitorConfig{});
      runs[i].outcome = harness.run(&runs[i].summary);
    });
  }
  pool.wait_idle();
  return runs;
}

DefenseAggregate evaluate(attack::StrategyKind strategy, bool strategic,
                          int reps, const exp::WorldAssets& assets,
                          std::size_t threads) {
  const auto grid = exp::make_grid(strategy, strategic, /*driver=*/true,
                                   defense_config(reps));
  DefenseAggregate agg;
  for (const auto& [summary, outcome] : run_grid(grid, assets, threads)) {
    ++agg.runs;
    if (summary.attack_activated) ++agg.attacks;
    if (summary.any_hazard) ++agg.hazards;
    if (summary.attack_activated || outcome.invariant_alarmed ||
        outcome.monitor_alarmed) {
      if (outcome.invariant_alarmed && outcome.invariant_latency >= 0.0)
        ++agg.invariant_detections;
      if (outcome.monitor_alarmed && outcome.monitor_latency >= 0.0) {
        ++agg.monitor_detections;
        agg.monitor_latency.add(outcome.monitor_latency);
      }
      if (summary.attack_activated && outcome.detected_before_hazard)
        ++agg.detected_before_hazard;
    }
  }
  return agg;
}

std::size_t count_false_positives(const std::vector<exp::CampaignItem>& grid,
                                  const exp::WorldAssets& assets,
                                  std::size_t threads) {
  std::size_t false_positives = 0;
  for (const auto& run : run_grid(grid, assets, threads))
    if (run.outcome.invariant_alarmed || run.outcome.monitor_alarmed)
      ++false_positives;
  return false_positives;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("bench_defense",
                      "Defense evaluation: control-invariant detector + "
                      "context-aware monitor vs. the paper's attacks");
  args.add_int("--reps", 3, "repetitions per (type, scenario, gap) cell", 1,
               1000000);
  args.add_int("--threads", 0, "worker threads (0 = hardware concurrency)", 0,
               4096);
  if (const int code = args.parse_or_exit_code(argc, argv); code >= 0)
    return code;
  const int reps = static_cast<int>(args.get_int("--reps"));
  const auto threads = static_cast<std::size_t>(args.get_int("--threads"));
  const exp::WorldAssets assets = exp::WorldAssets::make_default();

  std::printf("DEFENSE EVALUATION: control-invariant detector + "
              "context-aware monitor vs. the paper's attacks\n\n");

  util::TextTable table;
  table.set_header({"Attack strategy", "Attacks", "Hazards",
                    "Invariant det.", "Monitor det.", "Det. before hazard",
                    "Monitor latency [s]"});
  struct Row {
    const char* label;
    attack::StrategyKind kind;
    bool strategic;
  };
  const Row rows[] = {
      {"Random-ST (fixed vals)", attack::StrategyKind::kRandomSt, false},
      {"Context-Aware (fixed)", attack::StrategyKind::kContextAware, false},
      {"Context-Aware (strategic)", attack::StrategyKind::kContextAware,
       true},
  };
  for (const Row& row : rows) {
    const auto agg = evaluate(row.kind, row.strategic, reps, assets, threads);
    table.add_row(
        {row.label, std::to_string(agg.attacks),
         util::format_count_percent(agg.hazards, agg.runs),
         util::format_count_percent(agg.invariant_detections, agg.attacks),
         util::format_count_percent(agg.monitor_detections, agg.attacks),
         util::format_count_percent(agg.detected_before_hazard, agg.attacks),
         agg.monitor_latency.count()
             ? util::format_mean_std(agg.monitor_latency.mean(),
                                     agg.monitor_latency.stddev())
             : "-"});
    std::fprintf(stderr, "[defense] %s done\n", row.label);
  }
  std::printf("%s\n", table.render().c_str());

  const auto benign_grid = exp::make_grid(attack::StrategyKind::kNone, false,
                                          true, defense_config(reps));
  const auto grid_size = benign_grid.size();
  const auto fp = count_false_positives(benign_grid, assets, threads);
  std::printf("False positives on %zu attack-free drives: %zu (%.2f%%)\n\n",
              grid_size, fp, 100.0 * static_cast<double>(fp) /
                                 static_cast<double>(grid_size));

  std::printf(
      "Reading: the intent channel of the control-invariant detector flags\n"
      "every command rewrite almost immediately (it compares what the ADAS\n"
      "published against what the bus delivered), and the context-aware\n"
      "monitor flags in-envelope-but-unsafe actions the firmware checks\n"
      "cannot see — closing exactly the gap the paper demonstrates.\n");
  return 0;
}
