// Ablation study (beyond the paper's tables, motivated by its §V):
// which ingredient of the Context-Aware attack buys what?
//   A. full Context-Aware (context trigger + latched duration + strategic values)
//   B. context trigger, random duration (paper's Random-DUR)
//   C. random trigger, driver-reaction-length duration (paper's Random-ST)
//   D. full CA but fixed (loud) values -> alert/detection cost
// plus a driver-reaction-time sensitivity sweep for the CA attack.
//
// Usage: bench_ablation [--reps N] [--threads N]

#include <cstdio>

#include "cli/args.hpp"
#include "exp/campaign.hpp"
#include "util/table.hpp"

using namespace scaa;

namespace {

exp::Aggregate run_config(attack::StrategyKind kind, bool strategic, int reps,
                          const exp::WorldAssets& assets, std::size_t threads,
                          double reaction_time) {
  exp::CampaignConfig cc;
  cc.threads = threads;
  cc.base_seed = 4242;
  cc.repetitions = reps;
  auto grid = exp::make_grid(kind, strategic, /*driver=*/true, cc);
  // Apply the reaction-time override by running items manually.
  std::vector<exp::CampaignResult> results(grid.size());
  exp::ThreadPool pool(threads);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    pool.submit([&grid, &assets, &results, reaction_time, i] {
      sim::WorldConfig wc = exp::world_config_for(grid[i], assets);
      wc.driver.reaction_time = reaction_time;
      sim::World world(std::move(wc));
      results[i] = {grid[i], world.run()};
    });
  }
  pool.wait_idle();
  return exp::aggregate(results);
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args("bench_ablation",
                      "Ablation study: which ingredient of the Context-Aware "
                      "attack matters?");
  args.add_int("--reps", 10, "repetitions per (type, scenario, gap) cell", 1,
               1000000);
  args.add_int("--threads", 0, "worker threads (0 = hardware concurrency)", 0,
               4096);
  if (const int code = args.parse_or_exit_code(argc, argv); code >= 0)
    return code;
  const int reps = static_cast<int>(args.get_int("--reps"));
  const auto threads = static_cast<std::size_t>(args.get_int("--threads"));
  const exp::WorldAssets assets = exp::WorldAssets::make_default();

  std::printf("ABLATION 1: which ingredient of the Context-Aware attack "
              "matters?\n\n");
  util::TextTable t1;
  t1.set_header({"Variant", "Hazards", "Accidents", "Alerts",
                 "Hazards&NoAlerts"});
  struct Variant {
    const char* name;
    attack::StrategyKind kind;
    bool strategic;
  };
  const Variant variants[] = {
      {"A: full Context-Aware", attack::StrategyKind::kContextAware, true},
      {"B: ctx start, random dur", attack::StrategyKind::kRandomDur, false},
      {"C: random start, 2.5s dur", attack::StrategyKind::kRandomSt, false},
      {"D: CA timing, loud values", attack::StrategyKind::kContextAware,
       false},
  };
  for (const auto& v : variants) {
    const auto a = run_config(v.kind, v.strategic, reps, assets, threads, 2.5);
    t1.add_row({v.name,
                util::format_count_percent(a.sims_with_hazards, a.simulations),
                util::format_count_percent(a.sims_with_accidents, a.simulations),
                util::format_count_percent(a.sims_with_alerts, a.simulations),
                util::format_count_percent(a.hazards_without_alerts,
                                           a.simulations)});
    std::fprintf(stderr, "[ablation] %s done\n", v.name);
  }
  std::printf("%s\n", t1.render().c_str());

  std::printf("ABLATION 2: Context-Aware hazard rate vs. driver reaction "
              "time\n\n");
  util::TextTable t2;
  t2.set_header({"Reaction time [s]", "Hazards", "Accidents"});
  for (const double rt : {1.0, 1.5, 2.0, 2.5, 3.0, 3.5}) {
    const auto a = run_config(attack::StrategyKind::kContextAware, true, reps,
                              assets, threads, rt);
    t2.add_row({util::format_double(rt, 1),
                util::format_count_percent(a.sims_with_hazards, a.simulations),
                util::format_count_percent(a.sims_with_accidents,
                                           a.simulations)});
    std::fprintf(stderr, "[ablation] reaction %.1f s done\n", rt);
  }
  std::printf("%s\n", t2.render().c_str());
  return 0;
}
