// Tests for the experiment layer: thread pool, campaign grid/runner,
// aggregation, table emitters, parameter-space sweep.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "exp/campaign.hpp"
#include "exp/checkpoint.hpp"
#include "exp/param_space.hpp"
#include "exp/tables.hpp"
#include "exp/thread_pool.hpp"
#include "util/serial.hpp"

namespace {

using namespace scaa;

/// Grid-construction shorthand: most tests only vary reps and seed.
exp::CampaignConfig grid_config(int reps, std::uint64_t seed) {
  exp::CampaignConfig config;
  config.repetitions = reps;
  config.base_seed = seed;
  return config;
}

TEST(ThreadPool, RunsAllTasks) {
  exp::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  exp::ThreadPool pool(2);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  exp::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(Campaign, GridShapeMatchesPaper) {
  const auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                   true, grid_config(20, 2022));
  // 6 types x 4 scenarios x 3 gaps x 20 reps = 1,440 (paper Table III).
  EXPECT_EQ(grid.size(), 1440u);
  std::set<std::uint64_t> seeds;
  for (const auto& item : grid) seeds.insert(item.seed);
  EXPECT_EQ(seeds.size(), grid.size());  // all seeds unique
}

TEST(Campaign, GridCoversAllCells) {
  const auto grid = exp::make_grid(attack::StrategyKind::kRandomSt, false,
                                   true, grid_config(1, 1));
  EXPECT_EQ(grid.size(), 72u);
  std::set<std::tuple<int, int, int>> cells;
  for (const auto& item : grid)
    cells.insert({static_cast<int>(item.type), item.scenario_id,
                  static_cast<int>(item.initial_gap)});
  EXPECT_EQ(cells.size(), 72u);
}

TEST(Campaign, SameSeedsForDriverOnOff) {
  // The Table V pairing requires identical seeds across the two campaigns.
  const auto on = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                 true, grid_config(2, 99));
  const auto off = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                  false, grid_config(2, 99));
  ASSERT_EQ(on.size(), off.size());
  for (std::size_t i = 0; i < on.size(); ++i) {
    EXPECT_EQ(on[i].seed, off[i].seed);
    EXPECT_EQ(on[i].type, off[i].type);
  }
}

TEST(Campaign, RejectsNonPositiveRepetitions) {
  // A repetitions value that is <= 0 after the documented fallback used to
  // silently yield an empty grid (and empty-looking tables); it must fail
  // loudly instead.
  exp::CampaignConfig config = grid_config(0, 1);
  EXPECT_THROW(exp::make_grid(attack::StrategyKind::kNone, false, true,
                              config),
               std::invalid_argument);
  config.repetitions = -3;
  EXPECT_THROW(exp::make_grid(attack::StrategyKind::kNone, false, true,
                              config, -1),
               std::invalid_argument);
}

TEST(Campaign, RepetitionOverrideFallsBackToConfig) {
  // Override > 0 wins; override <= 0 falls back to config.repetitions —
  // the behaviour the header documents (and CampaignConfig.repetitions is
  // genuinely consumed, not a dead field).
  const auto config = grid_config(2, 7);
  const auto fallback = exp::make_grid(attack::StrategyKind::kRandomSt, false,
                                       true, config);
  EXPECT_EQ(fallback.size(), 144u);  // 6 types x 4 scenarios x 3 gaps x 2
  const auto overridden = exp::make_grid(attack::StrategyKind::kRandomSt,
                                         false, true, config, 1);
  EXPECT_EQ(overridden.size(), 72u);
}

TEST(Campaign, GridSeedsComeFromConfigBaseSeed) {
  const auto a = exp::make_grid(attack::StrategyKind::kRandomSt, false, true,
                                grid_config(1, 1));
  const auto b = exp::make_grid(attack::StrategyKind::kRandomSt, false, true,
                                grid_config(1, 2));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_NE(a[0].seed, b[0].seed);
}

TEST(Campaign, RunnerDeterministicAcrossThreadCounts) {
  auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true, true,
                             grid_config(1, 5));
  grid.resize(12);  // keep the test fast
  exp::CampaignConfig one;
  one.threads = 1;
  exp::CampaignConfig many;
  many.threads = 8;
  const auto a = exp::run_campaign(grid, one);
  const auto b = exp::run_campaign(grid, many);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].summary.any_hazard, b[i].summary.any_hazard) << i;
    EXPECT_DOUBLE_EQ(a[i].summary.first_hazard_time,
                     b[i].summary.first_hazard_time);
    EXPECT_EQ(a[i].summary.lane_invasions, b[i].summary.lane_invasions);
  }
}

/// Bit-level equality of the summary fields the campaign tables read.
void expect_summary_bits_eq(const sim::SimulationSummary& a,
                            const sim::SimulationSummary& b, std::size_t i) {
  SCOPED_TRACE(i);
  EXPECT_EQ(a.any_hazard, b.any_hazard);
  EXPECT_EQ(util::double_bits(a.first_hazard_time),
            util::double_bits(b.first_hazard_time));
  EXPECT_EQ(a.any_accident, b.any_accident);
  EXPECT_EQ(a.alert_events, b.alert_events);
  EXPECT_EQ(a.fcw_events, b.fcw_events);
  EXPECT_EQ(a.lane_invasions, b.lane_invasions);
  EXPECT_EQ(util::double_bits(a.lane_invasion_rate),
            util::double_bits(b.lane_invasion_rate));
  EXPECT_EQ(a.attack_activated, b.attack_activated);
  EXPECT_EQ(util::double_bits(a.attack_start),
            util::double_bits(b.attack_start));
  EXPECT_EQ(util::double_bits(a.attack_duration),
            util::double_bits(b.attack_duration));
  EXPECT_EQ(util::double_bits(a.tth), util::double_bits(b.tth));
  EXPECT_EQ(util::double_bits(a.sim_end_time),
            util::double_bits(b.sim_end_time));
}

TEST(Campaign, DefaultRebuildingHookMatchesDefaultRun) {
  // A hook that rebuilds exactly the default World must not change a bit:
  // the hook path and the default path share one chunk loop.
  auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true, true,
                             grid_config(1, 17));
  grid.resize(exp::kCampaignChunk + 6);  // two chunks, the second partial
  const exp::SimulateFn rebuild = [&grid](std::size_t i,
                                          const exp::WorldAssets& assets) {
    return sim::World(exp::world_config_for(grid[i], assets)).run();
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exp::CampaignConfig cc;
    cc.threads = threads;
    const auto plain = exp::run_campaign(grid, cc);
    const auto hooked = exp::run_campaign(grid, cc, nullptr, rebuild);
    ASSERT_EQ(plain.size(), hooked.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(hooked[i].item.seed, grid[i].seed);
      expect_summary_bits_eq(plain[i].summary, hooked[i].summary, i);
    }
  }
}

TEST(Campaign, HookExceptionIsRethrownAfterDrain) {
  // A throw inside a pool task used to reach std::terminate; the runner
  // must surface the original exception type to its caller instead.
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(2, 3));  // 144 items, 3 chunks
  exp::CampaignConfig cc;
  cc.threads = 4;
  const exp::SimulateFn throw_on_one = [](std::size_t i,
                                          const exp::WorldAssets&) {
    if (i == 70) throw std::out_of_range("item 70");
    return sim::SimulationSummary{};
  };
  EXPECT_THROW(exp::run_campaign(grid, cc, nullptr, throw_on_one),
               std::out_of_range);
}

TEST(Campaign, HookWithCheckpointIsRejected) {
  // The checkpoint fingerprint covers the grid, not the hook, so a resumed
  // run could fold results of two different experiments.
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(1, 3));
  const std::string path = testing::TempDir() + "scaa_hook_checkpoint";
  std::remove(path.c_str());
  {
    exp::ResultsCheckpoint checkpoint(path, grid, /*resume=*/false);
    const exp::SimulateFn hook = [](std::size_t, const exp::WorldAssets&) {
      return sim::SimulationSummary{};
    };
    EXPECT_THROW(exp::run_campaign(grid, exp::CampaignConfig{}, &checkpoint,
                                   hook),
                 std::invalid_argument);
  }
  std::remove(path.c_str());
}

TEST(Campaign, StreamingMatchesVectorPathBitExactly) {
  // The streaming runner must produce the same Aggregate as materializing
  // every result and reducing it — including the floating-point moments —
  // at any thread count (the chunked reduction order is fixed). The grid
  // must span several chunks (kCampaignChunk = 64) so the cross-chunk
  // merge order is actually exercised, not just a single accumulator.
  auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true, true,
                             grid_config(2, 11));
  grid.resize(2 * exp::kCampaignChunk + 2);
  exp::CampaignConfig cc;
  cc.threads = 4;
  const auto vector_agg = exp::aggregate(exp::run_campaign(grid, cc));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    exp::CampaignConfig scc;
    scc.threads = threads;
    const auto streamed = exp::run_campaign_streaming(grid, scc);
    EXPECT_EQ(streamed.simulations, vector_agg.simulations);
    EXPECT_EQ(streamed.sims_with_alerts, vector_agg.sims_with_alerts);
    EXPECT_EQ(streamed.sims_with_hazards, vector_agg.sims_with_hazards);
    EXPECT_EQ(streamed.sims_with_accidents, vector_agg.sims_with_accidents);
    EXPECT_EQ(streamed.hazards_without_alerts,
              vector_agg.hazards_without_alerts);
    EXPECT_EQ(streamed.fcw_activations, vector_agg.fcw_activations);
    EXPECT_DOUBLE_EQ(streamed.lane_invasion_rate_mean,
                     vector_agg.lane_invasion_rate_mean);
    EXPECT_DOUBLE_EQ(streamed.tth_mean, vector_agg.tth_mean);
    EXPECT_DOUBLE_EQ(streamed.tth_std, vector_agg.tth_std);
  }
}

TEST(Campaign, StreamingReportsMonotonicProgress) {
  auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                             grid_config(1, 3));
  grid.resize(6);
  exp::CampaignConfig cc;
  cc.threads = 2;
  std::vector<exp::CampaignProgress> seen;
  exp::run_campaign_streaming(grid, cc,
                              [&seen](const exp::CampaignProgress& p) {
                                seen.push_back(p);
                              });
  ASSERT_FALSE(seen.empty());
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_GT(seen[i].completed, seen[i - 1].completed);
  EXPECT_EQ(seen.back().completed, grid.size());
  EXPECT_EQ(seen.back().total, grid.size());
}

TEST(Campaign, SharedAssetsMatchPrivatelyBuiltWorlds) {
  // A World running on campaign-shared road/DBC must behave identically to
  // one that built its own (the assets are immutable and identical).
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kContextAware;
  item.type = attack::AttackType::kSteeringLeft;
  item.seed = 77;
  const auto assets = exp::WorldAssets::make_default();

  sim::World owned(exp::world_config_for(item));
  sim::World shared(exp::world_config_for(item, assets));
  const auto a = owned.run();
  const auto b = shared.run();
  EXPECT_EQ(a.any_hazard, b.any_hazard);
  EXPECT_DOUBLE_EQ(a.first_hazard_time, b.first_hazard_time);
  EXPECT_EQ(a.any_accident, b.any_accident);
  EXPECT_EQ(a.alert_events, b.alert_events);
  EXPECT_EQ(a.lane_invasions, b.lane_invasions);
  EXPECT_DOUBLE_EQ(a.sim_end_time, b.sim_end_time);
  EXPECT_EQ(a.frames_corrupted, b.frames_corrupted);
}

TEST(Aggregate, CountsAndFractions) {
  std::vector<exp::CampaignResult> results(4);
  results[0].summary.any_hazard = true;
  results[0].summary.alert_events = 1;
  results[0].summary.tth = 2.0;
  results[1].summary.any_hazard = true;
  results[1].summary.any_accident = true;
  results[1].summary.tth = 4.0;
  // results[2], results[3]: clean runs.
  const auto agg = exp::aggregate(results);
  EXPECT_EQ(agg.simulations, 4u);
  EXPECT_EQ(agg.sims_with_hazards, 2u);
  EXPECT_EQ(agg.sims_with_accidents, 1u);
  EXPECT_EQ(agg.sims_with_alerts, 1u);
  EXPECT_EQ(agg.hazards_without_alerts, 1u);  // run 1 had hazard + no alerts
  EXPECT_DOUBLE_EQ(agg.hazard_fraction(), 0.5);
  EXPECT_DOUBLE_EQ(agg.accident_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(agg.tth_mean, 3.0);
}

TEST(Tables, PairDriverOutcomes) {
  auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true, true,
                             grid_config(1, 7));
  grid.resize(6);
  auto off_grid = grid;
  for (auto& item : off_grid) item.driver_enabled = false;
  exp::CampaignConfig cc;
  cc.threads = 4;
  const auto on = exp::run_campaign(grid, cc);
  const auto off = exp::run_campaign(off_grid, cc);
  const auto outcomes = exp::pair_driver_outcomes(on, off);
  std::size_t total = 0;
  for (const auto& [type, outcome] : outcomes) total += outcome.agg.simulations;
  EXPECT_EQ(total, 6u);
}

TEST(Tables, PairRejectsMismatchedGrids) {
  std::vector<exp::CampaignResult> a(2), b(3);
  EXPECT_THROW(exp::pair_driver_outcomes(a, b), std::invalid_argument);
  b.resize(2);
  a[0].item.seed = 1;
  b[0].item.seed = 2;
  EXPECT_THROW(exp::pair_driver_outcomes(a, b), std::invalid_argument);
}

TEST(ParamSpace, SmallSweepShapes) {
  exp::ParamSpaceConfig cfg;
  cfg.overlay_runs = 2;
  cfg.threads = 8;
  const auto points = exp::run_param_space(cfg);
  EXPECT_GE(points.size(), 31u * 9u);  // the full grid always plots
  for (const auto& p : points) {
    EXPECT_GE(p.start_time, 0.0);
    EXPECT_GE(p.duration, 0.0);
  }
}

TEST(ParamSpace, CriticalTimeEstimate) {
  std::vector<exp::ParamSpacePoint> points;
  points.push_back({attack::StrategyKind::kRandomStDur, 10.0, 1.0, false});
  points.push_back({attack::StrategyKind::kRandomStDur, 20.0, 1.0, true});
  points.push_back({attack::StrategyKind::kRandomStDur, 30.0, 1.0, true});
  EXPECT_DOUBLE_EQ(exp::estimate_critical_time(points), 20.0);
  points.clear();
  points.push_back({attack::StrategyKind::kRandomStDur, 10.0, 1.0, false});
  EXPECT_LT(exp::estimate_critical_time(points), 0.0);
}

}  // namespace
