// Tests for the deterministic benign-fault injection layer: FaultPlan
// parsing/fingerprints, the differential FaultDeterminism suite (the
// layer's headline guarantee — same seed + same plan is bit-identical
// across fresh-vs-reset, runner-vs-standalone, thread counts, resume, and
// sharded merge, and NO plan is bit-identical to an inert one), the
// monitor's graceful-degradation mode, and the `faults` CLI surface.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli/campaigns.hpp"
#include "defense/context_monitor.hpp"
#include "defense/harness.hpp"
#include "exp/campaign.hpp"
#include "exp/checkpoint.hpp"
#include "exp/shard.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "sim/world.hpp"
#include "util/serial.hpp"

namespace {

using namespace scaa;

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, ParsesKindsWindowsAndParameters) {
  const auto plan = fault::FaultPlan::parse_text(
      "# benign faults\n"
      "can_drop rate=0.05\n"
      "can_delay rate=0.1 ticks=5 window=2:10\n"
      "sensor_noise rate=1.0 mag=0.5 bias=-0.2 target=gps\n"
      "\n"
      "ecu_stall rate=0.01 ticks=25\n",
      "inline");
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].kind, fault::FaultKind::kCanDrop);
  EXPECT_DOUBLE_EQ(plan[0].rate, 0.05);
  EXPECT_EQ(plan[1].kind, fault::FaultKind::kCanDelay);
  EXPECT_EQ(plan[1].ticks, 5u);
  EXPECT_DOUBLE_EQ(plan[1].t0, 2.0);
  EXPECT_DOUBLE_EQ(plan[1].t1, 10.0);
  EXPECT_EQ(plan[2].kind, fault::FaultKind::kSensorNoise);
  EXPECT_DOUBLE_EQ(plan[2].magnitude, 0.5);
  EXPECT_DOUBLE_EQ(plan[2].bias, -0.2);
  EXPECT_EQ(plan[2].target, fault::FaultTarget::kGps);
  EXPECT_EQ(plan[3].kind, fault::FaultKind::kEcuStall);
  EXPECT_TRUE(plan[1].active_at(5.0));
  EXPECT_FALSE(plan[1].active_at(10.5));
}

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    fault::FaultPlan::parse_text(text, "plan.txt");
    FAIL() << "expected FaultPlanError for: " << text;
  } catch (const fault::FaultPlanError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("plan.txt:"), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(FaultPlan, ErrorsCarryPathAndLine) {
  expect_parse_error("warp_drive rate=0.1\n", "warp_drive");
  expect_parse_error("can_drop rate=1.5\n", "rate");
  expect_parse_error("can_drop window=9:3\n", "window");
  expect_parse_error("can_drop rate=0.1 color=red\n", "color");
  expect_parse_error("\n\ncan_drop rate=\n", ":3:");
  // strtod reads these; a plan value must be finite.
  expect_parse_error("sensor_noise rate=1.0 mag=0.3 bias=nan target=radar\n",
                     "bias");
  expect_parse_error("sensor_noise rate=1.0 bias=inf\n", "bias");
  expect_parse_error("sensor_noise rate=1.0 mag=inf target=camera\n", "mag");
  expect_parse_error("can_drop rate=nan\n", "rate");
  expect_parse_error("can_drop window=0:inf\n", "window");
}

TEST(FaultPlan, FingerprintSeparatesPlans) {
  const auto a = fault::FaultPlan::parse_text("can_drop rate=0.05\n", "a");
  const auto b = fault::FaultPlan::parse_text("can_drop rate=0.06\n", "b");
  const auto c = fault::FaultPlan::parse_text("can_drop rate=0.05\n", "c");
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.fingerprint(), c.fingerprint());
  EXPECT_NE(a.fingerprint(), fault::FaultPlan().fingerprint());
}

TEST(FaultPlan, RejectsMoreThanMaxFaults) {
  fault::FaultPlan plan;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kCanDrop;
  for (std::size_t i = 0; i < fault::FaultPlan::kMaxFaults; ++i)
    plan.add(spec);
  EXPECT_THROW(plan.add(spec), fault::FaultPlanError);
}

// ------------------------------------------------------- FaultDeterminism

void expect_summary_eq(const sim::SimulationSummary& a,
                       const sim::SimulationSummary& b) {
  EXPECT_EQ(a.any_hazard, b.any_hazard);
  EXPECT_EQ(util::double_bits(a.first_hazard_time),
            util::double_bits(b.first_hazard_time));
  EXPECT_EQ(a.any_accident, b.any_accident);
  EXPECT_EQ(a.alert_events, b.alert_events);
  EXPECT_EQ(a.fcw_events, b.fcw_events);
  EXPECT_EQ(a.lane_invasions, b.lane_invasions);
  EXPECT_EQ(util::double_bits(a.lane_invasion_rate),
            util::double_bits(b.lane_invasion_rate));
  EXPECT_EQ(util::double_bits(a.tth), util::double_bits(b.tth));
  EXPECT_EQ(util::double_bits(a.sim_end_time),
            util::double_bits(b.sim_end_time));
  EXPECT_EQ(a.can_checksum_rejects, b.can_checksum_rejects);
  EXPECT_EQ(a.faults_fired, b.faults_fired);
  EXPECT_EQ(a.faults_suppressed, b.faults_suppressed);
}

std::shared_ptr<const fault::FaultPlan> mixed_plan() {
  auto plan = std::make_shared<fault::FaultPlan>(fault::FaultPlan::parse_text(
      "can_drop rate=0.05\n"
      "can_delay rate=0.02 ticks=3\n"
      "sensor_freeze rate=0.1\n"
      "sensor_noise rate=0.5 mag=0.3\n"
      "ecu_stall rate=0.005 ticks=10\n",
      "mixed"));
  return plan;
}

sim::WorldConfig faulted_config(std::uint64_t seed) {
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kContextAware;
  item.type = attack::AttackType::kAcceleration;
  item.seed = seed;
  sim::WorldConfig cfg = exp::world_config_for(item);
  cfg.fault_plan = mixed_plan();
  return cfg;
}

TEST(FaultDeterminism, FaultsActuallyFire) {
  sim::World world(faulted_config(7));
  const auto summary = world.run();
  std::uint64_t fired = 0;
  for (const std::uint64_t f : summary.faults_fired) fired += f;
  EXPECT_GT(fired, 0u);
}

TEST(FaultDeterminism, FreshVsResetBitIdentical) {
  const sim::WorldConfig cfg = faulted_config(11);
  sim::World fresh(cfg);
  const auto a = fresh.run();

  sim::World reused(faulted_config(99));
  (void)reused.run();
  reused.reset(cfg);  // re-arms the injector from the same fork(17) stream
  const auto b = reused.run();
  expect_summary_eq(a, b);
}

TEST(FaultDeterminism, NoPlanBitIdenticalToInertPlan) {
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kContextAware;
  item.type = attack::AttackType::kAcceleration;
  item.seed = 21;

  sim::WorldConfig bare = exp::world_config_for(item);
  sim::World no_plan(bare);
  const auto a = no_plan.run();
  for (const std::uint64_t f : a.faults_fired) EXPECT_EQ(f, 0u);

  // A plan whose window never opens draws only from the injector's private
  // forked stream, which no other subsystem consumes — so the simulation
  // must be bit-identical to one with no plan at all. This is the
  // structural no-plan regression guard: the fault layer being compiled in
  // (and even armed) cannot perturb the paper's baselines.
  sim::WorldConfig inert = exp::world_config_for(item);
  inert.fault_plan =
      std::make_shared<const fault::FaultPlan>(fault::FaultPlan::parse_text(
          "can_drop rate=0.5 window=1e8:2e8\n", "inert"));
  sim::World armed(inert);
  const auto b = armed.run();
  expect_summary_eq(a, b);
}

std::vector<exp::CampaignItem> faulted_grid(int reps = 2) {
  exp::CampaignConfig cc;
  cc.repetitions = reps;
  cc.base_seed = 99;
  auto grid = exp::make_grid(attack::StrategyKind::kContextAware,
                             /*strategic_values=*/true,
                             /*driver_enabled=*/true, cc);
  const auto plan = mixed_plan();
  for (exp::CampaignItem& item : grid) item.fault_plan = plan;
  return grid;
}

TEST(FaultDeterminism, RunnerMatchesStandaloneWorlds) {
  const auto grid = faulted_grid(1);
  exp::CampaignConfig cc;
  cc.threads = 2;
  const auto results = exp::run_campaign(grid, cc);
  ASSERT_EQ(results.size(), grid.size());
  // Spot-check a stride of items: the parallel, chunked runner on shared
  // assets must agree bit-for-bit with a standalone World per item that
  // builds its own road and DBC.
  for (std::size_t i = 0; i < grid.size(); i += 17) {
    sim::World world(exp::world_config_for(grid[i]));
    expect_summary_eq(results[i].summary, world.run());
  }
}

void expect_aggregate_eq(const exp::Aggregate& a, const exp::Aggregate& b) {
  EXPECT_EQ(a.simulations, b.simulations);
  EXPECT_EQ(a.sims_with_alerts, b.sims_with_alerts);
  EXPECT_EQ(a.sims_with_hazards, b.sims_with_hazards);
  EXPECT_EQ(a.sims_with_accidents, b.sims_with_accidents);
  EXPECT_EQ(a.hazards_without_alerts, b.hazards_without_alerts);
  EXPECT_EQ(a.fcw_activations, b.fcw_activations);
  EXPECT_EQ(util::double_bits(a.lane_invasion_rate_mean),
            util::double_bits(b.lane_invasion_rate_mean));
  EXPECT_EQ(util::double_bits(a.tth_mean), util::double_bits(b.tth_mean));
  EXPECT_EQ(util::double_bits(a.tth_std), util::double_bits(b.tth_std));
}

TEST(FaultDeterminism, ThreadCountInvariant) {
  const auto grid = faulted_grid(2);
  exp::CampaignConfig one;
  one.threads = 1;
  exp::CampaignConfig many;
  many.threads = 4;
  expect_aggregate_eq(exp::run_campaign_streaming(grid, one),
                      exp::run_campaign_streaming(grid, many));
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "scaa_fault_" + name;
}

TEST(FaultDeterminism, ResumeBitIdentical) {
  const auto grid = faulted_grid(2);
  exp::CampaignConfig cc;
  cc.threads = 2;
  const std::string path = temp_path("resume.ckpt");
  std::remove(path.c_str());
  exp::Aggregate first;
  {
    exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/false);
    first = exp::run_campaign_streaming(grid, cc, {}, &ckpt);
  }
  {
    exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/true);
    EXPECT_EQ(ckpt.completed_items(), grid.size());  // nothing left to run
    const auto resumed = exp::run_campaign_streaming(grid, cc, {}, &ckpt);
    expect_aggregate_eq(first, resumed);
  }
  std::remove(path.c_str());
}

TEST(FaultDeterminism, ShardedMergeMatchesSingleProcess) {
  const auto grid = faulted_grid(2);
  exp::CampaignConfig cc;
  cc.threads = 2;
  const exp::Aggregate single = exp::run_campaign_streaming(grid, cc);

  const std::size_t shards = 3;
  const exp::ShardPlan plan(grid.size(), shards);
  std::vector<std::string> files;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string path =
        temp_path("merge.ckpt") + exp::shard_suffix(s, shards);
    std::remove(path.c_str());
    files.push_back(path);
    exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/false);
    const exp::ChunkRange range = plan.chunks_for(s);
    exp::run_campaign_streaming(grid, cc, {}, &ckpt, &range);
  }
  expect_aggregate_eq(single, exp::merge_slice_files(grid, files));
  for (const std::string& path : files) std::remove(path.c_str());
}

TEST(FaultDeterminism, ResumeRejectsForeignFaultPlan) {
  const auto grid = faulted_grid(1);
  const std::string path = temp_path("foreign.ckpt");
  std::remove(path.c_str());
  {
    exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/false);
    exp::CampaignConfig cc;
    cc.threads = 2;
    exp::run_campaign_streaming(grid, cc, {}, &ckpt);
  }
  // The identical grid under a different plan fingerprints differently, so
  // resuming from the old file must be refused — a checkpoint written
  // under one fault plan can never silently contaminate another campaign.
  auto other = faulted_grid(1);
  const auto foreign = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::parse_text("can_drop rate=0.25\n", "foreign"));
  for (exp::CampaignItem& item : other) item.fault_plan = foreign;
  EXPECT_NE(exp::grid_fingerprint(grid), exp::grid_fingerprint(other));
  EXPECT_THROW(exp::CampaignCheckpoint(path, other, /*resume=*/true),
               exp::CheckpointError);
  std::remove(path.c_str());
}

// -------------------------------------------------------- DegradedMonitor

defense::MonitorInputs unsafe_accel_inputs() {
  defense::MonitorInputs in;
  in.context.speed = 26.82;
  in.context.lead_valid = true;
  in.context.hwt = 1.5;       // close lead...
  in.context.rel_speed = 4.0;
  in.context.d_left = 1.0;
  in.context.d_right = 1.0;
  in.context.perception_valid = true;
  in.wire_accel = 2.0;        // ...while the wire accelerates
  return in;
}

defense::MonitorConfig degrading_config() {
  defense::MonitorConfig config;
  config.stale_context_s = 0.5;
  config.degrade_hysteresis_s = 0.2;
  return config;
}

TEST(DegradedMonitor, EntersAndExitsWithHysteresis) {
  defense::ContextAwareMonitor mon(degrading_config());
  auto in = unsafe_accel_inputs();
  in.wire_accel = 0.0;  // quiet wire; only staleness matters here
  in.context_age = 1.0;  // stale
  // Staleness must persist for the hysteresis dwell before entry.
  for (int i = 0; i < 19; ++i) mon.update(in, 0.01);
  EXPECT_FALSE(mon.degraded());
  for (int i = 0; i < 10; ++i) mon.update(in, 0.01);
  EXPECT_TRUE(mon.degraded());
  EXPECT_EQ(mon.degraded_entries(), 1u);
  // Fresh input must persist for the same dwell before exit.
  in.context_age = 0.0;
  for (int i = 0; i < 19; ++i) mon.update(in, 0.01);
  EXPECT_TRUE(mon.degraded());
  for (int i = 0; i < 10; ++i) mon.update(in, 0.01);
  EXPECT_FALSE(mon.degraded());
  EXPECT_GT(mon.degraded_time(), 0.0);
}

TEST(DegradedMonitor, WithholdsAlarmsWhileDegraded) {
  defense::ContextAwareMonitor mon(degrading_config());
  auto in = unsafe_accel_inputs();
  in.context_age = 1.0;  // stale the whole run
  bool alarmed = false;
  for (int i = 0; i < 1000; ++i) alarmed |= mon.update(in, 0.01);
  EXPECT_TRUE(mon.degraded());
  EXPECT_FALSE(alarmed);
  EXPECT_FALSE(mon.alarmed());
}

TEST(DegradedMonitor, RecoveryReaccumulatesPersistence) {
  defense::ContextAwareMonitor mon(degrading_config());
  auto in = unsafe_accel_inputs();
  in.context_age = 1.0;
  for (int i = 0; i < 100; ++i) mon.update(in, 0.01);
  EXPECT_TRUE(mon.degraded());
  // An attack persisting across recovery still alarms — the persistence
  // window restarts at recovery instead of counting degraded time.
  in.context_age = 0.0;
  bool alarmed = false;
  for (int i = 0; i < 300 && !alarmed; ++i) alarmed = mon.update(in, 0.01);
  EXPECT_TRUE(alarmed);
  EXPECT_GE(mon.alarm_time(), 1.0);  // not before recovery
}

TEST(DegradedMonitor, DisabledConfigIgnoresStaleness) {
  // stale_context_s == 0 is the paper's behavior bit-for-bit: a huge
  // context age must change nothing.
  defense::ContextAwareMonitor baseline{defense::MonitorConfig{}};
  defense::ContextAwareMonitor aged{defense::MonitorConfig{}};
  auto fresh = unsafe_accel_inputs();
  auto stale = unsafe_accel_inputs();
  stale.context_age = 1e6;
  for (int i = 0; i < 300; ++i)
    EXPECT_EQ(baseline.update(fresh, 0.01), aged.update(stale, 0.01));
  EXPECT_TRUE(baseline.alarmed());
  EXPECT_TRUE(aged.alarmed());
  EXPECT_EQ(util::double_bits(baseline.alarm_time()),
            util::double_bits(aged.alarm_time()));
  EXPECT_EQ(aged.degraded_entries(), 0u);
}

TEST(DegradedMonitor, HarnessReportsDegradationUnderSensorDropout) {
  // End to end: a mid-run total sensor dropout starves the eavesdropped
  // context latches, so a degradation-enabled harness enters degraded mode
  // and reports it through the DefenseOutcome.
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kNone;
  item.seed = 5;
  sim::WorldConfig cfg = exp::world_config_for(item);
  cfg.fault_plan =
      std::make_shared<const fault::FaultPlan>(fault::FaultPlan::parse_text(
          "sensor_dropout rate=1.0 window=10:20\n", "dropout"));
  sim::World world(cfg);

  defense::MonitorConfig mc = degrading_config();
  defense::DefenseHarness harness(world, defense::InvariantConfig{}, mc);
  const defense::DefenseOutcome out = harness.run();
  EXPECT_GE(out.degraded_entries, 1u);
  EXPECT_GT(out.degraded_time, 1.0);
}

// --------------------------------------------------------------- FaultCli

int run_cli(const std::string& name, const std::vector<std::string>& tokens,
            std::string* out_text = nullptr, std::string* err_text = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  const int rc = cli::run_campaign_command(name, tokens, out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return rc;
}

std::string write_plan_file(const std::string& name,
                            const std::string& contents) {
  const std::string path = temp_path(name);
  std::ofstream(path) << contents;
  return path;
}

TEST(FaultCli, FaultsTableRunsCustomPlan) {
  const std::string plan = write_plan_file("cli_plan.txt",
                                           "sensor_noise rate=1.0 mag=0.5\n");
  std::string out;
  std::string err;
  const int rc = run_cli(
      "faults",
      {"--fault-plan", plan, "--reps", "1", "--threads", "2", "--format",
       "csv"},
      &out, &err);
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(out.find("none,-"), std::string::npos) << out;
  EXPECT_NE(out.find("custom,plan"), std::string::npos) << out;
  std::remove(plan.c_str());
}

TEST(FaultCli, FaultsTableDeterministicAcrossThreads) {
  const std::string plan =
      write_plan_file("cli_det.txt", "can_drop rate=0.1\n");
  std::string one;
  std::string four;
  ASSERT_EQ(run_cli("faults",
                    {"--fault-plan", plan, "--reps", "1", "--threads", "1",
                     "--format", "csv"},
                    &one),
            0);
  ASSERT_EQ(run_cli("faults",
                    {"--fault-plan", plan, "--reps", "1", "--threads", "4",
                     "--format", "csv"},
                    &four),
            0);
  EXPECT_EQ(one, four);
  std::remove(plan.c_str());
}

/// The JSON object of the first row in @p report that starts with
/// @p row_prefix (e.g. `{"family":"none"`), without the prefix.
std::string json_row_tail(const std::string& report,
                          const std::string& row_prefix) {
  const std::size_t begin = report.find(row_prefix);
  if (begin == std::string::npos) {
    ADD_FAILURE() << "no row " << row_prefix;
    return {};
  }
  const std::size_t tail = begin + row_prefix.size();
  return report.substr(tail, report.find('}', tail) - tail);
}

TEST(FaultCli, CheckpointCollisionFailsBeforeAnySimulation) {
  // Every leg's slice file opens before the first simulation: a stale file
  // for the LAST leg must fail the run up front, not after the earlier
  // legs have been simulated — and leave nothing else behind, so the same
  // command succeeds once the stale file is gone. The plan is the built-in
  // sweep's can_drop/med cell, so the rerun's rows are BENCH_faults.json's.
  const std::string plan =
      write_plan_file("cli_ckpt.txt", "can_drop rate=0.05\n");
  const std::string dir = temp_path("precreated_ckpt");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string stem = dir + "/f";

  exp::CampaignConfig cc;
  cc.repetitions = 1;
  cc.base_seed = 2022;
  auto grid = exp::make_grid(attack::StrategyKind::kContextAware,
                             /*strategic_values=*/true,
                             /*driver_enabled=*/true, cc);
  const auto parsed = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::parse_file(plan));
  for (exp::CampaignItem& item : grid) item.fault_plan = parsed;
  const std::string last_leg = cli::slice_checkpoint_file(
      stem, "faults custom-plan attack", exp::grid_fingerprint(grid));
  std::ofstream(last_leg) << "stale\n";

  const std::vector<std::string> tokens = {
      "--fault-plan", plan,  "--reps",       "1",  "--seed",   "2022",
      "--threads",    "4",   "--checkpoint", stem, "--format", "json"};
  std::string err;
  EXPECT_EQ(run_cli("faults", tokens, nullptr, &err), 1);
  EXPECT_NE(err.find("already exists"), std::string::npos) << err;
  EXPECT_EQ(err.find(" sims"), std::string::npos) << err;

  std::filesystem::remove(last_leg);
  std::string out;
  ASSERT_EQ(run_cli("faults", tokens, &out, &err), 0) << err;
  std::ifstream golden_file(std::string(SCAA_SOURCE_DIR) +
                            "/BENCH_faults.json");
  std::stringstream golden;
  golden << golden_file.rdbuf();
  ASSERT_FALSE(golden.str().empty());
  EXPECT_EQ(json_row_tail(out, R"({"family":"none",)"),
            json_row_tail(golden.str(), R"({"family":"none",)"));
  EXPECT_EQ(json_row_tail(out, R"({"family":"custom","intensity":"plan",)"),
            json_row_tail(golden.str(),
                          R"({"family":"can_drop","intensity":"med",)"));
  std::filesystem::remove_all(dir);
  std::remove(plan.c_str());
}

TEST(FaultCli, BadPlanExitsOneWithPathLine) {
  const std::string plan =
      write_plan_file("cli_bad.txt", "can_drop rate=0.1\nbogus_kind\n");
  std::string err;
  EXPECT_EQ(run_cli("faults", {"--fault-plan", plan}, nullptr, &err), 1);
  EXPECT_NE(err.find(plan + ":2:"), std::string::npos) << err;
  std::remove(plan.c_str());
}

TEST(FaultCli, MissingPlanFileExitsOne) {
  std::string err;
  EXPECT_EQ(run_cli("faults",
                    {"--fault-plan", temp_path("does_not_exist.txt")},
                    nullptr, &err),
            1);
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(FaultCli, PaperTablesRejectFaultPlanFlag) {
  // The published baselines must stay untouchable: --fault-plan on any
  // paper table is a usage error up front, not a different experiment.
  for (const std::string cmd :
       {"table4", "table5", "fig7", "fig8", "merge", "ablation", "defense"}) {
    std::string err;
    EXPECT_EQ(run_cli(cmd, {"--fault-plan", "x.txt"}, nullptr, &err), 2)
        << cmd;
    EXPECT_NE(err.find("--fault-plan"), std::string::npos) << cmd << err;
  }
}

TEST(FaultCli, RunInjectsPlanAndReportsCounters) {
  const std::string plan =
      write_plan_file("cli_run.txt", "can_drop rate=0.2\n");
  std::string out;
  std::string err;
  const int rc = run_cli(
      "run", {"--fault-plan", plan, "--duration", "5", "--format", "csv"},
      &out, &err);
  EXPECT_EQ(rc, 0) << err;
  EXPECT_NE(err.find("[run] faults:"), std::string::npos) << err;
  EXPECT_NE(err.find(" fired"), std::string::npos) << err;
  std::remove(plan.c_str());
}

}  // namespace
