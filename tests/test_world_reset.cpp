/// Differential suite for the World lifecycle: a reset World must be
/// bit-identical to a freshly constructed one (summaries AND traces), the
/// parallel campaign runner must match a fresh World per item, and the
/// heap stays untouched where it is promised: on every tick of a warm
/// World (what campaign runners rely on, since each item gets a fresh
/// World), and across a whole reset()+run() cycle of a resident World
/// (what the realtime executor and FIFO taps rely on).
///
/// This TU deliberately includes alloc_counter.hpp (replacing the global
/// operator new for this binary) — keep it out of every other suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/campaign.hpp"
#include "fault/plan.hpp"
#include "sim/world.hpp"
#include "util/alloc_counter.hpp"

namespace scaa {
namespace {

using exp::CampaignItem;
using exp::WorldAssets;
using sim::SimulationSummary;
using sim::World;

/// Field-exact equality — the summary is the unit the campaign aggregates,
/// so every field participates in the bit-identity contract.
void expect_summary_eq(const SimulationSummary& a, const SimulationSummary& b,
                       const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.any_hazard, b.any_hazard);
  EXPECT_EQ(a.first_hazard, b.first_hazard);
  EXPECT_EQ(a.first_hazard_time, b.first_hazard_time);
  EXPECT_EQ(a.hazard_h1, b.hazard_h1);
  EXPECT_EQ(a.hazard_h2, b.hazard_h2);
  EXPECT_EQ(a.hazard_h3, b.hazard_h3);
  EXPECT_EQ(a.hazard_h1_time, b.hazard_h1_time);
  EXPECT_EQ(a.hazard_h2_time, b.hazard_h2_time);
  EXPECT_EQ(a.hazard_h3_time, b.hazard_h3_time);
  EXPECT_EQ(a.any_accident, b.any_accident);
  EXPECT_EQ(a.first_accident, b.first_accident);
  EXPECT_EQ(a.first_accident_time, b.first_accident_time);
  EXPECT_EQ(a.accident_a1, b.accident_a1);
  EXPECT_EQ(a.accident_a2, b.accident_a2);
  EXPECT_EQ(a.accident_a3, b.accident_a3);
  EXPECT_EQ(a.alert_events, b.alert_events);
  EXPECT_EQ(a.steer_saturated_events, b.steer_saturated_events);
  EXPECT_EQ(a.fcw_events, b.fcw_events);
  EXPECT_EQ(a.alert_before_hazard, b.alert_before_hazard);
  EXPECT_EQ(a.lane_invasions, b.lane_invasions);
  EXPECT_EQ(a.lane_invasion_rate, b.lane_invasion_rate);
  EXPECT_EQ(a.attack_activated, b.attack_activated);
  EXPECT_EQ(a.attack_start, b.attack_start);
  EXPECT_EQ(a.attack_duration, b.attack_duration);
  EXPECT_EQ(a.tth, b.tth);
  EXPECT_EQ(a.frames_corrupted, b.frames_corrupted);
  EXPECT_EQ(a.driver_engaged, b.driver_engaged);
  EXPECT_EQ(a.driver_engage_time, b.driver_engage_time);
  EXPECT_EQ(a.driver_perception_time, b.driver_perception_time);
  EXPECT_EQ(a.sim_end_time, b.sim_end_time);
  EXPECT_EQ(a.can_checksum_rejects, b.can_checksum_rejects);
  EXPECT_EQ(a.panda_frames_blocked, b.panda_frames_blocked);
  EXPECT_EQ(a.faults_fired, b.faults_fired);
  EXPECT_EQ(a.faults_suppressed, b.faults_suppressed);
}

CampaignItem make_item(attack::StrategyKind strategy, attack::AttackType type,
                       int scenario_id, double gap, std::uint64_t seed) {
  CampaignItem item;
  item.strategy = strategy;
  item.type = type;
  item.scenario_id = scenario_id;
  item.initial_gap = gap;
  item.seed = seed;
  return item;
}

/// A deliberately heterogeneous item mix: every strategy kind, several
/// attack channels, all four scenarios — so consecutive resets keep
/// re-targeting the resident World across attack/no-attack, trailing/no
/// trailing, neighbor/no neighbor shapes.
std::vector<CampaignItem> mixed_items() {
  return {
      make_item(attack::StrategyKind::kNone, attack::AttackType::kAcceleration,
                1, 100.0, 11),
      make_item(attack::StrategyKind::kRandomStDur,
                attack::AttackType::kDeceleration, 2, 60.0, 22),
      make_item(attack::StrategyKind::kRandomSt,
                attack::AttackType::kSteeringLeft, 3, 100.0, 33),
      make_item(attack::StrategyKind::kRandomDur,
                attack::AttackType::kSteeringRight, 4, 140.0, 44),
      make_item(attack::StrategyKind::kContextAware,
                attack::AttackType::kAccelerationSteering, 2, 60.0, 55),
      make_item(attack::StrategyKind::kContextAware,
                attack::AttackType::kDecelerationSteering, 3, 140.0, 66),
      make_item(attack::StrategyKind::kRandomStDur,
                attack::AttackType::kAcceleration, 4, 100.0, 77),
      make_item(attack::StrategyKind::kNone, attack::AttackType::kAcceleration,
                2, 60.0, 88),
      make_item(attack::StrategyKind::kRandomDur,
                attack::AttackType::kDeceleration, 1, 140.0, 99),
  };
}

std::string item_label(const CampaignItem& item) {
  return attack::to_string(item.strategy) + "/" + to_string(item.type) +
         "/s" + std::to_string(item.scenario_id) + "/seed" +
         std::to_string(item.seed);
}

/// Every fault family at once, including the delayed-frame queue (whose
/// capacity is reserved at construction).
std::shared_ptr<const fault::FaultPlan> multi_fault_plan() {
  return std::make_shared<const fault::FaultPlan>(fault::FaultPlan::parse_text(
      "can_drop rate=0.05\n"
      "can_delay rate=0.05 ticks=3\n"
      "can_corrupt rate=0.02\n"
      "sensor_freeze rate=0.1\n"
      "sensor_noise rate=0.5 mag=0.3\n"
      "ecu_stall rate=0.005 ticks=10\n",
      "zero-alloc"));
}

std::uint64_t faults_fired(const SimulationSummary& summary) {
  std::uint64_t fired = 0;
  for (const std::uint64_t f : summary.faults_fired) fired += f;
  return fired;
}

TEST(WorldReset, FreshVsResetBitIdenticalSummary) {
  const WorldAssets assets = WorldAssets::make_default();
  const std::vector<CampaignItem> items = mixed_items();

  // One resident world sweeps the whole mix via reset(); every summary
  // must match a World constructed fresh for that item.
  std::unique_ptr<World> resident;
  for (const CampaignItem& item : items) {
    const sim::WorldConfig cfg = exp::world_config_for(item, assets);
    if (!resident) {
      resident = std::make_unique<World>(cfg);
    } else {
      resident->reset(cfg);
    }
    const SimulationSummary reused = resident->run();
    World fresh(cfg);
    expect_summary_eq(fresh.run(), reused, item_label(item));
  }
}

TEST(WorldReset, FreshVsResetBitIdenticalTrace) {
  const WorldAssets assets = WorldAssets::make_default();
  const CampaignItem item =
      make_item(attack::StrategyKind::kContextAware,
                attack::AttackType::kDecelerationSteering, 2, 60.0, 7);
  const sim::WorldConfig cfg = exp::world_config_for(item, assets);

  // Warm the resident world on a different item first, so the trace
  // comparison exercises a genuinely dirty reset.
  World resident(exp::world_config_for(
      make_item(attack::StrategyKind::kRandomStDur,
                attack::AttackType::kSteeringLeft, 3, 140.0, 123),
      assets));
  resident.run();
  resident.reset(cfg);

  sim::Trace fresh_trace;
  sim::Trace reused_trace;
  World fresh(cfg);
  const SimulationSummary fresh_summary = fresh.run(&fresh_trace);
  const SimulationSummary reused_summary = resident.run(&reused_trace);
  expect_summary_eq(fresh_summary, reused_summary, "trace item");

  ASSERT_EQ(fresh_trace.size(), reused_trace.size());
  for (std::size_t i = 0; i < fresh_trace.size(); ++i) {
    const sim::TraceRow& a = fresh_trace.rows()[i];
    const sim::TraceRow& b = reused_trace.rows()[i];
    ASSERT_EQ(a.time, b.time) << "row " << i;
    ASSERT_EQ(a.ego_s, b.ego_s) << "row " << i;
    ASSERT_EQ(a.ego_d, b.ego_d) << "row " << i;
    ASSERT_EQ(a.ego_speed, b.ego_speed) << "row " << i;
    ASSERT_EQ(a.ego_accel, b.ego_accel) << "row " << i;
    ASSERT_EQ(a.ego_steer, b.ego_steer) << "row " << i;
    ASSERT_EQ(a.lead_gap, b.lead_gap) << "row " << i;
    ASSERT_EQ(a.accel_cmd, b.accel_cmd) << "row " << i;
    ASSERT_EQ(a.steer_cmd, b.steer_cmd) << "row " << i;
    ASSERT_EQ(a.attack_active, b.attack_active) << "row " << i;
    ASSERT_EQ(a.alert_active, b.alert_active) << "row " << i;
    ASSERT_EQ(a.driver_engaged, b.driver_engaged) << "row " << i;
  }
}

TEST(WorldReset, ResultIndependentOfResetHistory) {
  // The same item must produce the same summary whatever ran before it —
  // RNG streams re-fork from the item's seed alone.
  const WorldAssets assets = WorldAssets::make_default();
  const std::vector<CampaignItem> items = mixed_items();
  const CampaignItem probe =
      make_item(attack::StrategyKind::kRandomStDur,
                attack::AttackType::kAccelerationSteering, 3, 100.0, 424242);
  const sim::WorldConfig probe_cfg = exp::world_config_for(probe, assets);

  World baseline(probe_cfg);
  const SimulationSummary expected = baseline.run();

  for (std::size_t history = 0; history < items.size(); ++history) {
    World world(exp::world_config_for(items[history], assets));
    world.run();
    world.reset(probe_cfg);
    expect_summary_eq(expected, world.run(),
                      "after history " + item_label(items[history]));
  }
}

TEST(WorldReset, SecondRunWithoutResetThrows) {
  const WorldAssets assets = WorldAssets::make_default();
  const sim::WorldConfig cfg = exp::world_config_for(
      make_item(attack::StrategyKind::kNone,
                attack::AttackType::kAcceleration, 1, 100.0, 5),
      assets);
  World world(cfg);
  const SimulationSummary first = world.run();
  EXPECT_THROW(world.run(), std::logic_error);
  world.reset(cfg);
  expect_summary_eq(first, world.run(), "rerun after reset");
  EXPECT_THROW(world.run(), std::logic_error);
}

TEST(WorldReset, ResetRejectsForeignDatabase) {
  const WorldAssets assets = WorldAssets::make_default();
  const CampaignItem item = make_item(
      attack::StrategyKind::kNone, attack::AttackType::kAcceleration, 1,
      100.0, 5);
  World world(exp::world_config_for(item, assets));
  world.run();

  sim::WorldConfig other = exp::world_config_for(item, assets);
  other.db =
      std::make_shared<const can::Database>(can::Database::simulated_car());
  EXPECT_THROW(world.reset(other), std::invalid_argument);

  // Null db (and null road) mean "keep the current assets".
  sim::WorldConfig keep = exp::world_config_for(item);
  keep.road = nullptr;
  keep.db = nullptr;
  world.reset(keep);
  EXPECT_EQ(&world.dbc(), assets.db.get());
}

TEST(WorldReset, HintedRoadQueriesMatchPlain) {
  // The segment-hinted road sample must be bit-identical to the unhinted
  // one for ANY hint — the hint only changes where the monotone segment
  // walks start, never where they end — and its heading is heading_at(s).
  const auto road =
      std::make_shared<const road::Road>(road::RoadBuilder::paper_road());
  const double length = road->length();
  for (int i = 0; i <= 400; ++i) {
    const double s = length * static_cast<double>(i) / 400.0;
    const auto plain = road->sample(s, geom::Polyline::kNoSegmentHint);
    ASSERT_EQ(plain.heading, road->reference().heading_at(s)) << "s=" << s;
    for (const std::size_t hint :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{200},
          std::size_t{100000}, geom::Polyline::kNoSegmentHint}) {
      const auto hinted = road->sample(s, hint);
      ASSERT_EQ(plain.heading, hinted.heading)
          << "s=" << s << " hint=" << hint;
      ASSERT_EQ(plain.curvature, hinted.curvature)
          << "s=" << s << " hint=" << hint;
    }
  }
}

TEST(WorldReset, EgoRoadSampleMatchesUnhintedEveryTick) {
  // Every consumer of the road at the Ego reads the sample in its Frenet
  // state, so the sample must describe the Ego's current s after every
  // step: a tick phase that refreshed s without its sample would leave a
  // stale heading or curvature here.
  const WorldAssets assets = WorldAssets::make_default();
  for (const auto strategy :
       {attack::StrategyKind::kNone, attack::StrategyKind::kContextAware}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    World world(exp::world_config_for(
        make_item(strategy, attack::AttackType::kSteeringRight, 3, 50.0, 7),
        assets));
    const auto expect_current = [&world](std::size_t steps) {
      const vehicle::VehicleState& ego = world.ego_state();
      const auto want =
          world.road().sample(ego.s, geom::Polyline::kNoSegmentHint);
      EXPECT_EQ(ego.road_heading, want.heading) << "step " << steps;
      EXPECT_EQ(ego.road_curvature, want.curvature) << "step " << steps;
      return ego.road_heading == want.heading &&
             ego.road_curvature == want.curvature;
    };
    std::size_t steps = 0;
    ASSERT_TRUE(expect_current(steps));  // as placed by reset
    bool running = true;
    while (running) {
      running = world.step();
      ASSERT_TRUE(expect_current(++steps));
    }
    EXPECT_GT(steps, 100u);
    if (strategy == attack::StrategyKind::kContextAware) {
      EXPECT_TRUE(world.summarize().attack_activated);
    }
  }
}

TEST(WorldReset, CampaignRunnerMatchesFreshLoop) {
  // End-to-end: the parallel, chunked campaign runner must reproduce the
  // naive one-fresh-World-per-item loop bit-for-bit, in item order.
  exp::CampaignConfig config;
  config.repetitions = 1;
  config.threads = 3;
  const std::vector<CampaignItem> items =
      exp::make_grid(attack::StrategyKind::kRandomStDur,
                     /*strategic_values=*/true, /*driver_enabled=*/true,
                     config);
  const std::vector<exp::CampaignResult> results =
      exp::run_campaign(items, config);
  ASSERT_EQ(results.size(), items.size());

  const WorldAssets assets = WorldAssets::make_default();
  for (std::size_t i = 0; i < items.size(); i += 7) {  // sampled: runtime
    World fresh(exp::world_config_for(items[i], assets));
    expect_summary_eq(fresh.run(), results[i].summary,
                      "campaign " + item_label(items[i]));
  }
}

TEST(WorldReset, EavesdropperSurvivesReset) {
  // The paper's eavesdropping surface is wiring, and wiring survives
  // reset(): a CAN tap and a raw pub/sub subscriber attached once keep
  // observing across simulations, and the per-topic sequence numbers
  // restart gap-free — nothing on the wire reveals the reset.
  const WorldAssets assets = WorldAssets::make_default();
  const sim::WorldConfig cfg = exp::world_config_for(
      make_item(attack::StrategyKind::kRandomSt,
                attack::AttackType::kSteeringLeft, 1, 100.0, 9),
      assets);
  World world(cfg);

  std::uint64_t frames_tapped = 0;
  world.can().attach_tap(
      [&frames_tapped](const can::CanFrame&) { ++frames_tapped; });
  std::vector<std::uint64_t> car_state_seqs;
  world.message_bus().subscribe_raw(
      msg::Topic::kCarState, [&car_state_seqs](const msg::WireFrame& frame) {
        car_state_seqs.push_back(frame.sequence);
      });

  world.run();
  const std::uint64_t frames_first = frames_tapped;
  const std::size_t msgs_first = car_state_seqs.size();
  ASSERT_GT(frames_first, 0u);
  ASSERT_GT(msgs_first, 0u);

  world.reset(cfg);
  world.run();
  EXPECT_EQ(frames_tapped, 2 * frames_first);
  ASSERT_EQ(car_state_seqs.size(), 2 * msgs_first);
  // Gap-free within each run, restarting from 1 after the reset.
  for (std::size_t i = 0; i < car_state_seqs.size(); ++i)
    ASSERT_EQ(car_state_seqs[i], static_cast<std::uint64_t>(i % msgs_first) + 1)
        << "index " << i;
}

TEST(WorldReset, PandaTogglesAcrossReset) {
  const WorldAssets assets = WorldAssets::make_default();
  const CampaignItem item =
      make_item(attack::StrategyKind::kRandomStDur,
                attack::AttackType::kAcceleration, 1, 100.0, 31);
  sim::WorldConfig plain = exp::world_config_for(item, assets);
  sim::WorldConfig enforced = plain;
  enforced.panda_enforced = true;

  World fresh_plain(plain);
  const SimulationSummary expect_plain = fresh_plain.run();
  World fresh_enforced(enforced);
  const SimulationSummary expect_enforced = fresh_enforced.run();

  // plain -> enforced -> plain, each leg matching its fresh counterpart.
  World world(plain);
  world.run();
  world.reset(enforced);
  expect_summary_eq(expect_enforced, world.run(), "toggled on");
  world.reset(plain);
  expect_summary_eq(expect_plain, world.run(), "toggled off");
}

TEST(WorldReset, SingleResetRunIsZeroAlloc) {
  // One reset()+run() cycle on an already-warm World: the resident-World
  // lifecycle the realtime executor and FIFO taps use.
  const WorldAssets assets = WorldAssets::make_default();
  const sim::WorldConfig cfg = exp::world_config_for(
      make_item(attack::StrategyKind::kContextAware,
                attack::AttackType::kAccelerationSteering, 2, 60.0, 13),
      assets);
  World world(cfg);
  world.run();
  world.reset(cfg);
  world.run();  // second run warms any lazily grown buffers

  world.reset(cfg);
  const std::uint64_t before =
      util::g_allocation_count.load(std::memory_order_relaxed);
  world.reset(cfg);
  world.run();
  const std::uint64_t after =
      util::g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(WorldReset, FaultedResetRunIsZeroAlloc) {
  // The fault layer rides inside the simulation hot path, so the zero-alloc
  // lifecycle contract extends to it: with a multi-fault plan attached, a
  // warm reset()+run() cycle must not touch the heap.
  const WorldAssets assets = WorldAssets::make_default();
  sim::WorldConfig cfg = exp::world_config_for(
      make_item(attack::StrategyKind::kContextAware,
                attack::AttackType::kAccelerationSteering, 2, 60.0, 13),
      assets);
  cfg.fault_plan = multi_fault_plan();
  World world(cfg);
  world.run();
  world.reset(cfg);
  world.run();  // second run warms any lazily grown buffers

  world.reset(cfg);
  const std::uint64_t before =
      util::g_allocation_count.load(std::memory_order_relaxed);
  world.reset(cfg);
  const SimulationSummary summary = world.run();
  const std::uint64_t after =
      util::g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "fault-injected steady state must not touch the heap";
  EXPECT_GT(faults_fired(summary), 0u)
      << "the plan must actually exercise the injector";
}

TEST(WorldReset, SteadyTickIsZeroAlloc) {
  // The campaign runners' guarantee: each item runs in a fresh World, and
  // once it has ticked a few times, no tick until the end of the
  // simulation touches the heap. The item is chosen to cover the whole
  // tick surface: all four vehicles, a fixed-value attack the driver
  // notices and takes over from, every fault family firing, and a full
  // 50 s run.
  const WorldAssets assets = WorldAssets::make_default();
  CampaignItem item = make_item(attack::StrategyKind::kRandomSt,
                                attack::AttackType::kDeceleration, 4, 60.0, 13);
  item.strategic_values = false;
  sim::WorldConfig cfg = exp::world_config_for(item, assets);
  cfg.fault_plan = multi_fault_plan();
  World world(cfg);
  constexpr int kWarmTicks = 5;
  for (int i = 0; i < kWarmTicks; ++i) ASSERT_TRUE(world.step());

  std::uint64_t ticks = 0;
  const std::uint64_t before =
      util::g_allocation_count.load(std::memory_order_relaxed);
  while (world.step()) ++ticks;
  const std::uint64_t after =
      util::g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "allocations over " << ticks << " steady ticks";
  const SimulationSummary summary = world.summarize();
  EXPECT_TRUE(summary.attack_activated) << "the attack must go live";
  EXPECT_TRUE(summary.driver_engaged) << "the driver must take over";
  EXPECT_FALSE(summary.any_accident) << "the run must go the full length";
  EXPECT_GT(faults_fired(summary), 0u)
      << "the plan must actually exercise the injector";
}

}  // namespace
}  // namespace scaa
