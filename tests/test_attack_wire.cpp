/// Whole-world conformance of the attacker to the paper's threat model: it
/// reads only the wire and writes nothing before it activates.
///
///  * AttackWire: a drive's pub/sub traffic and the ADAS's CAN frames,
///    replayed into a standalone AttackEngine on fresh buses, reproduce the
///    in-world engine tick for tick and the frames the car received byte
///    for byte — so the engine has no input besides the wire, its recon
///    (DBC, half width) and its seed.
///  * AttackNonInterference: the campaign grid pairs item i of every
///    Table IV row with the same seed, so an attacked item must equal its
///    No-Attacks twin row for row until the attack activates, and for the
///    whole drive when it never does.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "attack/engine.hpp"
#include "cli/campaigns.hpp"
#include "exp/campaign.hpp"
#include "msg/log.hpp"
#include "sim/world.hpp"

namespace scaa {
namespace {

/// One drive as the wire saw it, plus the in-world engine's view.
struct Recording {
  sim::WorldConfig cfg;
  msg::MessageLog log;  ///< every topic, stamped by step
  std::vector<double> times;  ///< sim time each step ran at
  std::vector<std::vector<can::CanFrame>> adas_frames;  ///< per step
  std::vector<can::CanFrame> received;  ///< what the car's receivers got
  std::vector<attack::AttackStats> stats;  ///< in-world engine, per step
};

void record(const exp::CampaignItem& item, const exp::WorldAssets& assets,
            Recording& rec) {
  rec.cfg = exp::world_config_for(item, assets);
  sim::World world(rec.cfg);
  std::uint64_t step = 0;
  rec.log.record_all(world.message_bus(), [&step] { return step; });
  // A pass-through fault hook runs ahead of every interceptor, so it sees
  // the frames exactly as the ADAS sent them. The item has no fault plan,
  // so the World's own hook is not needed.
  world.can().set_fault_hook([&](can::CanFrame& frame) {
    rec.adas_frames[step].push_back(frame);
    return can::FaultVerdict{};
  });
  world.can().set_fault_active(true);
  world.can().attach_receiver(
      [&rec](const can::CanFrame& frame) { rec.received.push_back(frame); });
  for (bool more = true; more; ++step) {
    rec.times.push_back(world.time());
    rec.adas_frames.emplace_back();
    more = world.step();
    rec.stats.push_back(world.attack_engine()->stats());
  }
  rec.log.stop(world.message_bus());
}

void expect_replay_reproduces(const exp::CampaignItem& item,
                              const exp::WorldAssets& assets) {
  Recording rec;
  record(item, assets, rec);

  msg::PubSubBus bus;
  can::CanBus can_bus;
  attack::AttackEngine engine(rec.cfg.attack, bus, can_bus, *rec.cfg.db,
                              rec.cfg.ego_params.half_width(),
                              util::Rng(rec.cfg.seed).fork(14));
  std::vector<can::CanFrame> out;
  can_bus.attach_receiver(
      [&out](const can::CanFrame& frame) { out.push_back(frame); });

  const std::vector<msg::LogEntry>& entries = rec.log.entries();
  std::size_t next = 0;
  for (std::size_t k = 0; k < rec.times.size(); ++k) {
    for (; next < entries.size() && entries[next].step == k; ++next)
      msg::republish(bus, entries[next].frame.view());
    engine.step(rec.times[k], rec.cfg.dt);
    for (const can::CanFrame& frame : rec.adas_frames[k]) can_bus.send(frame);
    const attack::AttackStats s = engine.stats();
    ASSERT_EQ(s.active_now, rec.stats[k].active_now) << "step " << k;
    ASSERT_EQ(s.frames_corrupted, rec.stats[k].frames_corrupted)
        << "step " << k;
  }
  EXPECT_EQ(next, entries.size());
  EXPECT_EQ(engine.stats().first_activation,
            rec.stats.back().first_activation);
  ASSERT_EQ(out.size(), rec.received.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], rec.received[i]) << "frame " << i << ": "
                                       << can::to_string(out[i]) << " vs "
                                       << can::to_string(rec.received[i]);
}

exp::CampaignItem context_aware(attack::AttackType type, bool strategic,
                                std::uint64_t seed) {
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kContextAware;
  item.type = type;
  item.strategic_values = strategic;
  item.driver_enabled = true;
  item.scenario_id = 1;
  item.initial_gap = 100.0;
  item.seed = seed;
  return item;
}

TEST(AttackWire, ReplayedWireReproducesEngine) {
  const exp::WorldAssets assets = exp::WorldAssets::make_default();
  // A loud attack the driver notices and takes over from: the stop rule
  // must come from the eavesdropped carState.
  const exp::CampaignItem takeover = context_aware(
      attack::AttackType::kAcceleration, /*strategic=*/false, 77);
  {
    sim::World world(exp::world_config_for(takeover, assets));
    const sim::SimulationSummary s = world.run();
    ASSERT_TRUE(s.attack_activated);
    ASSERT_TRUE(s.driver_engaged);
    ASSERT_GT(s.driver_engage_time, s.attack_start);
    ASSERT_LT(s.driver_engage_time, s.sim_end_time - 0.1)
        << "the drive must go on after the takeover";
  }
  expect_replay_reproduces(takeover, assets);
  // A strategic acceleration: its Eq. 1 values follow the eavesdropped
  // speed and set speed.
  expect_replay_reproduces(
      context_aware(attack::AttackType::kAcceleration, /*strategic=*/true, 77),
      assets);
}

/// Field-exact row equality.
testing::AssertionResult rows_equal(const sim::TraceRow& a,
                                    const sim::TraceRow& b) {
  if (a.time == b.time && a.ego_s == b.ego_s && a.ego_d == b.ego_d &&
      a.ego_speed == b.ego_speed && a.ego_accel == b.ego_accel &&
      a.ego_steer == b.ego_steer && a.lane_center == b.lane_center &&
      a.lane_left == b.lane_left && a.lane_right == b.lane_right &&
      a.lead_gap == b.lead_gap && a.accel_cmd == b.accel_cmd &&
      a.steer_cmd == b.steer_cmd && a.attack_active == b.attack_active &&
      a.alert_active == b.alert_active &&
      a.driver_engaged == b.driver_engaged)
    return testing::AssertionSuccess();
  return testing::AssertionFailure() << "rows differ at t=" << a.time;
}

TEST(AttackNonInterference, PairedItemsMatchTheirTwinUntilActivation) {
  const exp::WorldAssets assets = exp::WorldAssets::make_default();
  exp::CampaignConfig cc;
  cc.repetitions = 2;
  const std::vector<exp::CampaignItem> twins = exp::make_grid(
      attack::StrategyKind::kNone, false, /*driver_enabled=*/true, cc);

  // The Table IV rows on the base grid share its seeds; Random-ST+DUR's
  // 10x grid does not.
  std::vector<std::vector<exp::CampaignItem>> rows;
  for (const cli::Table4Strategy& row : cli::table4_strategies())
    if (row.kind != attack::StrategyKind::kNone && row.rep_multiplier == 1)
      rows.push_back(exp::make_grid(row.kind, row.strategic,
                                    /*driver_enabled=*/true, cc));
  ASSERT_EQ(rows.size(), 3u);

  std::size_t activated = 0;
  std::size_t never = 0;
  for (std::size_t i = 0; i < twins.size(); ++i) {
    sim::Trace twin_trace;
    sim::World(exp::world_config_for(twins[i], assets)).run(&twin_trace);
    const std::vector<sim::TraceRow>& twin = twin_trace.rows();
    for (const std::vector<exp::CampaignItem>& row : rows) {
      const exp::CampaignItem& item = row[i];
      ASSERT_EQ(item.seed, twins[i].seed);
      sim::Trace trace;
      const sim::SimulationSummary s =
          sim::World(exp::world_config_for(item, assets)).run(&trace);
      const std::vector<sim::TraceRow>& attacked = trace.rows();
      SCOPED_TRACE(attack::to_string(item.strategy) + " item " +
                   std::to_string(i));

      // Rows before the activation tick's row; all of them when the
      // attack never went live.
      std::size_t shared = 0;
      while (shared < attacked.size() && !attacked[shared].attack_active)
        ++shared;
      ASSERT_EQ(shared < attacked.size(), s.attack_activated);
      if (s.attack_activated) {
        ++activated;
      } else {
        ++never;
        ASSERT_EQ(attacked.size(), twin.size());
      }
      ASSERT_LE(shared, twin.size());
      for (std::size_t j = 0; j < shared; ++j)
        ASSERT_TRUE(rows_equal(attacked[j], twin[j])) << "row " << j;
    }
  }
  EXPECT_GT(activated, 0u);
  EXPECT_GT(never, 0u);
}

}  // namespace
}  // namespace scaa
