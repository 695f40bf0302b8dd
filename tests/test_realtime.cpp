// Tests for the real-time executor stack: DeadlineClock semantics, the
// determinism contract (a --realtime run's aggregates are bit-identical to
// a free-running run on the same config and seed), overrun accounting
// under an injected slow-tick fault, the FIFO wire tap's byte-identity
// with the in-process MessageLog oracle, and the `scaa_campaign run` CLI
// surface (summary-row identity across modes, usage exits, miss-budget
// exit 3).
//
// Every test here lives in the `Realtime` suite: the CI workflow's
// SCAA_THREADED_SUITES regex routes this suite into the TSan-capable lane
// (the FIFO tap test runs a reader thread).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/campaigns.hpp"
#include "exp/campaign.hpp"
#include "exp/realtime.hpp"
#include "msg/log.hpp"
#include "sim/world.hpp"
#include "util/deadline_clock.hpp"
#include "util/serial.hpp"

namespace {

using namespace scaa;

/// A short but non-trivial configuration: Context-Aware attack, 2 s of
/// simulated time (200 ticks), so the realtime-vs-free-running comparison
/// exercises sensors, planners, the attack engine, and the monitor.
sim::WorldConfig short_attack_config() {
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kContextAware;
  item.type = attack::AttackType::kAcceleration;
  item.seed = 77;
  sim::WorldConfig cfg = exp::world_config_for(item);
  cfg.duration = 2.0;
  return cfg;
}

/// Field-by-field bit-exact comparison (doubles as bit patterns): the
/// realtime executor must not perturb a single aggregate bit.
void expect_summary_identical(const sim::SimulationSummary& a,
                              const sim::SimulationSummary& b) {
  EXPECT_EQ(a.any_hazard, b.any_hazard);
  EXPECT_EQ(a.first_hazard, b.first_hazard);
  EXPECT_EQ(util::double_bits(a.first_hazard_time),
            util::double_bits(b.first_hazard_time));
  EXPECT_EQ(a.hazard_h1, b.hazard_h1);
  EXPECT_EQ(a.hazard_h2, b.hazard_h2);
  EXPECT_EQ(a.hazard_h3, b.hazard_h3);
  EXPECT_EQ(util::double_bits(a.hazard_h1_time),
            util::double_bits(b.hazard_h1_time));
  EXPECT_EQ(util::double_bits(a.hazard_h2_time),
            util::double_bits(b.hazard_h2_time));
  EXPECT_EQ(util::double_bits(a.hazard_h3_time),
            util::double_bits(b.hazard_h3_time));
  EXPECT_EQ(a.any_accident, b.any_accident);
  EXPECT_EQ(a.first_accident, b.first_accident);
  EXPECT_EQ(util::double_bits(a.first_accident_time),
            util::double_bits(b.first_accident_time));
  EXPECT_EQ(a.accident_a1, b.accident_a1);
  EXPECT_EQ(a.accident_a2, b.accident_a2);
  EXPECT_EQ(a.accident_a3, b.accident_a3);
  EXPECT_EQ(a.alert_events, b.alert_events);
  EXPECT_EQ(a.steer_saturated_events, b.steer_saturated_events);
  EXPECT_EQ(a.fcw_events, b.fcw_events);
  EXPECT_EQ(a.alert_before_hazard, b.alert_before_hazard);
  EXPECT_EQ(a.lane_invasions, b.lane_invasions);
  EXPECT_EQ(util::double_bits(a.lane_invasion_rate),
            util::double_bits(b.lane_invasion_rate));
  EXPECT_EQ(a.attack_activated, b.attack_activated);
  EXPECT_EQ(util::double_bits(a.attack_start),
            util::double_bits(b.attack_start));
  EXPECT_EQ(util::double_bits(a.attack_duration),
            util::double_bits(b.attack_duration));
  EXPECT_EQ(util::double_bits(a.tth), util::double_bits(b.tth));
  EXPECT_EQ(a.frames_corrupted, b.frames_corrupted);
  EXPECT_EQ(a.driver_engaged, b.driver_engaged);
  EXPECT_EQ(util::double_bits(a.driver_engage_time),
            util::double_bits(b.driver_engage_time));
  EXPECT_EQ(util::double_bits(a.driver_perception_time),
            util::double_bits(b.driver_perception_time));
  EXPECT_EQ(util::double_bits(a.sim_end_time),
            util::double_bits(b.sim_end_time));
  EXPECT_EQ(a.can_checksum_rejects, b.can_checksum_rejects);
  EXPECT_EQ(a.panda_frames_blocked, b.panda_frames_blocked);
}

TEST(Realtime, DeadlineClockRejectsBadPeriods) {
  EXPECT_THROW(util::DeadlineClock(0.0), std::invalid_argument);
  EXPECT_THROW(util::DeadlineClock(-0.01), std::invalid_argument);
  EXPECT_THROW(util::DeadlineClock(
                   std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(util::DeadlineClock(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Realtime, DeadlineClockAccountsSlackAndOverruns) {
  util::DeadlineClock clock(0.002);  // 500 Hz
  EXPECT_EQ(clock.period_s(), 0.002);
  clock.start();

  // No work between start and wait: the deadline is met, wake error is
  // whatever the scheduler added (never negative).
  const auto met = clock.wait_next();
  EXPECT_FALSE(met.overrun);
  EXPECT_GE(met.slack_s, 0.0);
  EXPECT_GE(met.wake_error_s, 0.0);

  // Burn several periods: the next wait must report one overrun (not one
  // per missed period) and re-phase to a future deadline, so the wait
  // after that is met again.
  const double stall_until = util::monotonic_now_s() + 0.010;
  while (util::monotonic_now_s() < stall_until) {
  }
  const auto late = clock.wait_next();
  EXPECT_TRUE(late.overrun);
  EXPECT_LT(late.slack_s, 0.0);
  EXPECT_GT(late.wake_error_s, 0.0);

  const auto recovered = clock.wait_next();
  EXPECT_FALSE(recovered.overrun);
}

TEST(Realtime, ExecutorValidatesPeriodAndLifecycle) {
  sim::WorldConfig cfg = short_attack_config();
  cfg.duration = 0.05;
  sim::World world(cfg);
  exp::RealtimeConfig bad;
  bad.period_s = 0.0;
  EXPECT_THROW(exp::run_realtime(world, bad), std::invalid_argument);

  exp::RealtimeConfig rc;
  rc.period_s = 1e-5;
  const exp::RealtimeReport report = exp::run_realtime(world, rc);
  EXPECT_GT(report.ticks, 0u);
  // Consumed like World::run(): a second run without reset() throws, and
  // reset() re-arms.
  EXPECT_THROW(exp::run_realtime(world, rc), std::logic_error);
  EXPECT_THROW(world.run(), std::logic_error);
  world.reset(cfg);
  EXPECT_NO_THROW(world.run());
}

TEST(Realtime, AggregatesMatchFreeRunning) {
  const sim::WorldConfig cfg = short_attack_config();

  sim::World free_running(cfg);
  const sim::SimulationSummary baseline = free_running.run();

  // A period far below the tick's compute time makes every tick overrun —
  // the executor takes the no-sleep re-phasing path and the test stays
  // fast. Determinism must hold regardless of the deadline behavior.
  sim::World realtime(cfg);
  exp::RealtimeConfig rc;
  rc.period_s = 1e-5;
  const exp::RealtimeReport report = exp::run_realtime(realtime, rc);

  expect_summary_identical(baseline, report.summary);
  EXPECT_EQ(report.ticks, 200u);
  ASSERT_EQ(report.phases.size(), 5u);
  // The labels name the World phase each one times, in step order.
  const char* const labels[] = {"tick", "traffic", "project_sweep", "ego",
                                "monitor"};
  for (std::size_t p = 0; p < report.phases.size(); ++p)
    EXPECT_EQ(report.phases[p].name, labels[p]) << p;
  for (const exp::PhaseStats& phase : report.phases) {
    EXPECT_EQ(phase.latency_s.count(), report.ticks);
    EXPECT_EQ(phase.hist_us.total(), report.ticks);
  }
  EXPECT_EQ(report.wake_error_s.count(), report.ticks);
}

TEST(Realtime, OverrunsMonotoneUnderSlowTickFault) {
  sim::WorldConfig cfg = short_attack_config();
  cfg.duration = 0.05;  // 5 ticks: the fault hook sleeps 2x the period each

  sim::World fast_world(cfg);
  exp::RealtimeConfig fast_rc;
  fast_rc.period_s = 0.001;
  const exp::RealtimeReport fast = exp::run_realtime(fast_world, fast_rc);

  sim::World slow_world(cfg);
  exp::RealtimeConfig slow_rc;
  slow_rc.period_s = 0.001;
  slow_rc.slow_tick_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  const exp::RealtimeReport slow = exp::run_realtime(slow_world, slow_rc);

  // The injected fault burns two periods inside every tick: every deadline
  // is missed, and that dominates whatever the unfaulted run did.
  EXPECT_EQ(slow.ticks, fast.ticks);
  EXPECT_EQ(slow.overruns, slow.ticks);
  EXPECT_GE(slow.overruns, fast.overruns);
  EXPECT_EQ(slow.miss_fraction(), 1.0);

  // Histogram monotonicity: the whole-tick histogram's clamping top bin
  // (>= 2x the budget) absorbs every faulted tick, never fewer than the
  // unfaulted run put there.
  const auto& fast_hist = fast.phases[0].hist_us;
  const auto& slow_hist = slow.phases[0].hist_us;
  const std::size_t top = slow_hist.bins() - 1;
  EXPECT_EQ(slow_hist.bin_count(top), slow.ticks);
  EXPECT_GE(slow_hist.bin_count(top), fast_hist.bin_count(top));

  // Determinism again: the fault hook changes timing only.
  expect_summary_identical(fast.summary, slow.summary);
}

TEST(Realtime, FifoTapMatchesMessageLogOracle) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() /
      ("scaa_tap_test." + std::to_string(static_cast<long long>(::getpid())));
  fs::remove(path);
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);

  // Reader first: a FIFO's O_WRONLY open blocks until the read end exists.
  std::vector<std::uint8_t> streamed;
  std::thread reader([&streamed, &path] {
    const int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    std::uint8_t buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0)
      streamed.insert(streamed.end(), buf, buf + n);
    ::close(fd);
  });

  sim::WorldConfig cfg = short_attack_config();
  cfg.duration = 0.5;
  sim::World world(cfg);

  // The in-process oracle and the FIFO tap subscribe to the same bus and
  // see the identical lazily-serialized frames.
  msg::MessageLog log;
  log.record_all(world.message_bus(), [] { return std::uint64_t{0}; });
  std::uint64_t frames = 0;
  {
    exp::FifoTap tap(world.message_bus(), path.string());
    world.run();
    EXPECT_FALSE(tap.broken());
    frames = tap.frames_streamed();
  }  // tap destructor unsubscribes; its fd closing EOFs the reader
  log.stop(world.message_bus());
  reader.join();
  fs::remove(path);

  ASSERT_GT(log.size(), 0u);
  EXPECT_EQ(frames, log.size());

  std::vector<std::uint8_t> oracle;
  for (const msg::LogEntry& entry : log.entries())
    exp::append_tap_frame(oracle, entry.frame.view());
  ASSERT_EQ(streamed.size(), oracle.size());
  EXPECT_EQ(streamed, oracle);
}

TEST(Realtime, FifoTapLatchesBrokenPipe) {
  namespace fs = std::filesystem;
  const fs::path path =
      fs::temp_directory_path() /
      ("scaa_tap_epipe." + std::to_string(static_cast<long long>(::getpid())));
  fs::remove(path);
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);

  // O_NONBLOCK lets the read end open without a writer, which in turn lets
  // the tap's O_WRONLY open succeed immediately.
  const int reader = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);

  msg::PubSubBus bus;
  exp::FifoTap tap(bus, path.string());
  msg::CarState cs;
  cs.mono_time = 1;
  bus.publish(cs);
  EXPECT_EQ(tap.frames_streamed(), 1u);
  EXPECT_FALSE(tap.broken());

  // Reader hangs up: the very next write hits EPIPE (SIGPIPE is ignored),
  // the latch keeps that errno, and further publishes are muted.
  ASSERT_EQ(::close(reader), 0);
  bus.publish(cs);
  EXPECT_TRUE(tap.broken());
  EXPECT_EQ(tap.write_errno(), EPIPE);
  EXPECT_EQ(tap.frames_streamed(), 1u);
  bus.publish(cs);
  EXPECT_EQ(tap.frames_streamed(), 1u);

  fs::remove(path);
}

/// Extract the one line starting with @p prefix from multi-line output.
std::string line_starting_with(const std::string& text,
                               const std::string& prefix) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(prefix, 0) == 0) return line;
  return {};
}

TEST(Realtime, CliSummaryRowByteIdenticalAcrossModes) {
  std::ostringstream free_out, free_err;
  ASSERT_EQ(cli::run_campaign_command(
                "run", {"--duration", "1", "--format", "csv"}, free_out,
                free_err),
            0);

  std::ostringstream rt_out, rt_err;
  ASSERT_EQ(cli::run_campaign_command(
                "run",
                {"--duration", "1", "--realtime", "--period", "0.00001",
                 "--format", "csv"},
                rt_out, rt_err),
            0);

  const std::string free_summary =
      line_starting_with(free_out.str(), "summary,");
  const std::string rt_summary = line_starting_with(rt_out.str(), "summary,");
  ASSERT_FALSE(free_summary.empty());
  EXPECT_EQ(free_summary, rt_summary);

  // The realtime report additionally carries the accounting rows.
  EXPECT_FALSE(line_starting_with(rt_out.str(), "phase:tick,").empty());
  EXPECT_FALSE(line_starting_with(rt_out.str(), "deadline,").empty());
  EXPECT_TRUE(line_starting_with(free_out.str(), "deadline,").empty());
}

TEST(Realtime, CliUsageErrorsExitTwo) {
  const std::vector<std::vector<std::string>> bad = {
      {"--period", "0.01"},                       // --period without --realtime
      {"--miss-budget", "0.5"},                   // likewise
      {"--realtime", "--period", "0"},            // out of range
      {"--realtime", "--period", "100"},          // out of range
      {"--realtime", "--miss-budget", "1.5"},     // not a fraction
      {"--realtime", "--miss-budget", "-0.1"},    // not a fraction
      {"--duration", "0"},                        // empty simulation
      {"--duration", "90000"},                    // > 24 h
      {"--scenario", "5"},                        // unknown scenario
  };
  for (const auto& tokens : bad) {
    std::ostringstream out, err;
    EXPECT_EQ(cli::run_campaign_command("run", tokens, out, err), 2)
        << "tokens: " << (tokens.empty() ? "" : tokens.front());
    EXPECT_FALSE(err.str().empty());
  }
}

TEST(Realtime, CliMissBudgetExitsThreeWithReportWritten) {
  // A 5 us period makes every tick overrun; a zero budget turns that into
  // the miss-budget exit. The report must still reach the sink.
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_campaign_command(
                "run",
                {"--duration", "0.1", "--realtime", "--period", "0.000005",
                 "--miss-budget", "0", "--format", "csv"},
                out, err),
            3);
  EXPECT_NE(err.str().find("miss budget exceeded"), std::string::npos);
  EXPECT_FALSE(line_starting_with(out.str(), "summary,").empty());
  EXPECT_FALSE(line_starting_with(out.str(), "deadline,").empty());
}

}  // namespace
