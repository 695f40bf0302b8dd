// tickbench: the measuring half of the tick-level benchmark.
//
// One process, no forked workers. It builds one workload's inputs, runs it
// through the public module APIs, times those calls from outside, and prints
// one JSON object on stdout. perfbench/run.py builds this binary, checks the
// digests it prints against the pinned references, adds host provenance and
// turns the raw numbers into the benchmark's metrics. README.md beside this
// file documents every metric and the phase-to-code mapping.
//
//   tickbench --workload W --seconds S --seed N --trace 0|1 --threads T
//             --workdir DIR [--quick] [--pin]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "can/database.hpp"
#include "can/packer.hpp"
#include "cli/campaigns.hpp"
#include "cli/report.hpp"
#include "defense/harness.hpp"
#include "exp/campaign.hpp"
#include "exp/checkpoint.hpp"
#include "exp/realtime.hpp"
#include "fault/plan.hpp"
#include "msg/bus.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace {

using namespace scaa;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Every campaign grid is built from the paper's base seed, so each pass
/// can be checked against pinned outputs (BENCH_table4.json and
/// perfbench/reference.txt). --seed drives only the benchmark's own
/// choices: kernel operands and which items the traced run samples.
constexpr std::uint64_t kGridSeed = 2022;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Deterministic output digests.

void fold(util::Fnv1a64& h, double v) { h.update(util::double_bits(v)); }

void fold(util::Fnv1a64& h, const sim::SimulationSummary& s) {
  h.update(s.any_hazard).update(static_cast<std::uint64_t>(s.first_hazard));
  fold(h, s.first_hazard_time);
  h.update(s.hazard_h1).update(s.hazard_h2).update(s.hazard_h3);
  fold(h, s.hazard_h1_time);
  fold(h, s.hazard_h2_time);
  fold(h, s.hazard_h3_time);
  h.update(s.any_accident).update(static_cast<std::uint64_t>(s.first_accident));
  fold(h, s.first_accident_time);
  h.update(s.accident_a1).update(s.accident_a2).update(s.accident_a3);
  h.update(s.alert_events).update(s.steer_saturated_events).update(s.fcw_events);
  h.update(s.alert_before_hazard).update(s.lane_invasions);
  fold(h, s.lane_invasion_rate);
  h.update(s.attack_activated);
  fold(h, s.attack_start);
  fold(h, s.attack_duration);
  fold(h, s.tth);
  h.update(s.frames_corrupted).update(s.driver_engaged);
  fold(h, s.driver_engage_time);
  fold(h, s.driver_perception_time);
  fold(h, s.sim_end_time);
  h.update(s.can_checksum_rejects).update(s.panda_frames_blocked);
  for (const std::uint64_t v : s.faults_fired) h.update(v);
  for (const std::uint64_t v : s.faults_suppressed) h.update(v);
}

void fold(util::Fnv1a64& h, const defense::DefenseOutcome& o) {
  h.update(o.invariant_alarmed).update(o.monitor_alarmed);
  fold(h, o.invariant_time);
  fold(h, o.monitor_time);
  fold(h, o.invariant_latency);
  fold(h, o.monitor_latency);
  h.update(o.detected_before_hazard).update(o.degraded_entries);
  fold(h, o.degraded_time);
}

void fold(util::Fnv1a64& h, const exp::Aggregate& a) {
  h.update(a.simulations).update(a.sims_with_alerts);
  h.update(a.sims_with_hazards).update(a.sims_with_accidents);
  h.update(a.hazards_without_alerts).update(a.fcw_activations);
  fold(h, a.lane_invasion_rate_mean);
  fold(h, a.tth_mean);
  fold(h, a.tth_std);
}

void fold(util::Fnv1a64& h, const cli::Cell& cell) {
  if (const auto* s = std::get_if<std::string>(&cell)) h.update(*s);
  else if (const auto* d = std::get_if<double>(&cell)) fold(h, *d);
  else if (const auto* i = std::get_if<long long>(&cell))
    h.update(static_cast<std::uint64_t>(*i));
  else h.update(std::get<bool>(cell));
}

std::uint64_t rows_digest(const std::vector<std::vector<cli::Cell>>& rows) {
  util::Fnv1a64 h;
  for (const auto& row : rows)
    for (const cli::Cell& cell : row) fold(h, cell);
  return h.digest();
}

bool same_summary(const sim::SimulationSummary& a,
                  const sim::SimulationSummary& b) {
  util::Fnv1a64 ha, hb;
  fold(ha, a);
  fold(hb, b);
  return ha.digest() == hb.digest();
}

std::uint64_t ticks_of(const sim::SimulationSummary& s, double dt) {
  return static_cast<std::uint64_t>(std::llround(s.sim_end_time / dt));
}

// ---------------------------------------------------------------------------
// Workloads.

struct Leg {
  std::string name;
  std::vector<exp::CampaignItem> grid;
  std::string family;     // faults_sweep only: the report row it feeds
  std::string intensity;
};

struct Workload {
  std::string name;
  bool quick = false;
  std::size_t threads = 1;
  std::vector<Leg> legs;
  bool runner = false;      // table4_mix / faults_sweep: exp's streaming runner
  bool checkpoints = false; // faults_sweep: per-leg checkpoint stems
  bool defense = false;     // defense_tap: harness + raw wire subscriber
};

const cli::Table4Strategy& table4_row(attack::StrategyKind kind) {
  for (const cli::Table4Strategy& row : cli::table4_strategies())
    if (row.kind == kind) return row;
  throw std::logic_error("no Table IV row for strategy");
}

std::vector<exp::CampaignItem> table4_grid(const cli::Table4Strategy& row,
                                           int reps) {
  exp::CampaignConfig cc;
  cc.base_seed = kGridSeed;
  return exp::make_grid(row.kind, row.strategic, /*driver_enabled=*/true, cc,
                        reps * row.rep_multiplier);
}

/// The plan text of one quick-mode faults cell (`faults --fault-plan`).
constexpr const char* kQuickFaultPlan = "can_drop rate=0.05\n";

/// The cells of `scaa_campaign faults`' built-in sweep, in report order, as
/// fault-plan text. The timed pass runs cli::faults_report itself; these
/// copies exist so the benchmark can count the sweep's ticks and replay its
/// items one by one. `tickbench --pin` proves them equal to the built-in
/// sweep by comparing the aggregates row by row.
struct FaultCellText {
  const char* family;
  const char* intensity;
  const char* plan;  // empty: the fault-free cell
};
constexpr FaultCellText kFaultSweep[] = {
    {"none", "-", ""},
    {"can_drop", "low", "can_drop rate=0.01"},
    {"can_drop", "med", "can_drop rate=0.05"},
    {"can_drop", "high", "can_drop rate=0.2"},
    {"can_delay", "low", "can_delay rate=0.01 ticks=2"},
    {"can_delay", "med", "can_delay rate=0.05 ticks=5"},
    {"can_delay", "high", "can_delay rate=0.2 ticks=10"},
    {"can_corrupt", "low", "can_corrupt rate=0.005"},
    {"can_corrupt", "med", "can_corrupt rate=0.02"},
    {"can_corrupt", "high", "can_corrupt rate=0.1"},
    {"can_busoff", "low", "can_busoff window=20:20.5"},
    {"can_busoff", "med", "can_busoff window=20:22"},
    {"can_busoff", "high", "can_busoff window=20:25"},
    {"sensor_dropout", "low", "sensor_dropout rate=0.05"},
    {"sensor_dropout", "med", "sensor_dropout rate=0.2"},
    {"sensor_dropout", "high", "sensor_dropout rate=0.5"},
    {"sensor_freeze", "low", "sensor_freeze rate=0.05"},
    {"sensor_freeze", "med", "sensor_freeze rate=0.2"},
    {"sensor_freeze", "high", "sensor_freeze rate=0.5"},
    {"sensor_noise", "low", "sensor_noise rate=1 mag=0.1"},
    {"sensor_noise", "med", "sensor_noise rate=1 mag=0.5"},
    {"sensor_noise", "high", "sensor_noise rate=1 mag=2"},
    {"ecu_stall", "low", "ecu_stall rate=0.001 ticks=5"},
    {"ecu_stall", "med", "ecu_stall rate=0.005 ticks=10"},
    {"ecu_stall", "high", "ecu_stall rate=0.02 ticks=25"},
};

/// The two legs of one faults cell, named exactly as faults_report names
/// them (so mirrored checkpoint stems land on the same file names).
void add_fault_cell(Workload& w, const std::string& family,
                    const std::string& intensity, const std::string& plan_text) {
  std::shared_ptr<const fault::FaultPlan> plan;
  if (!plan_text.empty())
    plan = std::make_shared<fault::FaultPlan>(
        fault::FaultPlan::parse_text(plan_text, "<faults cell>"));
  const std::string tag = "faults " + family + "-" + intensity;
  const cli::Table4Strategy none{attack::StrategyKind::kNone, false, 1};
  const cli::Table4Strategy aware{attack::StrategyKind::kContextAware, true, 1};
  for (const auto& [suffix, row] :
       {std::pair{" benign", none}, std::pair{" attack", aware}}) {
    Leg leg{tag + suffix, table4_grid(row, 1), family, intensity};
    for (exp::CampaignItem& item : leg.grid) item.fault_plan = plan;
    w.legs.push_back(std::move(leg));
  }
}

Workload make_workload(const std::string& name, bool quick,
                       std::size_t threads) {
  Workload w;
  w.name = name;
  w.quick = quick;
  const int reps = quick ? 1 : 2;
  if (name == "table4_mix") {
    w.runner = true;
    w.threads = threads;
    for (const cli::Table4Strategy& row : cli::table4_strategies())
      w.legs.push_back({to_string(row.kind), table4_grid(row, reps), "", ""});
  } else if (name == "nominal_1t") {
    const auto& row = table4_row(attack::StrategyKind::kNone);
    w.legs.push_back({to_string(row.kind), table4_grid(row, reps), "", ""});
  } else if (name == "defense_tap") {
    w.defense = true;
    const auto& row = table4_row(attack::StrategyKind::kContextAware);
    w.legs.push_back({to_string(row.kind), table4_grid(row, reps), "", ""});
  } else if (name == "faults_sweep") {
    w.runner = true;
    w.checkpoints = true;
    w.threads = threads;
    if (quick) {
      add_fault_cell(w, "none", "-", "");
      add_fault_cell(w, "custom", "plan", kQuickFaultPlan);
    } else {
      for (const FaultCellText& cell : kFaultSweep)
        add_fault_cell(w, cell.family, cell.intensity, cell.plan);
    }
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<const exp::CampaignItem*> all_items(const Workload& w) {
  std::vector<const exp::CampaignItem*> items;
  for (const Leg& leg : w.legs)
    for (const exp::CampaignItem& item : leg.grid) items.push_back(&item);
  return items;
}

// ---------------------------------------------------------------------------
// Tick latency: 1 ns bins up to 100 us (one overflow bin above). Each timed
// slice (a pass, or a replay slice) yields its own p50 and p99; the run
// reports their medians, so a slow stretch of the shared host moves the
// result only when it covers most of the run.

struct LatencyHist {
  static constexpr std::size_t kBins = 100'000;
  std::vector<std::uint64_t> bins = std::vector<std::uint64_t>(kBins + 1, 0);
  std::uint64_t samples = 0;
  std::uint64_t slice_samples = 0;
  std::vector<double> p50_us, p99_us;  // one per closed slice

  void add(std::int64_t ns) {
    const auto bin = static_cast<std::size_t>(std::max<std::int64_t>(ns, 0));
    ++bins[std::min(bin, kBins)];
    ++slice_samples;
  }

  /// Records the open slice's quantiles and starts a new slice.
  void close_slice() {
    if (slice_samples == 0) return;
    p50_us.push_back(quantile_us(0.50));
    p99_us.push_back(quantile_us(0.99));
    samples += slice_samples;
    slice_samples = 0;
    std::fill(bins.begin(), bins.end(), 0);
  }

 private:
  double quantile_us(double q) const {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(slice_samples))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i <= kBins; ++i) {
      seen += bins[i];
      if (seen >= rank) return static_cast<double>(i) / 1000.0;
    }
    return static_cast<double>(kBins) / 1000.0;
  }
};

/// Step one fresh World to the end, timing every World::step().
sim::SimulationSummary run_stepped(const sim::WorldConfig& cfg,
                                   LatencyHist& hist) {
  sim::World world(cfg);
  auto last = Clock::now();
  bool more = true;
  while (more) {
    more = world.step();
    const auto t = Clock::now();
    hist.add(ns_between(last, t));
    last = t;
  }
  return world.summarize();
}

/// Folds every wire frame of every topic into a digest: the paper's
/// eavesdropper, on the same subscribe_raw path exp::FifoTap uses.
struct WireFold {
  util::Fnv1a64 digest;
  std::uint64_t bytes = 0;

  void attach(msg::PubSubBus& bus) {
    for (std::size_t t = 1; t <= msg::kTopicCount; ++t)
      bus.subscribe_raw(static_cast<msg::Topic>(t),
                        [this](const msg::WireFrame& frame) {
                          digest.update(static_cast<std::uint64_t>(frame.topic));
                          digest.update(frame.sequence);
                          digest.update_bytes(frame.payload.data(),
                                              frame.payload.size());
                          bytes += frame.payload.size();
                        });
  }
};

struct DefenseRun {
  sim::SimulationSummary summary;
  defense::DefenseOutcome outcome;
  std::uint64_t wire_digest = 0;
  std::uint64_t wire_bytes = 0;
};

/// One defense_tap item: World + DefenseHarness + raw subscriber on every
/// topic. Tick latency goes to @p hist as the interval between consecutive
/// carState publishes (DefenseHarness::run owns the step loop).
DefenseRun run_defended(const sim::WorldConfig& cfg, LatencyHist& hist) {
  WireFold fold;
  sim::World world(cfg);
  defense::DefenseHarness harness(world, defense::InvariantConfig{},
                                  defense::MonitorConfig{});
  fold.attach(world.message_bus());
  Clock::time_point last{};
  world.message_bus().subscribe<msg::CarState>(
      [&last, &hist](const msg::CarState&) {
        const auto t = Clock::now();
        if (last != Clock::time_point{}) hist.add(ns_between(last, t));
        last = t;
      });
  DefenseRun run;
  run.outcome = harness.run(&run.summary);
  run.wire_digest = fold.digest.digest();
  run.wire_bytes = fold.bytes;
  return run;
}

// ---------------------------------------------------------------------------
// One timed pass over a workload.

struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t ticks = 0;  // own-loop workloads only (runner: pinned)
  std::uint64_t sims = 0;
  std::uint64_t failed = 0;  // simulations that threw
  std::uint64_t digest = 0;
  std::vector<std::pair<std::string, exp::Aggregate>> aggregates;  // runner
};

struct Context {
  std::string workdir;
  std::uint64_t seed = 0;
  exp::WorldAssets assets;
  LatencyHist latency;
};

std::uint64_t grid_size(const Workload& w) {
  std::uint64_t n = 0;
  for (const Leg& leg : w.legs) n += leg.grid.size();
  return n;
}

std::string quick_plan_file(const Context& ctx) {
  const std::string path = ctx.workdir + "/quick.plan";
  if (!fs::exists(path)) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fputs(kQuickFaultPlan, f);
    std::fclose(f);
  }
  return path;
}

Pass run_pass(const Workload& w, Context& ctx, int index) {
  Pass p;
  p.sims = grid_size(w);
  util::Fnv1a64 h;
  // Checkpoint stems go to a fresh directory per pass, removed afterwards.
  const std::string stem_dir = ctx.workdir + "/pass" + std::to_string(index);
  cli::CampaignOptions faults;
  if (w.checkpoints) {
    faults.reps = 1;
    faults.threads = w.threads;
    faults.seed = kGridSeed;
    faults.checkpoint = stem_dir + "/ckpt";
    if (w.quick) faults.fault_plan = quick_plan_file(ctx);
  }

  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  try {
    if (w.checkpoints) {
      const cli::Report report = cli::faults_report(faults, nullptr);
      h.update(rows_digest(report.rows()));
    } else if (w.runner) {
      exp::CampaignConfig cc;
      cc.threads = w.threads;
      for (const Leg& leg : w.legs) {
        const exp::Aggregate agg = exp::run_campaign_streaming(leg.grid, cc);
        p.aggregates.emplace_back(leg.name, agg);
      }
    } else {
      for (const exp::CampaignItem& item : w.legs.front().grid) {
        try {
          const sim::WorldConfig cfg = exp::world_config_for(item, ctx.assets);
          if (w.defense) {
            const DefenseRun run = run_defended(cfg, ctx.latency);
            fold(h, run.summary);
            fold(h, run.outcome);
            h.update(run.wire_digest).update(run.wire_bytes);
            p.ticks += ticks_of(run.summary, cfg.dt);
          } else {
            const sim::SimulationSummary s = run_stepped(cfg, ctx.latency);
            fold(h, s);
            p.ticks += ticks_of(s, cfg.dt);
          }
        } catch (const std::exception& e) {
          std::cerr << "tickbench: item failed: " << e.what() << "\n";
          ++p.failed;
        }
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "tickbench: pass failed: " << e.what() << "\n";
    p.failed = p.sims;
  }
  p.wall_s = seconds_between(t0, Clock::now());
  p.cpu_s = process_cpu_s() - cpu0;
  ctx.latency.close_slice();
  for (const auto& [name, agg] : p.aggregates) {
    h.update(name);
    fold(h, agg);
  }
  p.digest = h.digest();
  std::error_code ec;
  fs::remove_all(stem_dir, ec);
  return p;
}

/// Moves the calling thread to the next CPU of the process's affinity mask,
/// one CPU per timed slice. The vCPUs of a shared host differ in speed (on
/// a 4-vCPU host one ran ~15% slower than the rest), and a single-thread
/// run would otherwise depend on where the scheduler first put it. Threads
/// created while pinned inherit the pin, so runner passes run after
/// release().
class CpuRotation {
 public:
  explicit CpuRotation(std::uint64_t seed) : next_(seed) {
    CPU_ZERO(&mask_);
    if (::sched_getaffinity(0, sizeof mask_, &mask_) == 0)
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &mask_)) cpus_.push_back(cpu);
  }
  ~CpuRotation() { release(); }

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin_next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }

  void release() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof mask_, &mask_);
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
  std::uint64_t next_;
};

/// Single-thread replay of a runner workload's items with every
/// World::step() timed: the runner itself cannot be observed per tick from
/// outside. Items are visited in an evenly spread order that starts at
/// --seed, and replay slices run between passes, so the latency sample
/// covers the whole run rather than one moment of it.
class LatencyReplay {
 public:
  LatencyReplay(const Workload& w, Context& ctx)
      : items_(all_items(w)), ctx_(ctx), next_(ctx.seed) {}

  void run_for(double seconds, CpuRotation& cpus) {
    cpus.pin_next();
    const auto start = Clock::now();
    while (seconds_between(start, Clock::now()) < seconds) {
      // 7919 is a prime above every grid size: the walk visits all items.
      const exp::CampaignItem& item = *items_[next_ % items_.size()];
      next_ += 7919;
      run_stepped(exp::world_config_for(item, ctx_.assets), ctx_.latency);
    }
    ctx_.latency.close_slice();
    cpus.release();
  }

 private:
  std::vector<const exp::CampaignItem*> items_;
  Context& ctx_;
  std::uint64_t next_;
};

// ---------------------------------------------------------------------------
// Set-up: what happens before the first simulation can start.

struct Setup {
  double total_s = 0.0;
  double assets_s = 0.0;
  double grid_s = 0.0;
};

Setup run_setup(const std::string& name, bool quick, std::size_t threads,
                const std::string& dir) {
  Setup s;
  const auto t0 = Clock::now();
  const exp::WorldAssets assets = exp::WorldAssets::make_default();
  const auto t1 = Clock::now();
  const Workload w = make_workload(name, quick, threads);
  std::vector<std::pair<std::string, std::uint64_t>> names;
  for (const Leg& leg : w.legs)
    names.emplace_back(leg.name, exp::grid_fingerprint(leg.grid));
  const auto t2 = Clock::now();
  {
    // Mirror faults_report: reject slug collisions, then open one stem per
    // leg (header write + fsync), exactly as the timed pass will.
    std::vector<std::unique_ptr<exp::CampaignCheckpoint>> stems;
    if (w.checkpoints) {
      const std::string stem = dir + "/ckpt";
      cli::reject_slice_file_collisions(stem, names);
      for (std::size_t i = 0; i < w.legs.size(); ++i)
        stems.push_back(std::make_unique<exp::CampaignCheckpoint>(
            cli::slice_checkpoint_file(stem, names[i].first, names[i].second),
            w.legs[i].grid, /*resume=*/false));
    }
    s.total_s = seconds_between(t0, Clock::now());
  }
  s.assets_s = seconds_between(t0, t1);
  s.grid_s = seconds_between(t1, t2);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return s;
}

void run_setups(const std::string& name, bool quick, std::size_t threads,
                const Context& ctx, int count, std::vector<Setup>& out) {
  for (int i = 0; i < count; ++i)
    out.push_back(run_setup(name, quick, threads,
                            ctx.workdir + "/setup" + std::to_string(out.size())));
}

// ---------------------------------------------------------------------------
// The traced run.

/// Per-layer numbers, printed in insertion order.
struct Layers {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> values;
  void set(const std::string& name, double value, const std::string& unit) {
    values.push_back({name, {value, unit}});
  }
};

/// Seconds spent per variant of one sampled item, plus what it produced.
struct Totals {
  double plain = 0, harness = 0, wire = 0;
  // Phase split (RealtimeExecutor, period 1e-9 s: nothing sleeps).
  double traffic = 0, project = 0, project_ego = 0, ego = 0, monitor = 0;
  // Observer segments inside mid_tick.
  double adas = 0, can = 0, right = 0;
};

/// Runs @p item under the realtime executor with timestamping observers.
/// Observer timestamps (steady clock, ns) mark, per tick:
///   a  carState publish      - the last sensor publish of publish_sensors
///   c  controlsState publish - the last bus publish of Controls::step
///   r  last CAN receiver call, attached after the car gateway's receiver
///   H  the executor's post-tick hook, after end_tick
/// A stalled ECU publishes no controlsState and sends no frames: c and r
/// then collapse onto a, so that tick's adas and can segments are zero.
sim::SimulationSummary traced_run(const sim::WorldConfig& cfg, Totals& t) {
  sim::World world(cfg);
  Clock::time_point a{}, c{}, r{};
  double adas = 0, can = 0, right = 0;
  world.message_bus().subscribe<msg::CarState>([&](const msg::CarState&) {
    a = c = r = Clock::now();
  });
  world.message_bus().subscribe<msg::ControlsState>(
      [&](const msg::ControlsState&) { c = r = Clock::now(); });
  world.can().attach_receiver([&](const can::CanFrame&) { r = Clock::now(); });
  exp::RealtimeConfig rc;
  rc.period_s = 1e-9;
  rc.slow_tick_hook = [&] {
    const auto h = Clock::now();
    adas += 1e-9 * static_cast<double>(ns_between(a, c));
    can += 1e-9 * static_cast<double>(ns_between(c, r));
    right += 1e-9 * static_cast<double>(ns_between(r, h));
  };
  const exp::RealtimeReport rep = exp::run_realtime(world, rc);
  // phases: [0] tick (includes the hook), [1] begin_tick, [2] both
  // projection sweeps, [3] mid_tick, [4] end_tick.
  t.traffic += rep.phases[1].latency_s.sum();
  t.project += rep.phases[2].latency_s.sum();
  t.ego += rep.phases[3].latency_s.sum();
  t.monitor += rep.phases[4].latency_s.sum();
  // The second sweep projects the Ego alone; the first projects the lead
  // plus the scenario's trailing and neighbour vehicles. The executor times
  // both sweeps as one phase, so the Ego's share is assigned by point count.
  const double points = 2.0 + (cfg.scenario.with_trailing ? 1.0 : 0.0) +
                        (cfg.scenario.with_neighbor ? 1.0 : 0.0);
  t.project_ego += rep.phases[2].latency_s.sum() / points;
  t.adas += adas;
  t.can += can;
  t.right += right;
  return rep.summary;
}

struct Counts {
  std::uint64_t sims = 0, ticks = 0, early = 0, publishes = 0, frames = 0;
  std::uint64_t wire_bytes = 0, corrupted = 0, rejects = 0;
  std::uint64_t fired = 0, suppressed = 0, activated = 0, hazards = 0;
  std::uint64_t alarms = 0;
};

template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

template <typename Fn>
double median_ns_per_op(int reps, std::uint64_t ops, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i)
    v.push_back(timed(fn) * 1e9 / static_cast<double>(ops));
  return median(v);
}

void kernel_layers(Context& ctx, Layers& out) {
  constexpr int kReps = 5;
  double sink = 0.0;

  const geom::Polyline& line = ctx.assets.road->reference();
  constexpr std::size_t kPoints = 200'000;
  const std::vector<geom::Vec2> points =
      cli::projection_workload(line, kPoints, /*lanes=*/1);
  out.set("geom.project_op_ns", median_ns_per_op(kReps, kPoints, [&] {
            double hint = -1.0;
            for (const geom::Vec2 p : points) {
              const auto proj = line.project(p, hint);
              hint = proj.s;
              sink += proj.lateral;
            }
          }),
          "ns");

  constexpr std::uint64_t kBusTicks = 50'000;
  for (const bool wire : {false, true}) {
    msg::PubSubBus bus;
    msg::Latest<msg::GpsLocationExternal> gps(bus);
    msg::Latest<msg::ModelV2> model(bus);
    msg::Latest<msg::RadarState> radar(bus);
    msg::Latest<msg::CarState> car_state(bus);
    msg::Latest<msg::CarControl> car_control(bus);
    msg::Latest<msg::ControlsState> controls_state(bus);
    WireFold fold;
    if (wire) fold.attach(bus);
    out.set(wire ? "msg.publish_wire_op_ns" : "msg.publish_typed_op_ns",
            median_ns_per_op(kReps, cli::bus_tick_workload_count(kBusTicks),
                             [&] {
                               cli::bus_tick_workload(
                                   kBusTicks,
                                   [&bus](const auto& m) { bus.publish(m); });
                             }),
            "ns");
    sink += car_state.value().speed + static_cast<double>(fold.bytes);
  }

  // The two command messages Controls::step packs every tick, with signal
  // values drawn from --seed.
  const can::Database& db = *ctx.assets.db;
  const can::MessageHandle steer = db.handle("STEERING_CONTROL");
  const can::MessageHandle gas = db.handle("GAS_BRAKE_COMMAND");
  const can::SignalHandle steer_sig =
      db.signal_handle("STEERING_CONTROL", can::sig::kSteerAngleCmd);
  const can::SignalHandle accel_sig =
      db.signal_handle("GAS_BRAKE_COMMAND", can::sig::kAccelCmd);
  constexpr std::size_t kFrames = 100'000;
  util::Rng rng(ctx.seed);
  std::vector<std::vector<double>> steer_values, gas_values;
  for (std::size_t i = 0; i < kFrames / 2; ++i) {
    std::vector<double> sv(db.message(steer).signals.size(), can::kSignalUnset);
    sv[steer_sig.signal] = rng.uniform(-30.0, 30.0);
    steer_values.push_back(std::move(sv));
    std::vector<double> gv(db.message(gas).signals.size(), can::kSignalUnset);
    gv[accel_sig.signal] = rng.uniform(-3.0, 2.0);
    gas_values.push_back(std::move(gv));
  }
  std::vector<can::CanFrame> frames(kFrames);
  can::CanPacker packer(db);
  out.set("can.pack_op_ns", median_ns_per_op(kReps, kFrames, [&] {
            packer.reset_counters();
            for (std::size_t i = 0; i < kFrames / 2; ++i) {
              frames[2 * i] = packer.pack(steer, steer_values[i]);
              frames[2 * i + 1] = packer.pack(gas, gas_values[i]);
            }
          }),
          "ns");
  can::CanParser parser(db);
  out.set("can.parse_op_ns", median_ns_per_op(kReps, kFrames, [&] {
            parser.reset();
            for (const can::CanFrame& f : frames) {
              const auto* parsed = parser.parse_flat(f);
              if (parsed != nullptr) sink += parsed->values[0];
            }
          }),
          "ns");

  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kContextAware;
  item.seed = ctx.seed;
  constexpr int kWorlds = 300;
  out.set("sim.world_construct_us",
          1e-3 * median_ns_per_op(kReps, kWorlds, [&] {
            for (int i = 0; i < kWorlds; ++i) {
              sim::World world(exp::world_config_for(item, ctx.assets));
              sink += world.ego_state().speed;
            }
          }),
          "us");
  sim::World world(exp::world_config_for(item, ctx.assets));
  constexpr int kResets = 2'000;
  out.set("sim.world_reset_us", 1e-3 * median_ns_per_op(kReps, kResets, [&] {
            for (int i = 0; i < kResets; ++i) {
              item.seed = ctx.seed + static_cast<std::uint64_t>(i);
              world.reset(exp::world_config_for(item, ctx.assets));
              sink += world.ego_state().speed;
            }
          }),
          "us");
  if (!std::isfinite(sink)) std::cerr << "tickbench: kernel sink overflow\n";
}

/// exp.checkpoint.*: commit the chunks of the workload's first leg through
/// both checkpoint formats, then resume the finished stem.
void checkpoint_layers(const Workload& w, const Context& ctx,
                       const std::vector<sim::SimulationSummary>& sample,
                       Layers& out) {
  constexpr int kStems = 5;
  const std::vector<exp::CampaignItem>& grid = w.legs.front().grid;
  const std::size_t chunks =
      (grid.size() + exp::kCampaignChunk - 1) / exp::kCampaignChunk;
  std::vector<exp::CampaignResult> results(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i)
    results[i] = {grid[i], sample[i % sample.size()]};
  std::vector<exp::AggregateAccumulator> accs(chunks);
  for (std::size_t i = 0; i < grid.size(); ++i)
    accs[i / exp::kCampaignChunk].add(results[i].summary);

  std::vector<double> commit_ms, restore_ms;
  double agg_bytes = 0, results_bytes = 0;
  for (int k = 0; k < kStems; ++k) {
    const std::string dir = ctx.workdir + "/ckpt" + std::to_string(k);
    fs::create_directories(dir);
    const std::string agg_path = dir + "/agg";
    const std::string res_path = dir + "/results";
    {
      exp::CampaignCheckpoint ckpt(agg_path, grid, /*resume=*/false);
      for (std::size_t c = 0; c < chunks; ++c)
        commit_ms.push_back(1e3 * timed([&] { ckpt.commit(c, accs[c]); }));
    }
    {
      exp::ResultsCheckpoint ckpt(res_path, grid, /*resume=*/false);
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t begin = c * exp::kCampaignChunk;
        const std::size_t n =
            std::min(exp::kCampaignChunk, grid.size() - begin);
        ckpt.commit(c, results.data() + begin, n);
      }
    }
    agg_bytes = static_cast<double>(fs::file_size(agg_path));
    results_bytes = static_cast<double>(fs::file_size(res_path));
    restore_ms.push_back(1e3 * timed([&] {
      const exp::CampaignCheckpoint resumed(agg_path, grid, /*resume=*/true);
      if (resumed.completed_chunks() != chunks)
        throw std::runtime_error("checkpoint restore lost chunks");
    }));
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  out.set("exp.checkpoint.commit_ms", median(commit_ms), "ms");
  out.set("exp.checkpoint.bytes", agg_bytes, "B");
  out.set("exp.checkpoint.results_bytes", results_bytes, "B");
  out.set("exp.checkpoint.restore_ms", median(restore_ms), "ms");
}

struct TraceResult {
  Layers layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

TraceResult run_trace(const Workload& w, Context& ctx, double seconds,
                      const std::vector<Setup>& setups, const Pass& pass) {
  TraceResult tr;
  Layers& out = tr.layers;

  // Sample: evenly spread items, offset by --seed, about 12k ticks (four
  // items of ~3k ticks) per second of run budget. Each is simulated in four
  // variants, three rounds.
  const auto items = all_items(w);
  const std::size_t want = std::max<std::size_t>(
      w.quick ? 2 : 8, static_cast<std::size_t>(4.0 * seconds));
  const std::size_t stride = std::max<std::size_t>(1, items.size() / want);
  std::vector<const exp::CampaignItem*> sample;
  for (std::size_t i = ctx.seed % stride; i < items.size(); i += stride)
    sample.push_back(items[i]);

  constexpr int kRounds = 3;
  std::vector<Totals> rounds(kRounds);
  Counts n;
  std::vector<sim::SimulationSummary> plain(sample.size());
  for (int round = 0; round < kRounds; ++round) {
    Totals& t = rounds[round];
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const exp::CampaignItem& item = *sample[i];
      ++tr.attempted;
      try {
        const sim::WorldConfig cfg = exp::world_config_for(item, ctx.assets);
        // Untraced baseline: plain World::run().
        sim::SimulationSummary s;
        {
          sim::World world(cfg);
          t.plain += timed([&] { s = world.run(); });
          if (round == 0) {
            plain[i] = s;
            ++n.sims;
            n.ticks += ticks_of(s, cfg.dt);
            if (s.sim_end_time < cfg.duration - 0.5 * cfg.dt) ++n.early;
            for (std::size_t topic = 1; topic <= msg::kTopicCount; ++topic)
              n.publishes += world.message_bus().published_count(
                  static_cast<msg::Topic>(topic));
            n.frames += world.can().frames_sent();
            n.corrupted += s.frames_corrupted;
            n.rejects += s.can_checksum_rejects;
            for (const std::uint64_t v : s.faults_fired) n.fired += v;
            for (const std::uint64_t v : s.faults_suppressed)
              n.suppressed += v;
            n.activated += s.attack_activated;
            n.hazards += s.any_hazard;
          }
        }
        // Difference passes: harness on, raw subscriber on.
        sim::SimulationSummary hs, ws;
        {
          sim::World world(cfg);
          defense::DefenseHarness harness(world, defense::InvariantConfig{},
                                          defense::MonitorConfig{});
          defense::DefenseOutcome o;
          t.harness += timed([&] { o = harness.run(&hs); });
          if (round == 0) n.alarms += o.invariant_alarmed || o.monitor_alarmed;
        }
        {
          WireFold fold;
          sim::World world(cfg);
          fold.attach(world.message_bus());
          t.wire += timed([&] { ws = world.run(); });
          if (round == 0) n.wire_bytes += fold.bytes;
        }
        const sim::SimulationSummary ts = traced_run(cfg, t);
        // Observers feed nothing back: every variant must reproduce the
        // untraced summary bit for bit.
        if (!same_summary(s, plain[i]) || !same_summary(s, hs) ||
            !same_summary(s, ws) || !same_summary(s, ts)) {
          std::cerr << "tickbench: traced summary differs from untraced\n";
          ++tr.failed;
        }
      } catch (const std::exception& e) {
        std::cerr << "tickbench: traced item failed: " << e.what() << "\n";
        ++tr.failed;
      }
    }
  }

  const double ticks = static_cast<double>(std::max<std::uint64_t>(n.ticks, 1));
  const auto per_tick_ns = [&](double Totals::*field) {
    std::vector<double> v;
    for (const Totals& t : rounds) v.push_back((t.*field) * 1e9 / ticks);
    return median(v);
  };
  const auto diff_ns = [&](double Totals::*on, double Totals::*off) {
    std::vector<double> v;
    for (const Totals& t : rounds) v.push_back((t.*on - t.*off) * 1e9 / ticks);
    return median(v);
  };
  // Phase split: four contiguous executor phases; sim.tick_ns is their sum.
  const double traffic = per_tick_ns(&Totals::traffic);
  const double project = per_tick_ns(&Totals::project);
  const double ego = per_tick_ns(&Totals::ego);
  const double monitor = per_tick_ns(&Totals::monitor);
  const double tick = traffic + project + ego + monitor;
  out.set("sim.tick_ns", tick, "ns");
  out.set("sim.traffic_tick_ns", traffic, "ns");
  out.set("geom.project_tick_ns", project, "ns");
  out.set("sim.ego_tick_ns", ego, "ns");
  out.set("sim.monitor_tick_ns", monitor, "ns");
  // mid_tick split: adas and can are observer-to-observer intervals;
  // driver_vehicle is [last CAN receiver, hook] minus the Ego's projection
  // share and end_tick; sensors closes mid_tick.
  const double adas = per_tick_ns(&Totals::adas);
  const double can = per_tick_ns(&Totals::can);
  const double driver_vehicle = per_tick_ns(&Totals::right) -
                                per_tick_ns(&Totals::project_ego) - monitor;
  out.set("sensors.tick_ns", ego - adas - can - driver_vehicle, "ns");
  out.set("adas.tick_ns", adas, "ns");
  out.set("can.tick_ns", can, "ns");
  out.set("driver_vehicle.tick_ns", driver_vehicle, "ns");
  out.set("defense.tick_ns", diff_ns(&Totals::harness, &Totals::plain), "ns");
  out.set("msg.wire_tick_ns", diff_ns(&Totals::wire, &Totals::plain), "ns");
  out.set("trace.overhead_ns", tick - per_tick_ns(&Totals::plain), "ns");

  kernel_layers(ctx, out);

  const double sims = static_cast<double>(std::max<std::uint64_t>(n.sims, 1));
  out.set("sim.ticks", static_cast<double>(n.ticks), "count");
  out.set("sim.early_stop_frac", static_cast<double>(n.early) / sims, "ratio");
  out.set("msg.publishes_per_tick", static_cast<double>(n.publishes) / ticks,
          "1/tick");
  out.set("msg.wire_bytes_per_tick", static_cast<double>(n.wire_bytes) / ticks,
          "B/tick");
  out.set("can.frames_per_tick", static_cast<double>(n.frames) / ticks,
          "1/tick");
  out.set("can.frames_corrupted", static_cast<double>(n.corrupted), "count");
  out.set("can.checksum_rejects", static_cast<double>(n.rejects), "count");
  out.set("fault.fired", static_cast<double>(n.fired), "count");
  out.set("fault.suppressed", static_cast<double>(n.suppressed), "count");
  out.set("attack.activation_frac", static_cast<double>(n.activated) / sims,
          "ratio");
  out.set("attack.hazard_frac", static_cast<double>(n.hazards) / sims,
          "ratio");
  out.set("defense.alarm_frac", static_cast<double>(n.alarms) / sims, "ratio");

  // Campaign level, from the untraced pass this run also made.
  double chunks = 0;
  for (const Leg& leg : w.legs)
    chunks += std::ceil(static_cast<double>(leg.grid.size()) /
                        static_cast<double>(exp::kCampaignChunk));
  out.set("exp.busy_frac",
          pass.cpu_s / (static_cast<double>(w.threads) * pass.wall_s), "ratio");
  out.set("exp.legs", static_cast<double>(w.legs.size()), "count");
  out.set("exp.chunks_per_leg", chunks / static_cast<double>(w.legs.size()),
          "count");
  checkpoint_layers(w, ctx, plain, out);
  std::vector<double> assets_ms, grid_ms;
  for (const Setup& s : setups) {
    assets_ms.push_back(1e3 * s.assets_s);
    grid_ms.push_back(1e3 * s.grid_s);
  }
  out.set("setup.assets_ms", median(assets_ms), "ms");
  out.set("setup.grid_ms", median(grid_ms), "ms");
  return tr;
}

// ---------------------------------------------------------------------------
// --pin: the one-off reference computation.

/// Runs every item of @p w on one thread with a fresh World each and
/// returns the tick total; for runner workloads also proves that the
/// per-item results fold to the same aggregates (table4_mix) or report rows
/// (faults_sweep) as the timed pass, whose digest is then pinned.
std::uint64_t pin_ticks(const Workload& w, Context& ctx, const Pass& pass) {
  std::uint64_t ticks = 0;
  std::vector<std::vector<cli::Cell>> rows;
  exp::Aggregate benign;
  for (std::size_t l = 0; l < w.legs.size(); ++l) {
    const Leg& leg = w.legs[l];
    std::vector<exp::CampaignResult> results;
    for (const exp::CampaignItem& item : leg.grid) {
      const sim::WorldConfig cfg = exp::world_config_for(item, ctx.assets);
      sim::World world(cfg);
      const sim::SimulationSummary s = world.run();
      ticks += ticks_of(s, cfg.dt);
      results.push_back({item, s});
    }
    const exp::Aggregate agg = exp::aggregate(results);
    if (w.checkpoints) {
      if (l % 2 == 0) {
        benign = agg;
        continue;
      }
      const auto ll = [](std::size_t v) { return static_cast<long long>(v); };
      rows.push_back({leg.family, leg.intensity, ll(benign.simulations),
                      ll(benign.sims_with_alerts), benign.alert_fraction(),
                      ll(agg.simulations), ll(agg.sims_with_alerts),
                      agg.alert_fraction(), ll(agg.sims_with_hazards),
                      ll(agg.hazards_without_alerts), agg.tth_mean});
    } else if (w.runner) {
      util::Fnv1a64 a, b;
      fold(a, agg);
      fold(b, pass.aggregates.at(l).second);
      if (a.digest() != b.digest())
        throw std::runtime_error("pin: per-item fold differs from runner for " +
                                 leg.name);
    }
  }
  if (w.checkpoints) {
    util::Fnv1a64 h;
    h.update(rows_digest(rows));
    if (h.digest() != pass.digest)
      throw std::runtime_error(
          "pin: the benchmark's faults cells differ from faults_report's "
          "built-in sweep");
  }
  return ticks;
}

// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  double seconds = 10.0;
  std::uint64_t seed = 1;
  bool trace = false;
  std::size_t threads = 1;
  std::string workdir;
  bool quick = false;
  bool pin = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") o.workload = value();
    else if (flag == "--seconds") o.seconds = std::stod(value());
    else if (flag == "--seed") o.seed = std::stoull(value());
    else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      o.trace = v == "1";
    }
    else if (flag == "--threads") o.threads = std::stoul(value());
    else if (flag == "--workdir") o.workdir = value();
    else if (flag == "--quick") o.quick = true;
    else if (flag == "--pin") o.pin = true;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (o.workload.empty() || o.workdir.empty() || o.threads == 0 ||
      !(o.seconds > 0.0))
    throw std::invalid_argument(
        "usage: tickbench --workload W --workdir DIR [--seconds S] [--seed N] "
        "[--trace 0|1] [--threads T] [--quick] [--pin]");
  return o;
}

std::string pass_json(const Pass& p) {
  return "{\"wall_s\":" + num(p.wall_s) + ",\"cpu_s\":" + num(p.cpu_s) +
         ",\"ticks\":" + std::to_string(p.ticks) +
         ",\"sims\":" + std::to_string(p.sims) +
         ",\"failed\":" + std::to_string(p.failed) + ",\"digest\":\"" +
         hex(p.digest) + "\"}";
}

std::string aggregates_json(const Pass& p) {
  std::string out = "[";
  for (const auto& [name, a] : p.aggregates) {
    if (out.size() > 1) out += ",";
    out += "{\"strategy\":" + quoted(name) +
           ",\"simulations\":" + std::to_string(a.simulations) +
           ",\"sims_with_alerts\":" + std::to_string(a.sims_with_alerts) +
           ",\"sims_with_hazards\":" + std::to_string(a.sims_with_hazards) +
           ",\"sims_with_accidents\":" + std::to_string(a.sims_with_accidents) +
           ",\"hazards_without_alerts\":" +
           std::to_string(a.hazards_without_alerts) +
           ",\"fcw_activations\":" + std::to_string(a.fcw_activations) +
           ",\"lane_invasion_rate_mean\":" + num(a.lane_invasion_rate_mean) +
           ",\"tth_mean\":" + num(a.tth_mean) +
           ",\"tth_std\":" + num(a.tth_std) + "}";
  }
  return out + "]";
}

int run(const Options& o) {
  Context ctx;
  ctx.workdir = o.workdir;
  ctx.seed = o.seed;
  const Workload w = make_workload(o.workload, o.quick, o.threads);
  // Set-up is timed 41 times, before and after the passes; run.py reports
  // the median.
  std::vector<Setup> setups;
  run_setups(o.workload, o.quick, o.threads, ctx, 21, setups);
  ctx.assets = exp::WorldAssets::make_default();

  // Passes run back to back until the next one would end after --seconds
  // (at least one pass). Runner workloads interleave latency replay slices.
  const bool replay = w.runner && !o.trace && !o.pin;
  const double slice = replay ? (o.quick ? 0.05 : 0.075 * o.seconds) : 0.0;
  LatencyReplay latency(w, ctx);
  CpuRotation cpus(o.seed);
  std::vector<Pass> passes;
  const auto start = Clock::now();
  if (replay) latency.run_for(slice, cpus);
  do {
    if (!w.runner) cpus.pin_next();
    passes.push_back(run_pass(w, ctx, static_cast<int>(passes.size())));
    cpus.release();
    if (replay) latency.run_for(slice, cpus);
  } while (!o.trace && !o.pin && !o.quick &&
           seconds_between(start, Clock::now()) + passes.back().wall_s +
                   slice <=
               o.seconds);
  // Time left after the last pass goes to more replay slices.
  while (replay && !o.quick &&
         seconds_between(start, Clock::now()) + slice <= o.seconds)
    latency.run_for(slice, cpus);
  run_setups(o.workload, o.quick, o.threads, ctx, 20, setups);

  std::string json = "{\"workload\":" + quoted(w.name) +
                     ",\"threads\":" + std::to_string(w.threads) +
                     ",\"grid_sims\":" + std::to_string(grid_size(w)) +
                     ",\"compiler\":" + quoted(TICKBENCH_COMPILER) +
                     ",\"build_type\":" + quoted(TICKBENCH_BUILD_TYPE) +
                     ",\"ipo\":" + (TICKBENCH_IPO ? "true" : "false");
  std::string list;
  for (const Setup& s : setups) list += (list.empty() ? "" : ",") + num(s.total_s);
  json += ",\"setup_s\":[" + list + "]";
  list.clear();
  for (const Pass& p : passes) list += (list.empty() ? "" : ",") + pass_json(p);
  json += ",\"passes\":[" + list + "]";
  json += ",\"aggregates\":" + aggregates_json(passes.front());
  if (o.pin) {
    json += ",\"pinned_ticks\":" +
            std::to_string(pin_ticks(w, ctx, passes.front()));
  }
  if (o.trace) {
    const TraceResult tr =
        run_trace(w, ctx, o.seconds, setups, passes.front());
    list.clear();
    for (const auto& [name, v] : tr.layers.values)
      list += (list.empty() ? "" : ",") + quoted(name) + ":{\"value\":" +
              num(v.first) + ",\"unit\":" + quoted(v.second) + "}";
    json += ",\"layers\":{" + list + "}";
    json += ",\"trace_attempted\":" + std::to_string(tr.attempted) +
            ",\"trace_failed\":" + std::to_string(tr.failed);
  }
  json += ",\"latency\":{\"p50_us\":" + num(median(ctx.latency.p50_us)) +
          ",\"p99_us\":" + num(median(ctx.latency.p99_us)) +
          ",\"samples\":" + std::to_string(ctx.latency.samples) +
          ",\"slices\":" + std::to_string(ctx.latency.p50_us.size()) + "}";
  json += ",\"peak_rss_mb\":" + num(peak_rss_mb()) + "}";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "tickbench: " << e.what() << "\n";
    return 1;
  }
}
