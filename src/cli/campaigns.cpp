#include "cli/campaigns.hpp"

#include <cmath>
#include <csignal>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include <charconv>
#include <thread>

#include <signal.h>

#include "cli/args.hpp"
#include "exp/campaign.hpp"
#include "exp/checkpoint.hpp"
#include "exp/param_space.hpp"
#include "exp/realtime.hpp"
#include "exp/shard.hpp"
#include "exp/tables.hpp"
#include "fault/plan.hpp"
#include "geom/polyline.hpp"
#include "sim/world.hpp"
#include "util/mutex.hpp"
#include "util/proc.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace scaa::cli {

std::vector<geom::Vec2> projection_workload(const geom::Polyline& line,
                                            std::size_t ticks,
                                            std::size_t lanes) {
  std::vector<geom::Vec2> points;
  points.reserve(ticks * lanes);
  util::Rng rng(2022);
  std::vector<double> s(lanes);
  for (std::size_t l = 0; l < lanes; ++l)
    s[l] = 30.0 + 50.0 * static_cast<double>(l);
  for (std::size_t t = 0; t < ticks; ++t) {
    for (std::size_t l = 0; l < lanes; ++l) {
      s[l] += rng.uniform(0.25, 0.35);
      if (s[l] > line.length() - 10.0) s[l] = 30.0;
      const geom::Vec2 normal =
          geom::heading_vector(line.heading_at(s[l])).perp();
      points.push_back(line.position_at(s[l]) +
                       normal * rng.uniform(-3.0, 3.0));
    }
  }
  return points;
}

namespace {

long long ll(std::size_t v) { return static_cast<long long>(v); }

void note(std::ostream* progress, const std::string& line) {
  if (progress) *progress << line << "\n" << std::flush;
}

/// Open the checkpoint for one slice (Checkpoint selects the mode:
/// exp::CampaignCheckpoint for streaming aggregates, exp::ResultsCheckpoint
/// for table5's per-item pairing); null when checkpointing is off. Notes
/// restored progress so a resumed run says where it picks up from.
template <class Checkpoint>
std::unique_ptr<Checkpoint> open_checkpoint(
    const CampaignOptions& options, const std::string& slice,
    const std::vector<exp::CampaignItem>& grid, std::ostream* progress) {
  if (options.checkpoint.empty()) return nullptr;
  auto ckpt = std::make_unique<Checkpoint>(
      slice_checkpoint_file(options.checkpoint, slice,
                            exp::grid_fingerprint(grid)),
      grid, options.resume);
  if (ckpt->completed_items() > 0)
    note(progress, "[" + slice + "] resuming: " +
                       std::to_string(ckpt->completed_items()) + "/" +
                       std::to_string(grid.size()) +
                       " sims restored from checkpoint");
  return ckpt;
}

/// One Table IV strategy with its grid built: the unit table4_report,
/// the shard worker, the coordinator, and merge all share,
/// so every mode runs (and fingerprints) the identical experiment.
struct Table4Slice {
  Table4Strategy row;
  std::string name;  ///< slice name, e.g. "table4 Context-Aware"
  std::vector<exp::CampaignItem> grid;
  std::uint64_t fingerprint = 0;
};

/// Build every Table IV slice for @p tag and — when checkpointing — reject
/// slice-file collisions upfront, before any file is opened.
std::vector<Table4Slice> build_table4_slices(const CampaignOptions& options,
                                             const exp::CampaignConfig& cc,
                                             const std::string& tag) {
  std::vector<Table4Slice> slices;
  std::vector<std::pair<std::string, std::uint64_t>> names;
  for (const Table4Strategy& row : table4_strategies()) {
    Table4Slice slice;
    slice.row = row;
    slice.name = tag + " " + to_string(row.kind);
    slice.grid =
        exp::make_grid(row.kind, row.strategic, /*driver_enabled=*/true, cc,
                       options.reps * row.rep_multiplier);
    slice.fingerprint = exp::grid_fingerprint(slice.grid);
    names.emplace_back(slice.name, slice.fingerprint);
    slices.push_back(std::move(slice));
  }
  if (!options.checkpoint.empty())
    reject_slice_file_collisions(options.checkpoint, names);
  return slices;
}

}  // namespace

exp::CampaignConfig campaign_config(const CampaignOptions& options) {
  exp::CampaignConfig cc;
  cc.threads = options.threads;
  cc.base_seed = options.seed;
  cc.repetitions = options.reps;
  return cc;
}

std::string slice_slug(const std::string& name) {
  std::string slug;
  slug.reserve(name.size());
  for (const char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      slug += c;
    } else if (c >= 'A' && c <= 'Z') {
      slug += static_cast<char>(c - 'A' + 'a');
    } else if (!slug.empty() && slug.back() != '-') {
      slug += '-';
    }
  }
  while (!slug.empty() && slug.back() == '-') slug.pop_back();
  return slug;
}

std::string slice_checkpoint_file(const std::string& stem,
                                  const std::string& slice,
                                  std::uint64_t fingerprint,
                                  std::size_t shard,
                                  std::size_t shard_count) {
  return stem + "." + slice_slug(slice) + "-" +
         exp::short_fingerprint(fingerprint) +
         exp::shard_suffix(shard, shard_count);
}

void reject_slice_file_collisions(
    const std::string& stem,
    const std::vector<std::pair<std::string, std::uint64_t>>& slices) {
  // The shard suffix cannot disambiguate two slices that collide unsharded
  // (every shard index would collide the same way), so checking the
  // unsuffixed path covers every mode.
  std::map<std::string, std::string> seen;  // path -> slice name
  for (const auto& [name, fingerprint] : slices) {
    const std::string path = slice_checkpoint_file(stem, name, fingerprint);
    const auto [it, inserted] = seen.emplace(path, name);
    if (!inserted && it->second != name)
      throw std::runtime_error(
          "checkpoint slice collision: '" + it->second + "' and '" + name +
          "' both map to '" + path +
          "' (identical slug and grid fingerprint); rename one slice or use "
          "a different --checkpoint stem");
  }
}

exp::CampaignProgressFn decile_progress(std::ostream* out,
                                        const std::string& tag) {
  if (out == nullptr) return {};
  // The callback is invoked from campaign worker threads. The streaming
  // runner serializes its progress callbacks, but that is the caller's
  // discipline, not this closure's — so the decile bookkeeping carries its
  // own annotated lock and stays correct under any caller.
  struct DecileState {
    util::Mutex mutex;
    int last_decile SCAA_GUARDED_BY(mutex) = -1;
  };
  auto state = std::make_shared<DecileState>();
  return [out, tag, state](const exp::CampaignProgress& p) {
    if (p.total == 0 || p.completed == 0) return;
    const int decile = static_cast<int>(10 * p.completed / p.total);
    // Print only when a new decile is crossed, and track the latest one so
    // a chunk that crosses several deciles emits a single line. completed
    // == total lands in decile 10, so the 100% line prints exactly once —
    // including for campaigns that finish within one chunk.
    const util::MutexLock lock(state->mutex);
    if (decile <= state->last_decile) return;
    state->last_decile = decile;
    *out << "[" << tag << "] " << p.completed << "/" << p.total << " sims\n"
         << std::flush;
  };
}

const std::vector<Table4Strategy>& table4_strategies() {
  // Paper Table III: Random-ST+DUR uses 10x repetitions (14,400 sims) for
  // parameter-space coverage; every other strategy runs the base grid.
  static const std::vector<Table4Strategy> kStrategies = {
      {attack::StrategyKind::kNone, false, 1},
      {attack::StrategyKind::kRandomStDur, false, 10},
      {attack::StrategyKind::kRandomSt, false, 1},
      {attack::StrategyKind::kRandomDur, false, 1},
      {attack::StrategyKind::kContextAware, true, 1},
  };
  return kStrategies;
}

namespace {

/// The Table IV report shell + row shape, shared by the in-process path,
/// the sharded coordinator, and the merge subcommand: all three emit
/// byte-identical reports because they all go through these two functions
/// with bit-identical aggregates.
Report make_table4_report() {
  return Report("Table IV: attack strategy comparison with an alert driver",
                {"strategy", "simulations", "sims_with_alerts",
                 "sims_with_hazards", "sims_with_accidents",
                 "hazards_without_alerts", "fcw_activations",
                 "lane_invasion_rate_mean", "tth_mean", "tth_std"});
}

void add_table4_row(Report& report, const Table4Strategy& row,
                    const exp::Aggregate& agg) {
  report.add_row({to_string(row.kind), ll(agg.simulations),
                  ll(agg.sims_with_alerts), ll(agg.sims_with_hazards),
                  ll(agg.sims_with_accidents), ll(agg.hazards_without_alerts),
                  ll(agg.fcw_activations), agg.lane_invasion_rate_mean,
                  agg.tth_mean, agg.tth_std});
}

/// The slice checkpoint files of every shard of @p slice, in shard order —
/// the coordinator, the manual worker, and merge must agree on these paths
/// exactly, so there is one place that produces them.
std::vector<std::string> shard_slice_files(const CampaignOptions& options,
                                           const Table4Slice& slice,
                                           std::size_t shard_count) {
  std::vector<std::string> paths;
  paths.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s)
    paths.push_back(slice_checkpoint_file(options.checkpoint, slice.name,
                                          slice.fingerprint, s, shard_count));
  return paths;
}

/// Worker side of the coordinator protocol: run this shard's slice of
/// every strategy into its own checkpoint files, reporting cumulative
/// completed-simulation counts (restored + fresh, across all strategies)
/// through @p on_progress after every chunk.
void run_table4_worker_slices(const std::vector<Table4Slice>& slices,
                              const CampaignOptions& options,
                              const exp::CampaignConfig& cc,
                              std::size_t shard, std::size_t shard_count,
                              const std::function<void(std::size_t)>& on_progress) {
  std::size_t base = 0;  // sims completed in earlier strategies
  for (const Table4Slice& slice : slices) {
    const exp::ShardPlan plan(slice.grid.size(), shard_count);
    const exp::ChunkRange range = plan.chunks_for(shard);
    exp::CampaignCheckpoint checkpoint(
        slice_checkpoint_file(options.checkpoint, slice.name,
                              slice.fingerprint, shard, shard_count),
        slice.grid, options.resume);
    exp::run_campaign_streaming(
        slice.grid, cc,
        [&](const exp::CampaignProgress& p) { on_progress(base + p.completed); },
        &checkpoint, &range);
    base += plan.items_in(shard);
    // A slice that was fully restored (or empty) never fires the progress
    // callback; report the strategy boundary explicitly so the coordinator
    // display still reaches 100%.
    on_progress(base);
  }
}

/// Set by the coordinator's SIGINT/SIGTERM handler, read by the mux loop.
/// sig_atomic_t and a handler that only stores are the whole async-signal
/// contract; everything else happens on the main thread afterwards.
volatile std::sig_atomic_t g_coordinator_signal = 0;

void coordinator_signal_handler(int sig) { g_coordinator_signal = sig; }

/// Scoped SIGINT/SIGTERM forwarding for the sharded coordinator. Without
/// it, killing the coordinator orphans workers that keep running and
/// holding their slice-file flocks, so an immediate `--resume` fails with
/// "another process holds this checkpoint". Handlers are installed without
/// SA_RESTART (poll in LineMux::run must see EINTR and re-check the flag)
/// and the previous dispositions are restored on scope exit.
class CoordinatorSignalGuard {
 public:
  CoordinatorSignalGuard() {
    g_coordinator_signal = 0;
    struct sigaction action {};
    action.sa_handler = &coordinator_signal_handler;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~CoordinatorSignalGuard() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
  }
  CoordinatorSignalGuard(const CoordinatorSignalGuard&) = delete;
  CoordinatorSignalGuard& operator=(const CoordinatorSignalGuard&) = delete;

  int received() const noexcept {
    return static_cast<int>(g_coordinator_signal);
  }

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

/// Coordinator: fork options.shards workers, multiplex their pipe progress
/// into one decile display, reap, and merge the slice files. Returns one
/// aggregate per strategy in presentation order, bit-identical to one
/// in-process run (see exp/shard.hpp).
std::vector<exp::Aggregate> run_table4_sharded(const CampaignOptions& options,
                                               std::ostream* progress) {
  const exp::CampaignConfig cc = campaign_config(options);
  const std::vector<Table4Slice> slices =
      build_table4_slices(options, cc, "table4");
  const std::size_t shard_count = static_cast<std::size_t>(options.shards);

  std::size_t total_items = 0;
  for (const Table4Slice& slice : slices) total_items += slice.grid.size();

  // Each worker gets an equal share of the machine unless --threads pins a
  // per-worker count explicitly.
  exp::CampaignConfig worker_cc = cc;
  if (worker_cc.threads == 0) {
    const std::size_t hw = std::thread::hardware_concurrency();
    worker_cc.threads = std::max<std::size_t>(1, hw / shard_count);
  }

  if (progress) progress->flush();  // nothing buffered crosses the fork

  // From here until the reap loop below, SIGINT/SIGTERM no longer kill the
  // coordinator outright: the signal is recorded, forwarded to every live
  // worker, and the workers are reaped before we exit — so their slice
  // flocks are released and an immediate `--resume` works.
  CoordinatorSignalGuard signal_guard;

  std::vector<util::ForkedWorker> workers;
  workers.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    workers.push_back(util::fork_worker([&, s](int fd) {
      // The child inherits the coordinator's record-only handler; restore
      // the default disposition so a forwarded SIGINT/SIGTERM actually
      // terminates the worker (its completed chunks are checkpointed).
      ::signal(SIGINT, SIG_DFL);
      ::signal(SIGTERM, SIG_DFL);
      try {
        run_table4_worker_slices(slices, options, worker_cc, s, shard_count,
                                 [fd](std::size_t completed) {
                                   util::write_line(
                                       fd, "P " + std::to_string(completed));
                                 });
        return 0;
      } catch (const std::exception& e) {
        // Straight to fd 2: the child must not touch the parent's buffered
        // streams (a test harness ostringstream would get corrupted).
        util::write_line(2, "[table4 shard " + std::to_string(s + 1) + "/" +
                                std::to_string(shard_count) + "] " + e.what());
        return 1;
      }
    }));
  }

  // One decile display over the whole fleet: workers send absolute
  // cumulative counts, so summing the latest line per worker is exact.
  std::vector<int> fds;
  for (const util::ForkedWorker& w : workers) fds.push_back(w.progress.get());
  std::vector<std::size_t> latest(workers.size(), 0);
  int last_decile = -1;
  util::LineMux mux(fds);
  mux.run([&](std::size_t worker, std::string_view line) {
    if (line.size() < 3 || line.substr(0, 2) != "P ") return;
    std::size_t completed = 0;
    const auto* end = line.data() + line.size();
    if (std::from_chars(line.data() + 2, end, completed).ec != std::errc())
      return;
    latest[worker] = completed;
    std::size_t sum = 0;
    for (const std::size_t c : latest) sum += c;
    if (total_items == 0 || sum == 0) return;
    const int decile = static_cast<int>(10 * sum / total_items);
    if (decile <= last_decile) return;
    last_decile = decile;
    note(progress, "[table4 " + std::to_string(shard_count) + " shards] " +
                       std::to_string(sum) + "/" + std::to_string(total_items) +
                       " sims");
  }, [] { return g_coordinator_signal != 0; });

  // Forward a recorded SIGINT/SIGTERM to every worker before reaping.
  // ESRCH (already exited) is fine — wait_child below still collects it.
  const int received = signal_guard.received();
  if (received != 0)
    for (const util::ForkedWorker& w : workers) ::kill(w.pid, received);

  std::string failures;
  for (std::size_t s = 0; s < workers.size(); ++s) {
    const util::ExitStatus status = util::wait_child(workers[s].pid);
    if (status.ok()) continue;
    if (!failures.empty()) failures += "; ";
    failures += "shard " + std::to_string(s + 1) + "/" +
                std::to_string(shard_count) + " " + status.describe();
  }
  if (received != 0)
    throw std::runtime_error(
        std::string("interrupted by ") +
        (received == SIGINT ? "SIGINT" : "SIGTERM") + ": forwarded to all " +
        std::to_string(workers.size()) +
        " workers and reaped them (slice files are released) — completed "
        "chunks are checkpointed; rerun the same command with --resume to "
        "finish");
  if (!failures.empty())
    throw std::runtime_error(
        failures +
        " — completed chunks are checkpointed; rerun the same command with "
        "--resume to finish, then the report (or `merge`) will be "
        "byte-identical to an uninterrupted run");

  std::vector<exp::Aggregate> aggs;
  for (const Table4Slice& slice : slices)
    aggs.push_back(exp::merge_slice_files(
        slice.grid, shard_slice_files(options, slice, shard_count)));
  return aggs;
}

/// Manual worker (--shard i/N): run this slice in-process and summarize
/// what it covered; the real Table IV report comes from `merge` once the
/// whole fleet has finished.
Report table4_shard_worker_report(const CampaignOptions& options,
                                  std::ostream* progress) {
  const exp::CampaignConfig cc = campaign_config(options);
  const std::vector<Table4Slice> slices =
      build_table4_slices(options, cc, "table4");
  const auto shard = static_cast<std::size_t>(options.shard_index);
  const auto shard_count = static_cast<std::size_t>(options.shard_count);
  const std::string tag =
      std::to_string(shard + 1) + "/" + std::to_string(shard_count);

  Report report("Table IV shard " + tag + ": slice summary (run `merge` "
                "after all shards finish)",
                {"strategy", "shard", "slice_sims", "slice_chunks",
                 "checkpoint_file"});
  std::size_t slice_total = 0;
  for (const Table4Slice& slice : slices)
    slice_total +=
        exp::ShardPlan(slice.grid.size(), shard_count).items_in(shard);

  // One decile display over this worker's whole slice set, driven by the
  // same cumulative counts a coordinator-forked worker would pipe out.
  const exp::CampaignProgressFn display =
      decile_progress(progress, "table4 shard " + tag);
  run_table4_worker_slices(
      slices, options, cc, shard, shard_count,
      [&](std::size_t completed) {
        if (display) display(exp::CampaignProgress{completed, slice_total});
      });
  for (const Table4Slice& slice : slices) {
    const exp::ShardPlan plan(slice.grid.size(), shard_count);
    report.add_row({to_string(slice.row.kind), tag, ll(plan.items_in(shard)),
                    ll(plan.chunks_for(shard).chunk_count()),
                    slice_checkpoint_file(options.checkpoint, slice.name,
                                          slice.fingerprint, shard,
                                          shard_count)});
  }
  note(progress, "[table4 shard " + tag + "] slice complete: " +
                     std::to_string(slice_total) + " sims checkpointed");
  return report;
}

}  // namespace

Report table4_report(const CampaignOptions& options, std::ostream* progress) {
  if (options.shard_count > 0)
    return table4_shard_worker_report(options, progress);

  if (options.shards > 1) {
    const std::vector<exp::Aggregate> aggs =
        run_table4_sharded(options, progress);
    Report report = make_table4_report();
    const auto& strategies = table4_strategies();
    for (std::size_t i = 0; i < strategies.size(); ++i) {
      add_table4_row(report, strategies[i], aggs[i]);
      note(progress, "[table4] " + to_string(strategies[i].kind) + " done: " +
                         std::to_string(aggs[i].simulations) + " sims");
    }
    return report;
  }

  const exp::CampaignConfig cc = campaign_config(options);
  Report report = make_table4_report();
  for (const Table4Slice& slice : build_table4_slices(options, cc, "table4")) {
    // Streaming runner: O(threads) live memory instead of one result per
    // simulation, with per-chunk progress while the grid drains.
    const auto checkpoint = open_checkpoint<exp::CampaignCheckpoint>(
        options, slice.name, slice.grid, progress);
    const exp::Aggregate agg = exp::run_campaign_streaming(
        slice.grid, cc, decile_progress(progress, slice.name),
        checkpoint.get());
    add_table4_row(report, slice.row, agg);
    note(progress, "[table4] " + to_string(slice.row.kind) + " done: " +
                       std::to_string(agg.simulations) + " sims");
  }
  return report;
}

Report table4_merge_report(const CampaignOptions& options,
                           std::ostream* progress) {
  const exp::CampaignConfig cc = campaign_config(options);
  const std::vector<Table4Slice> slices =
      build_table4_slices(options, cc, "table4");
  const auto shard_count = static_cast<std::size_t>(options.shards);

  Report report = make_table4_report();
  for (const Table4Slice& slice : slices) {
    const exp::Aggregate agg = exp::merge_slice_files(
        slice.grid, shard_slice_files(options, slice, shard_count));
    add_table4_row(report, slice.row, agg);
    note(progress, "[merge] " + to_string(slice.row.kind) + ": " +
                       std::to_string(agg.simulations) + " sims from " +
                       std::to_string(shard_count) + " slice files");
  }
  return report;
}

Report table5_report(const CampaignOptions& options, std::ostream* progress) {
  const exp::CampaignConfig cc = campaign_config(options);
  const auto kind = attack::StrategyKind::kContextAware;

  // Table V pairs driver-on with driver-off per item, so each slice runs
  // through the materializing path with a per-item results checkpoint.
  auto run = [&](bool strategic, bool driver, const std::string& slice) {
    const auto grid = exp::make_grid(kind, strategic, driver, cc);
    const auto checkpoint = open_checkpoint<exp::ResultsCheckpoint>(
        options, slice, grid, progress);
    return exp::run_campaign(grid, cc, checkpoint.get());
  };

  if (!options.checkpoint.empty()) {
    std::vector<std::pair<std::string, std::uint64_t>> names;
    for (const bool strategic : {false, true})
      for (const bool driver : {true, false}) {
        const std::string slice = std::string("table5 ") +
                                  (strategic ? "strategic" : "fixed") +
                                  (driver ? "-on" : "-off");
        names.emplace_back(slice, exp::grid_fingerprint(exp::make_grid(
                                      kind, strategic, driver, cc)));
      }
    reject_slice_file_collisions(options.checkpoint, names);
  }

  note(progress, "[table5] fixed values, driver on...");
  const auto fixed_on = run(false, true, "table5 fixed-on");
  note(progress, "[table5] fixed values, driver off...");
  const auto fixed_off = run(false, false, "table5 fixed-off");
  note(progress, "[table5] strategic values, driver on...");
  const auto strat_on = run(true, true, "table5 strategic-on");
  note(progress, "[table5] strategic values, driver off...");
  const auto strat_off = run(true, false, "table5 strategic-off");

  const auto fixed = exp::pair_driver_outcomes(fixed_on, fixed_off);
  const auto strategic = exp::pair_driver_outcomes(strat_on, strat_off);

  Report report(
      "Table V: Context-Aware attack per type, fixed vs. strategic values",
      {"attack_type", "values", "simulations", "sims_with_alerts",
       "sims_with_hazards", "sims_with_accidents", "prevented_hazards",
       "new_hazards", "prevented_accidents", "driver_preventions",
       "nodriver_hazards", "nodriver_accidents", "tth_mean", "tth_std"});
  const struct {
    const char* label;
    const std::map<attack::AttackType, exp::TypeOutcome>& outcomes;
  } slices[] = {{"fixed", fixed}, {"strategic", strategic}};
  for (const auto& slice : slices) {
    for (const auto& [type, o] : slice.outcomes) {
      report.add_row({to_string(type), std::string(slice.label),
                      ll(o.agg.simulations), ll(o.agg.sims_with_alerts),
                      ll(o.agg.sims_with_hazards),
                      ll(o.agg.sims_with_accidents), ll(o.prevented_hazards),
                      ll(o.new_hazards), ll(o.prevented_accidents),
                      ll(o.driver_preventions), ll(o.nodriver_hazards),
                      ll(o.nodriver_accidents), o.agg.tth_mean,
                      o.agg.tth_std});
    }
  }
  return report;
}

Report fig7_report(const CampaignOptions& options, std::ostream* progress) {
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kNone;
  item.scenario_id = 1;
  item.initial_gap = 100.0;
  item.seed = options.seed;

  sim::World world(exp::world_config_for(item));
  sim::Trace trace;
  const auto summary = world.run(&trace);
  if (options.decimate > 1)
    trace.decimate(static_cast<std::size_t>(options.decimate));

  Report report(
      "Fig 7: Ego trajectory during an attack-free simulation (S1)",
      {"time", "ego_s", "ego_d", "ego_speed", "lane_center", "lane_left",
       "lane_right", "lead_gap", "accel_cmd", "steer_cmd", "attack_active",
       "alert_active", "driver_engaged"});
  for (const auto& r : trace.rows()) {
    report.add_row({r.time, r.ego_s, r.ego_d, r.ego_speed, r.lane_center,
                    r.lane_left, r.lane_right, r.lead_gap, r.accel_cmd,
                    r.steer_cmd, r.attack_active, r.alert_active,
                    r.driver_engaged});
  }
  note(progress,
       "[fig7] " + std::to_string(trace.size()) + " trace rows; " +
           std::to_string(summary.lane_invasions) + " lane invasions (" +
           std::to_string(summary.lane_invasion_rate) + "/s, paper: 0.46/s)");
  return report;
}

Report fig8_report(const CampaignOptions& options, std::ostream* progress) {
  exp::ParamSpaceConfig cfg;
  cfg.threads = options.threads;
  cfg.base_seed = options.seed;
  cfg.overlay_runs = 20 * options.reps;  // paper: 20 runs per overlay strategy
  const auto points = exp::run_param_space(cfg);

  Report report(
      "Fig 8: attack start time x duration parameter space (Acceleration)",
      {"strategy", "start_time", "duration", "hazardous"});
  for (const auto& p : points)
    report.add_row(
        {to_string(p.strategy), p.start_time, p.duration, p.hazardous});

  const double critical = exp::estimate_critical_time(points);
  note(progress, "[fig8] " + std::to_string(points.size()) +
                     " points; estimated critical start time " +
                     std::to_string(critical) + " s");
  return report;
}

namespace {

/// One cell of the faults table: a family/intensity label plus the plan
/// every simulation in the cell runs under (null = no injection).
struct FaultCell {
  std::string family;
  std::string intensity;
  std::shared_ptr<const fault::FaultPlan> plan;
};

/// The built-in sweep: every fault family at three intensities, bracketed
/// by the no-fault baseline. The levels span "barely noticeable" to
/// "clearly degraded" for each mechanism — rates are per-frame (CAN) or
/// per-publish (sensor) probabilities, the bus-off levels are window
/// lengths in the middle of the 50 s run, and the stall levels scale both
/// trigger probability and stall length.
std::vector<FaultCell> fault_sweep_cells() {
  struct Level {
    double rate;
    double magnitude;
    std::uint32_t ticks;
    double t0;
    double t1;
  };
  struct Family {
    fault::FaultKind kind;
    const char* name;
    Level level[3];
  };
  static const Family kSweep[] = {
      {fault::FaultKind::kCanDrop,
       "can_drop",
       {{0.01, 0.0, 0, 0.0, 1e9},
        {0.05, 0.0, 0, 0.0, 1e9},
        {0.20, 0.0, 0, 0.0, 1e9}}},
      {fault::FaultKind::kCanDelay,
       "can_delay",
       {{0.01, 0.0, 2, 0.0, 1e9},
        {0.05, 0.0, 5, 0.0, 1e9},
        {0.20, 0.0, 10, 0.0, 1e9}}},
      {fault::FaultKind::kCanCorrupt,
       "can_corrupt",
       {{0.005, 0.0, 0, 0.0, 1e9},
        {0.02, 0.0, 0, 0.0, 1e9},
        {0.10, 0.0, 0, 0.0, 1e9}}},
      {fault::FaultKind::kCanBusOff,
       "can_busoff",
       {{0.0, 0.0, 0, 20.0, 20.5},
        {0.0, 0.0, 0, 20.0, 22.0},
        {0.0, 0.0, 0, 20.0, 25.0}}},
      {fault::FaultKind::kSensorDropout,
       "sensor_dropout",
       {{0.05, 0.0, 0, 0.0, 1e9},
        {0.20, 0.0, 0, 0.0, 1e9},
        {0.50, 0.0, 0, 0.0, 1e9}}},
      {fault::FaultKind::kSensorFreeze,
       "sensor_freeze",
       {{0.05, 0.0, 0, 0.0, 1e9},
        {0.20, 0.0, 0, 0.0, 1e9},
        {0.50, 0.0, 0, 0.0, 1e9}}},
      {fault::FaultKind::kSensorNoise,
       "sensor_noise",
       {{1.0, 0.1, 0, 0.0, 1e9},
        {1.0, 0.5, 0, 0.0, 1e9},
        {1.0, 2.0, 0, 0.0, 1e9}}},
      {fault::FaultKind::kEcuStall,
       "ecu_stall",
       {{0.001, 0.0, 5, 0.0, 1e9},
        {0.005, 0.0, 10, 0.0, 1e9},
        {0.02, 0.0, 25, 0.0, 1e9}}},
  };
  static const char* kLevelNames[3] = {"low", "med", "high"};

  std::vector<FaultCell> cells;
  cells.push_back({"none", "-", nullptr});
  for (const Family& family : kSweep) {
    for (int l = 0; l < 3; ++l) {
      fault::FaultSpec spec;
      spec.kind = family.kind;
      spec.rate = family.level[l].rate;
      spec.magnitude = family.level[l].magnitude;
      spec.ticks = family.level[l].ticks;
      spec.t0 = family.level[l].t0;
      spec.t1 = family.level[l].t1;
      auto plan = std::make_shared<fault::FaultPlan>();
      plan->add(spec);
      cells.push_back({family.name, kLevelNames[l], std::move(plan)});
    }
  }
  return cells;
}

/// The cells one `faults` invocation runs: the built-in sweep, or — with
/// --fault-plan — the no-fault baseline next to the custom plan. A parse
/// failure (fault::FaultPlanError, carrying path:line) propagates to the
/// CLI's generic handler and exits 1 like any other bad input file.
std::vector<FaultCell> fault_table_cells(const CampaignOptions& options) {
  if (options.fault_plan.empty()) return fault_sweep_cells();
  auto plan = std::make_shared<fault::FaultPlan>(
      fault::FaultPlan::parse_file(options.fault_plan));
  std::vector<FaultCell> cells;
  cells.push_back({"none", "-", nullptr});
  cells.push_back({"custom", "plan", std::move(plan)});
  return cells;
}

}  // namespace

Report faults_report(const CampaignOptions& options, std::ostream* progress) {
  const exp::CampaignConfig cc = campaign_config(options);
  const std::vector<FaultCell> cells = fault_table_cells(options);

  // Two legs per cell, on grids identical to Table IV's None and
  // Context-Aware rows (same seeds, same chunk boundaries) with the cell's
  // plan attached to every item. Attaching the plan changes each grid's
  // fingerprint, so every cell checkpoints into its own slice file and a
  // resume under a different plan is rejected by the checkpoint layer.
  struct Leg {
    std::string name;
    std::vector<exp::CampaignItem> grid;
  };
  struct CellRun {
    FaultCell cell;
    Leg benign;
    Leg attacked;
  };
  std::vector<CellRun> runs;
  std::vector<std::pair<std::string, std::uint64_t>> names;
  for (const FaultCell& cell : cells) {
    CellRun run;
    run.cell = cell;
    const std::string tag = "faults " + cell.family + "-" + cell.intensity;
    run.benign.name = tag + " benign";
    run.benign.grid = exp::make_grid(attack::StrategyKind::kNone,
                                     /*strategic_values=*/false,
                                     /*driver_enabled=*/true, cc);
    run.attacked.name = tag + " attack";
    run.attacked.grid = exp::make_grid(attack::StrategyKind::kContextAware,
                                       /*strategic_values=*/true,
                                       /*driver_enabled=*/true, cc);
    for (Leg* leg : {&run.benign, &run.attacked}) {
      for (exp::CampaignItem& item : leg->grid) item.fault_plan = cell.plan;
      names.emplace_back(leg->name, exp::grid_fingerprint(leg->grid));
    }
    runs.push_back(std::move(run));
  }
  if (!options.checkpoint.empty())
    reject_slice_file_collisions(options.checkpoint, names);

  Report report(
      "faults: benign-fault robustness — false positives (attack off) and "
      "detection under faults (Context-Aware attack on)",
      {"family", "intensity", "benign_sims", "benign_alert_sims", "fp_rate",
       "attack_sims", "attack_alert_sims", "detection_rate",
       "attack_hazard_sims", "hazards_without_alerts", "tth_mean"});

  auto run_leg = [&](const Leg& leg) {
    const auto checkpoint = open_checkpoint<exp::CampaignCheckpoint>(
        options, leg.name, leg.grid, progress);
    return exp::run_campaign_streaming(leg.grid, cc,
                                       decile_progress(progress, leg.name),
                                       checkpoint.get());
  };
  for (const CellRun& run : runs) {
    const exp::Aggregate benign = run_leg(run.benign);
    const exp::Aggregate attacked = run_leg(run.attacked);
    report.add_row({run.cell.family, run.cell.intensity,
                    ll(benign.simulations), ll(benign.sims_with_alerts),
                    benign.alert_fraction(), ll(attacked.simulations),
                    ll(attacked.sims_with_alerts), attacked.alert_fraction(),
                    ll(attacked.sims_with_hazards),
                    ll(attacked.hazards_without_alerts), attacked.tth_mean});
    note(progress,
         "[faults] " + run.cell.family + "/" + run.cell.intensity +
             " done: fp_rate " + std::to_string(benign.alert_fraction()) +
             ", detection " + std::to_string(attacked.alert_fraction()));
  }
  return report;
}

namespace {

/// Render the nonzero bins of a latency histogram as "<lo>us:<count>"
/// pairs, space-joined — compact enough for one report cell, detailed
/// enough to read the distribution shape (the last bin clamps, so its
/// count means "at or beyond this budget").
std::string hist_cell(const util::Histogram& hist) {
  std::string cell;
  for (std::size_t b = 0; b < hist.bins(); ++b) {
    if (hist.bin_count(b) == 0) continue;
    if (!cell.empty()) cell += ' ';
    cell += std::to_string(std::llround(hist.bin_lo(b)));
    cell += "us:";
    cell += std::to_string(hist.bin_count(b));
  }
  return cell;
}

/// The `summary` row both run modes emit. Every cell derives from the
/// SimulationSummary and the tick count alone — never from the wall clock —
/// so a --realtime run's summary row is byte-identical to the free-running
/// one on the same seed (the acceptance gate the Realtime CLI test holds).
void add_run_summary_row(Report& report, const sim::SimulationSummary& s,
                         std::size_t ticks) {
  report.add_row({std::string("summary"), ll(ticks), 0.0, 0.0, 0LL, 0.0,
                  std::string(), s.any_hazard, s.any_accident,
                  ll(s.alert_events), ll(s.fcw_events), ll(s.lane_invasions),
                  s.lane_invasion_rate, s.tth, s.sim_end_time});
}

}  // namespace

Report run_report(const CampaignOptions& options, std::ostream* progress) {
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kNone;
  item.scenario_id = options.scenario;
  item.initial_gap = 100.0;
  item.seed = options.seed;

  sim::WorldConfig cfg = exp::world_config_for(item);
  cfg.duration = options.duration;
  // Parse before the world exists: a bad plan file must fail with its
  // path:line diagnostic (exit 1) before any FIFO open could block.
  if (!options.fault_plan.empty())
    cfg.fault_plan = std::make_shared<const fault::FaultPlan>(
        fault::FaultPlan::parse_file(options.fault_plan));
  sim::World world(cfg);

  std::optional<exp::FifoTap> tap;
  if (!options.tap_fifo.empty()) {
    note(progress, "[run] tap: opening " + options.tap_fifo +
                       " (a FIFO blocks here until a reader attaches)");
    tap.emplace(world.message_bus(), options.tap_fifo);
  }

  Report report(
      "run: one simulation, free-running or --realtime deadline-clocked",
      {"row", "count", "mean_us", "max_us", "overruns", "miss_fraction",
       "hist_us", "any_hazard", "any_accident", "alert_events", "fcw_events",
       "lane_invasions", "lane_invasion_rate", "tth", "sim_end_time"});

  if (!options.realtime) {
    // Mirror the realtime executor's loop structure exactly (count every
    // step() invocation, including the final one that returns false) so
    // the two modes' summary rows carry the identical tick count.
    std::size_t ticks = 0;
    bool running = !world.finished();
    while (running) {
      running = world.step();
      ++ticks;
    }
    add_run_summary_row(report, world.summarize(), ticks);
    note(progress,
         "[run] free-running: " + std::to_string(ticks) + " ticks");
  } else {
    exp::RealtimeConfig rc;
    rc.period_s = options.period_s;
    const exp::RealtimeReport rt = exp::run_realtime(world, rc);
    add_run_summary_row(report, rt.summary, rt.ticks);
    for (const exp::PhaseStats& phase : rt.phases) {
      std::string label = "phase:";
      label += phase.name;
      report.add_row({std::move(label), ll(phase.latency_s.count()),
                      phase.latency_s.mean() * 1e6,
                      phase.latency_s.max() * 1e6, 0LL, 0.0,
                      hist_cell(phase.hist_us), false, false, 0LL, 0LL, 0LL,
                      0.0, 0.0, 0.0});
    }
    report.add_row({std::string("deadline"), ll(rt.ticks),
                    rt.wake_error_s.mean() * 1e6, rt.wake_error_s.max() * 1e6,
                    ll(rt.overruns), rt.miss_fraction(), std::string(), false,
                    false, 0LL, 0LL, 0LL, 0.0, 0.0, 0.0});
    note(progress, "[run] realtime: " + std::to_string(rt.ticks) +
                       " ticks at " + std::to_string(1.0 / rt.period_s) +
                       " Hz, " + std::to_string(rt.overruns) + " overruns");
    if (rt.miss_fraction() > options.miss_budget)
      throw MissBudgetError(
          "realtime miss budget exceeded: " + std::to_string(rt.overruns) +
              "/" + std::to_string(rt.ticks) +
              " ticks overran their deadline (miss fraction " +
              std::to_string(rt.miss_fraction()) + " > budget " +
              std::to_string(options.miss_budget) + ")",
          std::move(report));
  }
  if (tap)
    note(progress, "[run] tap: " + std::to_string(tap->frames_streamed()) +
                       " frames streamed" +
                       (tap->broken() ? " (reader hung up early)" : ""));
  if (cfg.fault_plan) {
    const sim::SimulationSummary s = world.summarize();
    std::uint64_t fired = 0;
    std::uint64_t suppressed = 0;
    for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
      fired += s.faults_fired[k];
      suppressed += s.faults_suppressed[k];
    }
    note(progress, "[run] faults: " + std::to_string(fired) + " fired, " +
                       std::to_string(suppressed) + " suppressed");
  }
  return report;
}

const std::vector<CampaignCommand>& campaign_commands() {
  static const std::vector<CampaignCommand> kCommands = {
      {"table4", "Table IV",
       "attack-strategy comparison with an alert driver", &table4_report},
      {"table5", "Table V",
       "Context-Aware attack per type, fixed vs. strategic value corruption",
       &table5_report},
      {"fig7", "Fig. 7",
       "attack-free Ego trajectory (imperfect lane centering)", &fig7_report},
      {"fig8", "Fig. 8",
       "attack start time x duration parameter space", &fig8_report},
      {"faults", "robustness study",
       "benign-fault false-positive table: fault family x intensity, attack "
       "off vs. on (--fault-plan FILE runs a custom plan instead of the "
       "sweep)",
       &faults_report},
      {"ablation", "Sec. V study",
       "Context-Aware ingredient ablation (variants A-D) and driver "
       "reaction-time sweep",
       &ablation_report},
      {"defense", "Sec. V study",
       "control-invariant detector + context-aware monitor vs. the attacks, "
       "with false alarms on attack-free drives",
       &defense_report},
      {"merge", "Table IV",
       "fold per-shard table4 checkpoint slices (--shards/--shard runs) "
       "into the exact Table IV report, byte-identical to a single-process "
       "run",
       &table4_merge_report},
      {"run", "Fig. 5 rig",
       "one simulation: free-running, or --realtime deadline-clocked with "
       "per-subsystem latency/jitter/overrun accounting; --tap-fifo streams "
       "live wire frames to an external eavesdropper",
       &run_report},
  };
  return kCommands;
}

const CampaignCommand* find_campaign_command(const std::string& name) {
  for (const auto& cmd : campaign_commands())
    if (cmd.name == name) return &cmd;
  return nullptr;
}

namespace {

/// Parse a 1-based "--shard i/N" spec into a 0-based index + count.
bool parse_shard_spec(const std::string& spec, int& index, int& count) {
  const std::size_t slash = spec.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= spec.size())
    return false;
  int i = 0, n = 0;
  const char* begin = spec.data();
  auto r1 = std::from_chars(begin, begin + slash, i);
  auto r2 = std::from_chars(begin + slash + 1, begin + spec.size(), n);
  if (r1.ec != std::errc() || r1.ptr != begin + slash ||
      r2.ec != std::errc() || r2.ptr != begin + spec.size())
    return false;
  if (n < 1 || n > 1024 || i < 1 || i > n) return false;
  index = i - 1;
  count = n;
  return true;
}

/// Checked long long -> int narrowing for parsed flags. ArgParser's bounds
/// already keep every current flag well inside int's range, but the cast
/// sites must not silently depend on that coupling: a bound widened past
/// 2^31 would otherwise truncate (e.g. --reps 4294967297 -> 1) and run the
/// wrong campaign without a word. On failure the caller exits 2.
bool narrowed_int(const ArgParser& args, const std::string& flag, int& out,
                  const std::string& cmd_name, std::ostream& err) {
  const long long v = args.get_int(flag);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    err << "scaa_campaign " << cmd_name << ": " << flag << " value " << v
        << " does not fit in int (would truncate)\n";
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

}  // namespace

int run_campaign_command(const std::string& name,
                         const std::vector<std::string>& tokens,
                         std::ostream& out, std::ostream& err) {
  const CampaignCommand* cmd = find_campaign_command(name);
  if (!cmd) {
    err << "scaa_campaign: unknown subcommand '" << name << "'\n";
    return 2;
  }

  ArgParser args("scaa_campaign " + cmd->name,
                 cmd->paper_ref + ": " + cmd->description);
  args.add_int("--reps", 1, "repetitions per grid cell (paper: 20)", 1,
               1000000);
  args.add_int("--threads", 0, "worker threads (0 = hardware concurrency)", 0,
               4096);
  args.add_uint("--seed", 2022, "base seed mixed into every simulation");
  args.add_choice("--format", "text", {"text", "csv", "json"},
                  "output format");
  args.add_string("--out", "-", "output path ('-' = stdout)");
  if (cmd->run == &fig7_report)
    args.add_int("--decimate", 10, "keep every n-th trace row (1 = all)", 1,
                 1000000);
  // Long-running grid campaigns checkpoint per chunk. fig7 is one
  // simulation, and fig8 and the studies run simulate hooks the checkpoint
  // fingerprint cannot see, so they don't take the flags.
  const bool checkpointable =
      cmd->run == &table4_report || cmd->run == &table5_report ||
      cmd->run == &faults_report;
  const bool shardable = cmd->run == &table4_report;
  const bool is_merge = cmd->run == &table4_merge_report;
  const bool is_run = cmd->run == &run_report;
  // Only the fault-aware workloads take --fault-plan: the paper tables
  // (table4/table5/fig7/fig8), the studies and the table4 merge must stay
  // seed-for-seed identical to the published baselines, so ArgParser's
  // unknown-flag rejection turns a stray --fault-plan there into a clean
  // exit-2 usage error instead of a silently different experiment.
  const bool takes_fault_plan =
      cmd->run == &faults_report || cmd->run == &run_report;
  if (checkpointable) {
    args.add_string("--checkpoint", "",
                    "crash-safe checkpoint path stem; each campaign slice "
                    "appends to <stem>.<slug>-<fp8>");
    args.add_bool("--resume",
                  "restore completed chunks from --checkpoint files and run "
                  "only the rest (fresh files are created when absent)");
  }
  if (shardable) {
    args.add_int("--shards", 0,
                 "fork N worker processes, each running its deterministic "
                 "slice of every strategy (requires --checkpoint); the "
                 "merged report is byte-identical to a single-process run",
                 0, 1024);
    args.add_string("--shard", "",
                    "run one slice in-process for manual fleet dispatch, as "
                    "i/N with 1-based i (requires --checkpoint); fold the "
                    "fleet's files afterwards with `merge --shards N`");
  }
  if (is_merge) {
    args.add_int("--shards", 1,
                 "how many shards the table4 campaign was split into", 1,
                 1024);
    args.add_string("--checkpoint", "",
                    "checkpoint path stem the shard slice files were written "
                    "under (required)");
  }
  if (is_run) {
    args.add_bool("--realtime",
                  "pin each tick to an absolute deadline clock and report "
                  "per-subsystem latency/jitter/overrun histograms (the "
                  "deterministic summary row stays byte-identical to a "
                  "free-running run)");
    args.add_double("--period", 0.01,
                    "tick deadline period in seconds (requires --realtime)");
    args.add_double("--miss-budget", 1.0,
                    "max tolerated overrun fraction in [0, 1]; exceeding it "
                    "writes the report and exits 3 (requires --realtime)");
    args.add_string("--tap-fifo", "",
                    "stream live wire frames over this FIFO (created when "
                    "absent; the open blocks until a reader attaches)");
    args.add_int("--scenario", 1, "paper scenario (1-4)", 1, 4);
    args.add_double("--duration", 50.0, "simulated seconds (paper: 50)");
  }
  if (takes_fault_plan)
    args.add_string("--fault-plan", "",
                    "benign fault plan file (one '<kind> key=value...' line "
                    "per fault; see src/fault/plan.hpp); faults: replaces "
                    "the built-in sweep, run: injects the plan");

  try {
    args.parse_tokens(tokens);
  } catch (const ArgError& e) {
    err << e.what() << "\n" << args.usage();
    return 2;
  }
  if (args.help_requested()) {
    out << args.usage();
    return 0;
  }

  CampaignOptions options;
  if (!narrowed_int(args, "--reps", options.reps, cmd->name, err)) return 2;
  options.threads = static_cast<std::size_t>(args.get_int("--threads"));
  options.seed = args.get_uint("--seed");
  if (cmd->run == &fig7_report &&
      !narrowed_int(args, "--decimate", options.decimate, cmd->name, err))
    return 2;
  if (checkpointable) {
    options.checkpoint = args.get_string("--checkpoint");
    options.resume = args.get_bool("--resume");
    if (options.resume && options.checkpoint.empty()) {
      err << "scaa_campaign " << cmd->name
          << ": --resume requires --checkpoint PATH\n"
          << args.usage();
      return 2;
    }
  }
  if (shardable) {
    if (!narrowed_int(args, "--shards", options.shards, cmd->name, err))
      return 2;
    const std::string& shard_spec = args.get_string("--shard");
    if (!shard_spec.empty() &&
        !parse_shard_spec(shard_spec, options.shard_index,
                          options.shard_count)) {
      err << "scaa_campaign " << cmd->name << ": invalid --shard '"
          << shard_spec << "' (expected i/N with 1 <= i <= N <= 1024)\n"
          << args.usage();
      return 2;
    }
    if (options.shards > 0 && options.shard_count > 0) {
      err << "scaa_campaign " << cmd->name
          << ": --shards (coordinator) and --shard (manual worker) are "
             "mutually exclusive\n"
          << args.usage();
      return 2;
    }
    if ((options.shards > 1 || options.shard_count > 0) &&
        options.checkpoint.empty()) {
      err << "scaa_campaign " << cmd->name
          << ": sharded runs require --checkpoint PATH (each worker "
             "checkpoints its slice there; merge folds the files)\n"
          << args.usage();
      return 2;
    }
  }
  if (is_merge) {
    if (!narrowed_int(args, "--shards", options.shards, cmd->name, err))
      return 2;
    options.checkpoint = args.get_string("--checkpoint");
    if (options.checkpoint.empty()) {
      err << "scaa_campaign " << cmd->name
          << ": merge requires --checkpoint PATH (the stem the shard slice "
             "files were written under)\n"
          << args.usage();
      return 2;
    }
  }
  if (is_run) {
    options.realtime = args.get_bool("--realtime");
    options.period_s = args.get_double("--period");
    options.miss_budget = args.get_double("--miss-budget");
    options.tap_fifo = args.get_string("--tap-fifo");
    if (!narrowed_int(args, "--scenario", options.scenario, cmd->name, err))
      return 2;
    options.duration = args.get_double("--duration");
    if (!options.realtime &&
        (args.provided("--period") || args.provided("--miss-budget"))) {
      err << "scaa_campaign " << cmd->name
          << ": --period and --miss-budget require --realtime\n"
          << args.usage();
      return 2;
    }
    // The negated-range form keeps NaN out too (every comparison with NaN
    // is false, so the `!` rejects it).
    if (!(options.period_s >= 1e-6 && options.period_s <= 10.0)) {
      err << "scaa_campaign " << cmd->name
          << ": --period must be in [1e-6, 10] seconds\n"
          << args.usage();
      return 2;
    }
    if (!(options.miss_budget >= 0.0 && options.miss_budget <= 1.0)) {
      err << "scaa_campaign " << cmd->name
          << ": --miss-budget must be a fraction in [0, 1]\n"
          << args.usage();
      return 2;
    }
    if (!(options.duration > 0.0 && options.duration <= 86400.0)) {
      err << "scaa_campaign " << cmd->name
          << ": --duration must be in (0, 86400] seconds\n"
          << args.usage();
      return 2;
    }
  }
  if (takes_fault_plan) options.fault_plan = args.get_string("--fault-plan");
  const Format format = parse_format(args.get_string("--format"));

  // Open the sink before running: campaigns can take hours at paper scale,
  // and an unwritable --out must fail now, not after the simulations.
  const std::string& out_path = args.get_string("--out");
  std::ofstream file;
  if (out_path != "-") {
    file.open(out_path);
    if (!file) {
      err << "scaa_campaign " << cmd->name << ": cannot open '" << out_path
          << "' for writing\n";
      return 1;
    }
  }

  // A checkpoint refusal/corruption (or any campaign failure) must be a
  // clean diagnostic + nonzero exit, not a std::terminate in main().
  std::optional<Report> report_holder;
  bool miss_budget_exceeded = false;
  try {
    report_holder.emplace(cmd->run(options, &err));
  } catch (const MissBudgetError& e) {
    // The simulation completed and the report is intact: write it anyway,
    // then exit 3 so scripts can tell "budget missed" from a failed run.
    err << "scaa_campaign " << cmd->name << ": " << e.what() << "\n";
    report_holder.emplace(e.report);
    miss_budget_exceeded = true;
  } catch (const std::exception& e) {
    err << "scaa_campaign " << cmd->name << ": " << e.what() << "\n";
    return 1;
  }
  const Report& report = *report_holder;

  if (out_path == "-") {
    report.write(out, format);
  } else {
    report.write(file, format);
    err << "[" << cmd->name << "] report written to " << out_path << "\n";
  }
  return miss_budget_exceeded ? 3 : 0;
}

}  // namespace scaa::cli
