#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "exp/checkpoint.hpp"
#include "road/builder.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace scaa::exp {

std::vector<CampaignItem> make_grid(attack::StrategyKind strategy,
                                    bool strategic_values, bool driver_enabled,
                                    const CampaignConfig& config,
                                    int repetitions) {
  // The documented fallback: an explicit positive override wins, otherwise
  // the config-level repetition count applies. Anything non-positive after
  // that would silently produce an empty grid (and empty-looking tables
  // downstream), so it is a hard error.
  if (repetitions <= 0) repetitions = config.repetitions;
  if (repetitions <= 0)
    throw std::invalid_argument(
        "make_grid: effective repetitions must be > 0, got " +
        std::to_string(repetitions) +
        " (override and CampaignConfig.repetitions are both non-positive)");
  const std::uint64_t base_seed = config.base_seed;
  std::vector<CampaignItem> items;
  std::uint64_t counter = 0;
  for (const attack::AttackType type : attack::kAllAttackTypes) {
    for (int sid = 1; sid <= 4; ++sid) {
      for (const double gap : sim::Scenario::kGaps) {
        for (int rep = 0; rep < repetitions; ++rep) {
          CampaignItem item;
          item.strategy = strategy;
          item.type = type;
          item.strategic_values = strategic_values;
          item.driver_enabled = driver_enabled;
          item.scenario_id = sid;
          item.initial_gap = gap;
          // Seed derivation: stable across grid orderings.
          std::uint64_t mix = base_seed ^ (counter * 0x9E3779B97F4A7C15ull);
          item.seed = util::splitmix64(mix);
          ++counter;
          items.push_back(item);
        }
      }
    }
  }
  return items;
}

WorldAssets WorldAssets::make_default() {
  WorldAssets assets;
  assets.road =
      std::make_shared<const road::Road>(road::RoadBuilder::paper_road());
  assets.db =
      std::make_shared<const can::Database>(can::Database::simulated_car());
  return assets;
}

sim::WorldConfig world_config_for(const CampaignItem& item) {
  sim::WorldConfig cfg;
  cfg.scenario = sim::Scenario::make(item.scenario_id, item.initial_gap);
  cfg.seed = item.seed;
  cfg.driver_enabled = item.driver_enabled;
  cfg.attack_enabled = item.strategy != attack::StrategyKind::kNone;
  cfg.attack.strategy = item.strategy;
  cfg.attack.type = item.type;
  cfg.attack.strategic_values = item.strategic_values;
  cfg.fault_plan = item.fault_plan;
  return cfg;
}

sim::WorldConfig world_config_for(const CampaignItem& item,
                                  const WorldAssets& assets) {
  sim::WorldConfig cfg = world_config_for(item);
  cfg.road = assets.road;
  cfg.db = assets.db;
  return cfg;
}

namespace {

std::size_t chunk_count(std::size_t items) {
  return (items + kCampaignChunk - 1) / kCampaignChunk;
}

/// One past the last item of chunk @p c in a grid of @p items.
std::size_t chunk_end(std::size_t c, std::size_t items) {
  return std::min(items, (c + 1) * kCampaignChunk);
}

/// One chunk as the dispatcher hands it out: chunk `chunk` of leg `leg`,
/// whose items are [begin, end) of that leg's grid.
struct ChunkTask {
  std::size_t leg = 0;
  std::size_t chunk = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Simulates item `item` of a task's grid; called concurrently.
using ItemFn = std::function<sim::SimulationSummary(const ChunkTask& task,
                                                    std::size_t item)>;
/// Folds and commits a finished chunk, its summaries in item order.
using FoldFn = std::function<void(
    const ChunkTask& task, std::span<const sim::SimulationSummary> summaries)>;

/// A chunk with items claimed and not yet folded: one summary slot per item
/// and the count of items still unfinished.
struct OpenChunk {
  explicit OpenChunk(std::size_t items) : slots(items), unfinished(items) {}
  std::vector<sim::SimulationSummary> slots;
  std::atomic<std::size_t> unfinished;
};

/// One claimed item and a share of its chunk's slot buffer.
struct Claim {
  const ChunkTask* task = nullptr;
  std::shared_ptr<OpenChunk> open;
  std::size_t item = 0;
};

/// The dispatcher's shared state: one cursor over every task's items in
/// (leg, chunk, item) order, and the first exception any worker caught.
class Cursor {
 public:
  explicit Cursor(std::span<const ChunkTask> tasks) : tasks_(tasks) {}

  /// The next item, or nothing once every item is claimed or one failed.
  std::optional<Claim> claim() SCAA_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    if (error_ || task_ == tasks_.size()) return std::nullopt;
    const ChunkTask& task = tasks_[task_];
    // A chunk's slot buffer is allocated at its first claim and shared by
    // its claims; the last of them to let go frees it, after the fold.
    if (!open_) open_ = std::make_shared<OpenChunk>(task.end - task.begin);
    Claim out{&task, open_, task.begin + offset_};
    if (++offset_ == task.end - task.begin) {
      open_.reset();
      offset_ = 0;
      ++task_;
    }
    return out;
  }

  /// Record @p e if it is the first failure; no item is claimed after it.
  void fail(std::exception_ptr e) SCAA_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    if (!error_) error_ = std::move(e);
  }

  std::exception_ptr error() SCAA_EXCLUDES(mutex_) {
    const util::MutexLock lock(mutex_);
    return error_;
  }

 private:
  const std::span<const ChunkTask> tasks_;
  util::Mutex mutex_;
  std::size_t task_ SCAA_GUARDED_BY(mutex_) = 0;
  std::size_t offset_ SCAA_GUARDED_BY(mutex_) = 0;  ///< next item in task_
  std::shared_ptr<OpenChunk> open_ SCAA_GUARDED_BY(mutex_);
  std::exception_ptr error_ SCAA_GUARDED_BY(mutex_);
};

/// The one scheduler behind both runners. @p threads workers (0 = hardware
/// concurrency, never more than there are items) claim single items from
/// one cursor in task order and @p simulate each into its chunk's slot
/// buffer. The worker that finishes a chunk's last item calls @p fold on
/// the chunk's summaries in item order, so the chunk stays the reduction
/// and commit unit while a small grid still spreads over every worker.
/// Claims follow grid order, so at most threads + 1 chunks are open at
/// once. The first exception (from @p simulate, @p fold or a claim) stops
/// every item not yet claimed and is rethrown after the workers join; a
/// chunk with a failed item is never folded.
void dispatch(std::size_t threads, std::span<const ChunkTask> tasks,
              const ItemFn& simulate, const FoldFn& fold) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw > 0 ? hw : 4;
  }
  std::size_t items = 0;
  for (const ChunkTask& task : tasks) items += task.end - task.begin;
  Cursor cursor(tasks);
  const auto work = [&] {
    try {
      while (const std::optional<Claim> claim = cursor.claim()) {
        OpenChunk& open = *claim->open;
        open.slots[claim->item - claim->task->begin] =
            simulate(*claim->task, claim->item);
        // The last decrement happens after every other slot's write.
        if (--open.unfinished == 0) fold(*claim->task, open.slots);
      }
    } catch (...) {
      cursor.fail(std::current_exception());
    }
  };
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < std::min(threads, items); ++w)
      workers.emplace_back(work);
  }  // joins
  if (const std::exception_ptr e = cursor.error()) std::rethrow_exception(e);
}

/// Progress bookkeeping shared by the streaming runner's workers: every
/// leg's cumulative completed-simulation count and every leg's callback
/// invocation are serialized by one mutex, so no two callbacks run at once
/// and each leg's callbacks observe monotonically non-decreasing counts.
struct ProgressCounter {
  util::Mutex mutex;
  std::vector<std::size_t> completed SCAA_GUARDED_BY(mutex);

  explicit ProgressCounter(std::size_t legs) : completed(legs, 0) {}

  /// Add @p delta finished simulations to @p leg and report its new count.
  void advance(std::size_t leg, std::size_t delta, std::size_t total,
               const CampaignProgressFn& progress) SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    completed[leg] += delta;
    progress(CampaignProgress{completed[leg], total});
  }
};

/// One campaign item, simulated in its own fresh World stepped alone.
sim::SimulationSummary simulate_fresh(const CampaignItem& item,
                                      const WorldAssets& assets) {
  return sim::World(world_config_for(item, assets)).run();
}

}  // namespace

std::vector<CampaignResult> run_campaign(const std::vector<CampaignItem>& items,
                                         const CampaignConfig& config,
                                         ResultsCheckpoint* checkpoint,
                                         const SimulateFn& simulate) {
  if (simulate && checkpoint != nullptr)
    throw std::invalid_argument(
        "run_campaign: a simulate hook cannot be combined with a checkpoint "
        "(the grid fingerprint cannot see what the hook changes)");
  std::vector<CampaignResult> results(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) results[i].item = items[i];
  const WorldAssets assets = WorldAssets::make_default();

  // Results are materialized by index, so the chunk cannot change the
  // outcome; it is only the unit a checkpoint restores and commits.
  if (checkpoint != nullptr) checkpoint->restore_into(results);
  std::vector<ChunkTask> tasks;
  for (std::size_t c = 0; c < chunk_count(items.size()); ++c)
    if (checkpoint == nullptr || !checkpoint->chunk_complete(c))
      tasks.push_back({0, c, c * kCampaignChunk, chunk_end(c, items.size())});
  dispatch(
      config.threads, tasks,
      [&](const ChunkTask&, std::size_t i) {
        return simulate ? simulate(i, assets) : simulate_fresh(items[i], assets);
      },
      [&](const ChunkTask& task,
          std::span<const sim::SimulationSummary> summaries) {
        CampaignResult* const chunk = results.data() + task.begin;
        for (std::size_t k = 0; k < summaries.size(); ++k)
          chunk[k].summary = summaries[k];
        if (checkpoint != nullptr)
          checkpoint->commit(task.chunk, chunk, summaries.size());
      });
  return results;
}

double Aggregate::hazard_fraction() const noexcept {
  return simulations
             ? static_cast<double>(sims_with_hazards) / static_cast<double>(simulations)
             : 0.0;
}

double Aggregate::accident_fraction() const noexcept {
  return simulations
             ? static_cast<double>(sims_with_accidents) / static_cast<double>(simulations)
             : 0.0;
}

double Aggregate::alert_fraction() const noexcept {
  return simulations
             ? static_cast<double>(sims_with_alerts) / static_cast<double>(simulations)
             : 0.0;
}

void AggregateAccumulator::add(const sim::SimulationSummary& s) {
  ++agg_.simulations;
  if (s.alert_events > 0) ++agg_.sims_with_alerts;
  if (s.any_hazard) ++agg_.sims_with_hazards;
  if (s.any_accident) ++agg_.sims_with_accidents;
  if (s.any_hazard && s.alert_events == 0) ++agg_.hazards_without_alerts;
  agg_.fcw_activations += s.fcw_events;
  invasion_rate_.add(s.lane_invasion_rate);
  if (s.tth >= 0.0) tth_.add(s.tth);
}

void AggregateAccumulator::merge(const AggregateAccumulator& other) {
  agg_.simulations += other.agg_.simulations;
  agg_.sims_with_alerts += other.agg_.sims_with_alerts;
  agg_.sims_with_hazards += other.agg_.sims_with_hazards;
  agg_.sims_with_accidents += other.agg_.sims_with_accidents;
  agg_.hazards_without_alerts += other.agg_.hazards_without_alerts;
  agg_.fcw_activations += other.agg_.fcw_activations;
  invasion_rate_.merge(other.invasion_rate_);
  tth_.merge(other.tth_);
}

Aggregate AggregateAccumulator::finish() const {
  Aggregate agg = agg_;
  agg.lane_invasion_rate_mean = invasion_rate_.mean();
  agg.tth_mean = tth_.mean();
  agg.tth_std = tth_.stddev();
  return agg;
}

AggregateAccumulatorRecord AggregateAccumulator::to_record() const noexcept {
  AggregateAccumulatorRecord record;
  record.simulations = agg_.simulations;
  record.sims_with_alerts = agg_.sims_with_alerts;
  record.sims_with_hazards = agg_.sims_with_hazards;
  record.sims_with_accidents = agg_.sims_with_accidents;
  record.hazards_without_alerts = agg_.hazards_without_alerts;
  record.fcw_activations = agg_.fcw_activations;
  record.invasion_rate = invasion_rate_.to_record();
  record.tth = tth_.to_record();
  return record;
}

AggregateAccumulator AggregateAccumulator::from_record(
    const AggregateAccumulatorRecord& record) noexcept {
  AggregateAccumulator acc;
  acc.agg_.simulations = static_cast<std::size_t>(record.simulations);
  acc.agg_.sims_with_alerts =
      static_cast<std::size_t>(record.sims_with_alerts);
  acc.agg_.sims_with_hazards =
      static_cast<std::size_t>(record.sims_with_hazards);
  acc.agg_.sims_with_accidents =
      static_cast<std::size_t>(record.sims_with_accidents);
  acc.agg_.hazards_without_alerts =
      static_cast<std::size_t>(record.hazards_without_alerts);
  acc.agg_.fcw_activations = static_cast<std::size_t>(record.fcw_activations);
  acc.invasion_rate_ = util::RunningStats::from_record(record.invasion_rate);
  acc.tth_ = util::RunningStats::from_record(record.tth);
  return acc;
}

Aggregate aggregate(const std::vector<CampaignResult>& results) {
  // Chunked exactly like run_campaign_streaming (same chunk size, same
  // within-chunk order, same chunk-order merge) so the two reductions are
  // bit-identical — including the floating-point moments.
  AggregateAccumulator total;
  for (std::size_t begin = 0; begin < results.size(); begin += kCampaignChunk) {
    const std::size_t end = std::min(results.size(), begin + kCampaignChunk);
    AggregateAccumulator chunk;
    for (std::size_t i = begin; i < end; ++i) chunk.add(results[i].summary);
    total.merge(chunk);
  }
  return total.finish();
}

std::vector<Aggregate> run_campaigns_streaming(
    const std::vector<CampaignLeg>& legs, const CampaignConfig& config) {
  const WorldAssets assets = WorldAssets::make_default();

  // The chunk range one leg owns — the whole grid, or a shard's slice
  // (clamped so an oversized range is harmless) — and one partial
  // accumulator per chunk, each written only by the worker that folds it.
  struct LegRun {
    std::size_t range_begin = 0;
    std::size_t range_end = 0;
    std::size_t range_items = 0;
    std::vector<AggregateAccumulator> partials;
  };

  std::vector<LegRun> runs(legs.size());
  std::vector<ChunkTask> tasks;
  ProgressCounter counter(legs.size());
  for (std::size_t l = 0; l < legs.size(); ++l) {
    const CampaignLeg& leg = legs[l];
    LegRun& run = runs[l];
    const std::size_t n_items = leg.items.size();
    const std::size_t n_chunks = chunk_count(n_items);
    run.range_begin =
        leg.chunks != nullptr ? std::min(leg.chunks->begin_chunk, n_chunks) : 0;
    run.range_end =
        leg.chunks != nullptr ? std::min(leg.chunks->end_chunk, n_chunks)
                              : n_chunks;
    run.partials.resize(n_chunks);

    // Restore already-committed chunks before dispatching anything: they
    // are never recomputed, and the leg's first progress callback accounts
    // for them. Only in-range chunks count — a shard worker reports its
    // slice alone.
    std::size_t restored = 0;
    for (std::size_t c = run.range_begin; c < run.range_end; ++c) {
      const std::size_t begin = c * kCampaignChunk;
      const std::size_t end = chunk_end(c, n_items);
      run.range_items += end - begin;
      if (leg.checkpoint != nullptr && leg.checkpoint->chunk_complete(c)) {
        run.partials[c] = leg.checkpoint->restored(c);
        restored += end - begin;
      } else {
        tasks.push_back({l, c, begin, end});
      }
    }
    if (leg.progress && restored > 0)
      counter.advance(l, restored, run.range_items, leg.progress);
  }

  dispatch(
      config.threads, tasks,
      [&](const ChunkTask& task, std::size_t i) {
        return simulate_fresh(legs[task.leg].items[i], assets);
      },
      [&](const ChunkTask& task,
          std::span<const sim::SimulationSummary> summaries) {
        const CampaignLeg& leg = legs[task.leg];
        AggregateAccumulator& acc = runs[task.leg].partials[task.chunk];
        // Fold in item order within the chunk — the same order the
        // sequential reduction uses.
        for (const sim::SimulationSummary& summary : summaries)
          acc.add(summary);
        // Commit before reporting progress: a chunk only ever counts as
        // done once it is durable.
        if (leg.checkpoint != nullptr) leg.checkpoint->commit(task.chunk, acc);
        if (leg.progress)
          counter.advance(task.leg, summaries.size(),
                          runs[task.leg].range_items, leg.progress);
      });

  // Merge each leg in its own chunk order: the fixed order is what makes
  // the result independent of which workers ran a chunk's items, of what the
  // other legs are — and, with a checkpoint, of which chunks were restored
  // vs. freshly computed. A sliced leg folds only its own range, so its
  // Aggregate covers exactly the slice's items.
  std::vector<Aggregate> aggregates;
  aggregates.reserve(runs.size());
  for (const LegRun& run : runs) {
    AggregateAccumulator total;
    for (std::size_t c = run.range_begin; c < run.range_end; ++c)
      total.merge(run.partials[c]);
    aggregates.push_back(total.finish());
  }
  return aggregates;
}

Aggregate run_campaign_streaming(const std::vector<CampaignItem>& items,
                                 const CampaignConfig& config,
                                 const CampaignProgressFn& progress,
                                 CampaignCheckpoint* checkpoint,
                                 const ChunkRange* chunks) {
  return run_campaigns_streaming({CampaignLeg{items, checkpoint, chunks,
                                              progress}},
                                 config)
      .front();
}

}  // namespace scaa::exp
