#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>

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

/// Captures the first checkpoint-commit failure from a worker thread so the
/// runner can abort outstanding work and rethrow once the pool drains
/// (letting an exception escape a pool task would terminate the process).
struct CommitErrors {
  util::Mutex mutex;
  std::string first SCAA_GUARDED_BY(mutex);
  std::atomic<bool> failed{false};

  void capture(const std::exception& e) SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    if (first.empty()) first = e.what();
    failed.store(true, std::memory_order_release);
  }
  void rethrow_if_failed() SCAA_EXCLUDES(mutex) {
    if (!failed.load(std::memory_order_acquire)) return;
    // The pool has drained by the time this runs, but take the lock anyway:
    // `first` is guarded, and an uncontended lock costs nothing here.
    const util::MutexLock lock(mutex);
    throw CheckpointError(first);
  }
};

/// Progress bookkeeping shared by the streaming runner's workers: the
/// cumulative completed-simulation count and the user callback invocation
/// are both serialized by one mutex, so callbacks observe monotonically
/// non-decreasing counts.
struct ProgressCounter {
  util::Mutex mutex;
  std::size_t completed SCAA_GUARDED_BY(mutex) = 0;

  void start_at(std::size_t restored) SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    completed = restored;
  }
  void advance(std::size_t delta, std::size_t total,
               const CampaignProgressFn& progress) SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    completed += delta;
    progress(CampaignProgress{completed, total});
  }
};

/// One campaign item, simulated in its own fresh World stepped alone.
sim::SimulationSummary simulate(const CampaignItem& item,
                                const WorldAssets& assets) {
  return sim::World(world_config_for(item, assets)).run();
}

}  // namespace

std::vector<CampaignResult> run_campaign(const std::vector<CampaignItem>& items,
                                         const CampaignConfig& config,
                                         ResultsCheckpoint* checkpoint) {
  std::vector<CampaignResult> results(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) results[i].item = items[i];
  const WorldAssets assets = WorldAssets::make_default();

  // Chunk-sized tasks, because the chunk is the checkpoint's commit unit.
  // Results are materialized by index, so granularity cannot change the
  // outcome — only how work restores and commits.
  if (checkpoint != nullptr) checkpoint->restore_into(results);
  const std::size_t n_chunks =
      (items.size() + kCampaignChunk - 1) / kCampaignChunk;
  CommitErrors errors;
  {
    ThreadPool pool(config.threads);
    for (std::size_t c = 0; c < n_chunks; ++c) {
      if (checkpoint != nullptr && checkpoint->chunk_complete(c)) continue;
      pool.submit([&items, &results, &assets, checkpoint, &errors, c] {
        if (errors.failed.load(std::memory_order_acquire)) return;
        const std::size_t begin = c * kCampaignChunk;
        const std::size_t end = std::min(items.size(), begin + kCampaignChunk);
        for (std::size_t i = begin; i < end; ++i)
          results[i].summary = simulate(items[i], assets);
        if (checkpoint == nullptr) return;
        try {
          checkpoint->commit(c, results.data() + begin, end - begin);
        } catch (const std::exception& e) {
          errors.capture(e);
        }
      });
    }
    pool.wait_idle();
  }
  errors.rethrow_if_failed();
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

Aggregate run_campaign_streaming(const std::vector<CampaignItem>& items,
                                 const CampaignConfig& config,
                                 const CampaignProgressFn& progress,
                                 CampaignCheckpoint* checkpoint,
                                 const ChunkRange* chunks) {
  const WorldAssets assets = WorldAssets::make_default();
  const std::size_t n_chunks =
      (items.size() + kCampaignChunk - 1) / kCampaignChunk;

  // The chunk range this call owns: the whole grid, or a shard's slice
  // (clamped so an oversized range is harmless).
  const std::size_t range_begin =
      chunks != nullptr ? std::min(chunks->begin_chunk, n_chunks) : 0;
  const std::size_t range_end =
      chunks != nullptr ? std::min(chunks->end_chunk, n_chunks) : n_chunks;
  const auto chunk_items = [&](std::size_t c) {
    return std::min(items.size(), (c + 1) * kCampaignChunk) -
           c * kCampaignChunk;
  };
  std::size_t range_items = 0;
  for (std::size_t c = range_begin; c < range_end; ++c)
    range_items += chunk_items(c);

  // One accumulator per chunk, padded to a cache line: each is written by
  // exactly one worker, and the padding keeps neighbouring chunks from
  // false-sharing while workers fold results in concurrently.
  struct alignas(64) PaddedAccumulator {
    AggregateAccumulator acc;
  };
  std::vector<PaddedAccumulator> partials(n_chunks);

  // Restore already-committed chunks before submitting anything: they are
  // never recomputed, and the first progress callback accounts for them.
  // Only in-range chunks count — a shard worker reports its slice alone.
  std::size_t restored = 0;
  if (checkpoint != nullptr) {
    for (std::size_t c = range_begin; c < range_end; ++c) {
      if (!checkpoint->chunk_complete(c)) continue;
      partials[c].acc = checkpoint->restored(c);
      restored += chunk_items(c);
    }
    if (progress && restored > 0)
      progress(CampaignProgress{restored, range_items});
  }

  ProgressCounter counter;
  counter.start_at(restored);
  CommitErrors errors;
  {
    ThreadPool pool(config.threads);
    for (std::size_t c = range_begin; c < range_end; ++c) {
      if (checkpoint != nullptr && checkpoint->chunk_complete(c)) continue;
      pool.submit([&items, &assets, &partials, &progress, &counter,
                   checkpoint, &errors, c, range_items] {
        if (errors.failed.load(std::memory_order_acquire)) return;
        const std::size_t begin = c * kCampaignChunk;
        const std::size_t end =
            std::min(items.size(), begin + kCampaignChunk);
        // Fold in item order within the chunk — the same order the
        // sequential reduction uses.
        for (std::size_t i = begin; i < end; ++i)
          partials[c].acc.add(simulate(items[i], assets));
        // Commit before reporting progress: a chunk only ever counts as
        // done once it is durable.
        if (checkpoint != nullptr) {
          try {
            checkpoint->commit(c, partials[c].acc);
          } catch (const std::exception& e) {
            errors.capture(e);
            return;
          }
        }
        if (progress) counter.advance(end - begin, range_items, progress);
      });
    }
    pool.wait_idle();
  }
  errors.rethrow_if_failed();

  // Merge in chunk order: the fixed order is what makes the result
  // independent of which worker ran which chunk — and, with a checkpoint,
  // of which chunks were restored vs. freshly computed. A sliced call
  // folds only its own range, so the returned Aggregate covers exactly
  // the slice's items.
  AggregateAccumulator total;
  for (std::size_t c = range_begin; c < range_end; ++c)
    total.merge(partials[c].acc);
  return total.finish();
}

}  // namespace scaa::exp
