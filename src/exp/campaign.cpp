#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>

#include "exp/checkpoint.hpp"
#include "exp/thread_pool.hpp"
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

/// The first exception thrown by any chunk task. Workers poll `failed` to
/// skip the chunks not yet started; the runner rethrows once the pool has
/// drained, because an exception escaping a pool task would terminate the
/// process.
struct FirstError {
  util::Mutex mutex;
  std::exception_ptr first SCAA_GUARDED_BY(mutex);
  std::atomic<bool> failed{false};

  void capture(std::exception_ptr e) SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    if (!first) first = std::move(e);
    failed.store(true, std::memory_order_release);
  }
  std::exception_ptr take() SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    return first;
  }
};

/// The one chunk loop behind both runners, and the only ThreadPool in the
/// campaign layer: runs @p run_chunk(c) for every chunk index in @p chunks
/// on @p threads workers. The first exception a chunk throws stops the
/// chunks not yet started and is rethrown after the pool drains.
void run_chunks(std::size_t threads, const std::vector<std::size_t>& chunks,
                const std::function<void(std::size_t)>& run_chunk) {
  FirstError error;
  {
    ThreadPool pool(threads);
    for (const std::size_t c : chunks) {
      pool.submit([&run_chunk, &error, c] {
        if (error.failed.load(std::memory_order_acquire)) return;
        try {
          run_chunk(c);
        } catch (...) {
          error.capture(std::current_exception());
        }
      });
    }
    pool.wait_idle();
  }
  if (const std::exception_ptr e = error.take()) std::rethrow_exception(e);
}

std::size_t chunk_count(std::size_t items) {
  return (items + kCampaignChunk - 1) / kCampaignChunk;
}

/// One past the last item of chunk @p c in a grid of @p items.
std::size_t chunk_end(std::size_t c, std::size_t items) {
  return std::min(items, (c + 1) * kCampaignChunk);
}

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

  // Chunk-sized tasks, because the chunk is the checkpoint's commit unit.
  // Results are materialized by index, so granularity cannot change the
  // outcome — only how work restores and commits.
  if (checkpoint != nullptr) checkpoint->restore_into(results);
  std::vector<std::size_t> pending;
  for (std::size_t c = 0; c < chunk_count(items.size()); ++c)
    if (checkpoint == nullptr || !checkpoint->chunk_complete(c))
      pending.push_back(c);
  run_chunks(config.threads, pending, [&](std::size_t c) {
    const std::size_t begin = c * kCampaignChunk;
    const std::size_t end = chunk_end(c, items.size());
    for (std::size_t i = begin; i < end; ++i)
      results[i].summary =
          simulate ? simulate(i, assets) : simulate_fresh(items[i], assets);
    if (checkpoint != nullptr)
      checkpoint->commit(c, results.data() + begin, end - begin);
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

Aggregate run_campaign_streaming(const std::vector<CampaignItem>& items,
                                 const CampaignConfig& config,
                                 const CampaignProgressFn& progress,
                                 CampaignCheckpoint* checkpoint,
                                 const ChunkRange* chunks) {
  const WorldAssets assets = WorldAssets::make_default();
  const std::size_t n_chunks = chunk_count(items.size());

  // The chunk range this call owns: the whole grid, or a shard's slice
  // (clamped so an oversized range is harmless).
  const std::size_t range_begin =
      chunks != nullptr ? std::min(chunks->begin_chunk, n_chunks) : 0;
  const std::size_t range_end =
      chunks != nullptr ? std::min(chunks->end_chunk, n_chunks) : n_chunks;
  const auto chunk_items = [&](std::size_t c) {
    return chunk_end(c, items.size()) - c * kCampaignChunk;
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
  std::vector<std::size_t> pending;
  for (std::size_t c = range_begin; c < range_end; ++c) {
    if (checkpoint != nullptr && checkpoint->chunk_complete(c)) {
      partials[c].acc = checkpoint->restored(c);
      restored += chunk_items(c);
    } else {
      pending.push_back(c);
    }
  }
  if (progress && restored > 0)
    progress(CampaignProgress{restored, range_items});

  ProgressCounter counter;
  counter.start_at(restored);
  run_chunks(config.threads, pending, [&](std::size_t c) {
    const std::size_t begin = c * kCampaignChunk;
    const std::size_t end = chunk_end(c, items.size());
    // Fold in item order within the chunk — the same order the sequential
    // reduction uses.
    for (std::size_t i = begin; i < end; ++i)
      partials[c].acc.add(simulate_fresh(items[i], assets));
    // Commit before reporting progress: a chunk only ever counts as done
    // once it is durable.
    if (checkpoint != nullptr) checkpoint->commit(c, partials[c].acc);
    if (progress) counter.advance(end - begin, range_items, progress);
  });

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
