#pragma once

/// @file campaign.hpp
/// Batch experiment execution over the scenario x attack grid.
///
/// The paper's grid: 6 attack types x 4 scenarios x 3 initial gaps x 20
/// repetitions = 1,440 simulations per strategy (14,400 for Random-ST+DUR,
/// which uses 200 repetitions for parameter-space coverage). Each simulation
/// is a pure function of its CampaignItem, so the runners hand items out to
/// worker threads one at a time with bit-identical results at any thread
/// count.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/world.hpp"
#include "util/stats.hpp"

namespace scaa::exp {

/// One cell of the campaign grid.
struct CampaignItem {
  attack::StrategyKind strategy = attack::StrategyKind::kNone;
  attack::AttackType type = attack::AttackType::kAcceleration;
  bool strategic_values = true;
  bool driver_enabled = true;
  int scenario_id = 1;       ///< 1..4
  double initial_gap = 100;  ///< [m]
  std::uint64_t seed = 1;    ///< unique per simulation
  /// Benign-fault plan (shared, immutable; null = none — the historical
  /// grids). Part of the grid identity: folded into grid_fingerprint so
  /// resume/merge reject a checkpoint written under a different plan.
  std::shared_ptr<const fault::FaultPlan> fault_plan;
};

/// Item + outcome.
struct CampaignResult {
  CampaignItem item;
  sim::SimulationSummary summary;
};

/// Campaign-wide knobs. base_seed and repetitions feed make_grid (the grid
/// builder is the only consumer of either); threads feeds the runners.
struct CampaignConfig {
  std::uint64_t base_seed = 2022;  ///< mixed into every item's seed
  int repetitions = 20;            ///< paper: 20 per (type, scenario, gap)
  std::size_t threads = 0;         ///< 0 = hardware concurrency
};

/// Build the full item grid for one strategy (paper Table III row), seeded
/// from @p config.base_seed. @p repetitions overrides config-level
/// repetitions when > 0 (e.g. Table IV's Random-ST+DUR 10x multiplier);
/// otherwise @p config.repetitions applies. An effective repetition count
/// <= 0 would silently yield an empty grid and empty-looking tables, so it
/// throws std::invalid_argument instead.
std::vector<CampaignItem> make_grid(attack::StrategyKind strategy,
                                    bool strategic_values, bool driver_enabled,
                                    const CampaignConfig& config,
                                    int repetitions = 0);

/// Immutable per-campaign assets: the road and DBC database are identical
/// for every simulation, so campaigns build them once and share them
/// (const) across all Worlds instead of rebuilding per simulation.
struct WorldAssets {
  std::shared_ptr<const road::Road> road;
  std::shared_ptr<const can::Database> db;

  /// Build the paper's default assets (RoadBuilder::paper_road +
  /// Database::simulated_car).
  static WorldAssets make_default();
};

/// Construct the WorldConfig for one item (the single place where
/// calibration defaults live — tests and benches share it). The World
/// builds private road/DBC copies; campaigns use the sharing overload.
sim::WorldConfig world_config_for(const CampaignItem& item);

/// As above, but referencing @p assets instead of rebuilding them.
sim::WorldConfig world_config_for(const CampaignItem& item,
                                  const WorldAssets& assets);

/// The fold and commit unit: the reduction granularity of the streaming
/// aggregator and the commit granularity of the checkpoint layer. Fixed, so
/// streaming results are bit-identical to the vector-of-results path at any
/// thread count, and a resumed campaign restores whole chunks. Scheduling
/// is per item: the items of one chunk may run on different workers.
inline constexpr std::size_t kCampaignChunk = 64;

class CampaignCheckpoint;  // exp/checkpoint.hpp: streaming-aggregate mode
class ResultsCheckpoint;   // exp/checkpoint.hpp: per-item results mode

/// Half-open range of kCampaignChunk-sized chunks [begin_chunk, end_chunk)
/// in a grid's global chunk index space: the unit exp::ShardPlan splits a
/// grid into --shard i/N worker slices by. Because shard boundaries fall
/// on chunk boundaries — the reduction and checkpoint-commit granularity —
/// per-slice partials merged back in global chunk order are bit-identical
/// to a single-process run.
struct ChunkRange {
  std::size_t begin_chunk = 0;
  std::size_t end_chunk = 0;

  std::size_t chunk_count() const noexcept { return end_chunk - begin_chunk; }
};

/// Per-item simulation hook for run_campaign: the item's index into the
/// grid and the campaign's shared assets in, that item's summary out. It is
/// called concurrently from worker threads, once per item, so whatever it
/// writes besides its return value must go to a slot owned by that index.
using SimulateFn = std::function<sim::SimulationSummary(
    std::size_t index, const WorldAssets& assets)>;

/// Run every item, each in its own freshly constructed World; results are
/// returned in item order (deterministic). Up to config.threads workers
/// claim one item at a time in grid order. With a @p checkpoint (may be
/// null), kCampaignChunk chunks the checkpoint already holds are restored
/// instead of recomputed, and each chunk is durably committed by the worker
/// that finishes its last item, so a killed run resumes where it left off
/// with bit-identical results.
///
/// A non-empty @p simulate replaces the default per-item run, a fresh
/// `World(world_config_for(item, assets)).run()`: it may adjust the
/// WorldConfig (a forced attack window, the driver's reaction time) or
/// attach a detector to the World. grid_fingerprint cannot see what a hook
/// does, so a hook together with a @p checkpoint throws
/// std::invalid_argument. The first exception any item throws — from the
/// hook, the simulation or a commit — stops every item not yet claimed and
/// is rethrown once the workers have joined; a chunk with a failed item is
/// never committed.
std::vector<CampaignResult> run_campaign(const std::vector<CampaignItem>& items,
                                         const CampaignConfig& config,
                                         ResultsCheckpoint* checkpoint = nullptr,
                                         const SimulateFn& simulate = {});

/// Aggregate counters over a set of results (one Table IV row).
struct Aggregate {
  std::size_t simulations = 0;
  std::size_t sims_with_alerts = 0;
  std::size_t sims_with_hazards = 0;
  std::size_t sims_with_accidents = 0;
  std::size_t hazards_without_alerts = 0;  ///< hazard and no alert at all
  std::size_t fcw_activations = 0;
  double lane_invasion_rate_mean = 0.0;
  double tth_mean = 0.0;
  double tth_std = 0.0;

  /// Fraction helpers.
  double hazard_fraction() const noexcept;
  double accident_fraction() const noexcept;
  double alert_fraction() const noexcept;
};

/// Bit-exact snapshot of an AggregateAccumulator: the integer counters plus
/// the two Welford accumulators as raw bit patterns. This is what the
/// checkpoint layer persists per chunk; restoring it and merging in chunk
/// order reproduces an uninterrupted run exactly.
struct AggregateAccumulatorRecord {
  std::uint64_t simulations = 0;
  std::uint64_t sims_with_alerts = 0;
  std::uint64_t sims_with_hazards = 0;
  std::uint64_t sims_with_accidents = 0;
  std::uint64_t hazards_without_alerts = 0;
  std::uint64_t fcw_activations = 0;
  util::RunningStatsRecord invasion_rate;
  util::RunningStatsRecord tth;
};

/// Mergeable aggregate state: exact integer counters plus Welford moment
/// accumulators. The single reduction implementation behind both
/// aggregate() and run_campaign_streaming(), so the two can never drift.
class AggregateAccumulator {
 public:
  /// Fold one simulation outcome in.
  void add(const sim::SimulationSummary& summary);

  /// Fold another accumulator in (parallel/chunked reduction).
  void merge(const AggregateAccumulator& other);

  /// Finalize into the row the tables render.
  Aggregate finish() const;

  /// Exact snapshot; from_record(to_record()) is the identity.
  AggregateAccumulatorRecord to_record() const noexcept;

  /// Reconstitute an accumulator from a snapshot, bit-for-bit.
  static AggregateAccumulator from_record(
      const AggregateAccumulatorRecord& record) noexcept;

 private:
  Aggregate agg_;  ///< counter fields only; means/stds filled by finish()
  util::RunningStats invasion_rate_;
  util::RunningStats tth_;
};

/// Reduce results into an Aggregate (chunked exactly like the streaming
/// runner, so both produce bit-identical statistics).
Aggregate aggregate(const std::vector<CampaignResult>& results);

/// Streaming progress snapshot, delivered after every finished chunk.
struct CampaignProgress {
  std::size_t completed = 0;  ///< simulations finished so far
  std::size_t total = 0;      ///< grid size
};
using CampaignProgressFn = std::function<void(const CampaignProgress&)>;

/// One grid ("leg") of a streaming run: the grid and the per-grid knobs
/// described at run_campaigns_streaming. The caller owns everything the
/// leg points at, and keeps it alive for the duration of the call.
struct CampaignLeg {
  std::span<const CampaignItem> items;       ///< the FULL grid
  CampaignCheckpoint* checkpoint = nullptr;  ///< may be null
  const ChunkRange* chunks = nullptr;        ///< null = the whole grid
  CampaignProgressFn progress;               ///< may be empty
};

/// Run every item of every leg WITHOUT materializing per-item results, and
/// return one Aggregate per leg, in leg order. The workers, created and
/// joined inside the call, claim one item at a time from a single cursor
/// over every leg in (leg, chunk, item) order, so a small grid, or a
/// report made of many (the faults sweep: 50 legs of 72 items per
/// repetition), keeps every worker busy to its end. A claimed item's
/// summary goes to a slot buffer owned by its kCampaignChunk chunk; the
/// worker that finishes the chunk's last item folds the slots in item order
/// into the chunk's accumulator, and each leg's partials are merged in that
/// leg's chunk order once the workers join. At most threads + 1 chunks are
/// open at a time, so memory stays O(threads x kCampaignChunk) summaries
/// plus O(items / kCampaignChunk) accumulators instead of O(items)
/// summaries, and every leg's Aggregate is bit-identical to
/// aggregate(run_campaign(leg items, config)) at any thread count and
/// whatever the other legs are.
///
/// Progress: every leg's callback (may be empty) is called under ONE lock
/// shared by all legs of the call, so callbacks never run concurrently —
/// callbacks of different legs may write to one stream with no lock of
/// their own — and each leg's counts are monotonically non-decreasing.
/// Counts and totals are per leg. Live output matters for hour-long
/// paper-scale campaigns.
///
/// With a leg's checkpoint (may be null), chunks the checkpoint already
/// holds are restored (never recomputed) and counted into that leg's first
/// progress callback, and each freshly folded chunk is committed — an
/// fsync'd atomic append — before it reports progress. Because restored and
/// recomputed partials merge in the same fixed chunk order, a run that is
/// killed and resumed any number of times returns Aggregates bit-identical
/// to an uninterrupted run, at any thread count. The caller opens every
/// checkpoint before the call, so a checkpoint that cannot be opened fails
/// before any simulation runs. A failure in any leg (a commit, e.g. disk
/// full, a simulation, or a progress callback) stops the items of every
/// leg not yet claimed and is rethrown after the workers join; a chunk
/// with a failed item is never committed.
///
/// With a leg's chunks range (may be null = the whole grid), only the
/// chunks in [begin_chunk, end_chunk) are restored, run, folded, and
/// counted: this is the shard-worker entry point, where the leg's items
/// are still the FULL grid (so the checkpoint fingerprint matches every
/// other slice of the same campaign) but this process owns only its slice.
/// Progress totals cover the slice, and the returned Aggregate is the
/// slice's alone — the merge step (exp/shard.hpp) folds the per-chunk
/// checkpoint records of all slices in global chunk order to reconstruct
/// the campaign total bit-identically.
std::vector<Aggregate> run_campaigns_streaming(
    const std::vector<CampaignLeg>& legs, const CampaignConfig& config);

/// One-leg run_campaigns_streaming: the streaming run of a single grid,
/// with @p progress, @p checkpoint and @p chunks as described there.
Aggregate run_campaign_streaming(const std::vector<CampaignItem>& items,
                                 const CampaignConfig& config,
                                 const CampaignProgressFn& progress = {},
                                 CampaignCheckpoint* checkpoint = nullptr,
                                 const ChunkRange* chunks = nullptr);

}  // namespace scaa::exp
