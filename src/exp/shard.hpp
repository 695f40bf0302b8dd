#pragma once

/// @file shard.hpp
/// Deterministic campaign sharding and bit-exact slice merging.
///
/// A campaign grid is embarrassingly parallel across processes, not just
/// threads: ShardPlan splits the grid's kCampaignChunk-sized chunks into N
/// contiguous, balanced, deterministic slices, each worker process runs its
/// slice through the streaming runner into its own checkpoint file (the
/// file fingerprints the FULL grid, so every slice of one campaign carries
/// the same fingerprint — see exp/checkpoint.hpp), and merge_slice_files
/// folds the per-chunk accumulator records of all slices back together in
/// global chunk order.
///
/// ## Why the merge is bit-identical to a single-process run
///
/// Three invariants stack:
///  1. Chunk boundaries are the reduction granularity: a single-process run
///     folds one accumulator per chunk and merges them in chunk order
///     (PR 2's streaming runner).
///  2. Shard boundaries fall ON chunk boundaries (ChunkRange), so the union
///     of all slices' chunk sets is exactly the single-process chunk set.
///  3. Checkpoint records snapshot accumulators as raw IEEE-754 bit
///     patterns (PR 3), so a restored chunk is indistinguishable from a
///     freshly computed one.
/// merge_slice_files therefore replays the exact single-process reduction —
/// same partials, same order — regardless of which process (or machine, or
/// how many kill/resume cycles) produced each chunk.
///
/// Worker failure costs nothing extra: a killed worker's slice resumes from
/// its last fsync'd chunk (PR 3), and flock exclusivity makes dispatching
/// the same slice twice fail cleanly.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/campaign.hpp"

namespace scaa::exp {

/// Deterministic partition of a grid's chunks into N contiguous slices.
/// Slice boundaries depend only on (item count, shard count): every
/// participant — each --shard i/N worker and merge — computes the
/// identical plan with no communication.
class ShardPlan {
 public:
  /// Throws std::invalid_argument when @p n_shards is 0.
  ShardPlan(std::size_t n_items, std::size_t n_shards);

  std::size_t chunk_count() const noexcept { return n_chunks_; }
  std::size_t shard_count() const noexcept { return n_shards_; }

  /// The half-open chunk range of @p shard (0-based). Balanced to within
  /// one chunk; empty when there are more shards than chunks.
  ChunkRange chunks_for(std::size_t shard) const;

  /// Simulations covered by @p shard's slice.
  std::size_t items_in(std::size_t shard) const;

 private:
  std::size_t n_items_ = 0;
  std::size_t n_chunks_ = 0;
  std::size_t n_shards_ = 1;
};

/// First 8 hex digits of a grid fingerprint: the short form embedded in
/// slice file names so two different grids can never share a file name
/// even when their human-readable slice names slug identically.
std::string short_fingerprint(std::uint64_t fingerprint);

/// File-name suffix of one shard's slice: ".s<i+1>of<N>" (1-based, matching
/// the CLI's --shard i/N). Empty for the unsharded single-file case.
std::string shard_suffix(std::size_t shard, std::size_t n_shards);

/// Fold the per-chunk records of @p slice_paths (agg-mode checkpoint files
/// of the SAME grid) in global chunk order into the campaign Aggregate —
/// bit-identical to an uninterrupted single-process run (see file comment).
///
/// Throws CheckpointError when a file is missing/corrupt/locked, when a
/// file's fingerprint does not match @p items, when two files both commit
/// the same chunk (duplicate or overlapping slices), or when the union of
/// slices does not cover every chunk (the diagnostic names the missing
/// chunks and the resume command that completes them). An empty slice —
/// a valid header and no records, which is what a worker whose slice holds
/// zero chunks leaves behind — contributes nothing and is fine.
Aggregate merge_slice_files(const std::vector<CampaignItem>& items,
                            const std::vector<std::string>& slice_paths);

}  // namespace scaa::exp
