// Tests for sharded campaign orchestration: the deterministic ShardPlan
// partition, slice file naming (fingerprint suffix + collision rejection),
// and the headline guarantee — per-slice checkpoint files merged in global
// chunk order are bit-identical to a single-process run, across shard
// counts, empty slices, torn tails repaired by resume, and the CLI
// coordinator/worker/merge surface.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/campaigns.hpp"
#include "exp/campaign.hpp"
#include "exp/checkpoint.hpp"
#include "exp/shard.hpp"
#include "util/serial.hpp"

namespace {

using namespace scaa;

exp::CampaignConfig grid_config(int reps, std::uint64_t seed) {
  exp::CampaignConfig config;
  config.repetitions = reps;
  config.base_seed = seed;
  config.threads = 2;
  return config;
}

std::vector<exp::CampaignItem> small_grid(int reps = 2,
                                          std::uint64_t seed = 99) {
  // reps=2: 144 items = 3 chunks (64+64+16) — multi-chunk structure with an
  // odd tail, while staying fast enough to run several shard plans over.
  return exp::make_grid(attack::StrategyKind::kContextAware,
                        /*strategic_values=*/true, /*driver_enabled=*/true,
                        grid_config(reps, seed));
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "scaa_shard_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

void expect_bit_identical(const exp::Aggregate& a, const exp::Aggregate& b) {
  EXPECT_EQ(a.simulations, b.simulations);
  EXPECT_EQ(a.sims_with_alerts, b.sims_with_alerts);
  EXPECT_EQ(a.sims_with_hazards, b.sims_with_hazards);
  EXPECT_EQ(a.sims_with_accidents, b.sims_with_accidents);
  EXPECT_EQ(a.hazards_without_alerts, b.hazards_without_alerts);
  EXPECT_EQ(a.fcw_activations, b.fcw_activations);
  EXPECT_EQ(util::double_bits(a.lane_invasion_rate_mean),
            util::double_bits(b.lane_invasion_rate_mean));
  EXPECT_EQ(util::double_bits(a.tth_mean), util::double_bits(b.tth_mean));
  EXPECT_EQ(util::double_bits(a.tth_std), util::double_bits(b.tth_std));
}

/// Run every shard's slice of @p items into per-slice checkpoint files
/// under @p stem, exactly like a worker fleet would, returning the paths.
std::vector<std::string> run_sharded(const std::vector<exp::CampaignItem>& items,
                                     const exp::CampaignConfig& cc,
                                     std::size_t shard_count,
                                     const std::string& stem) {
  const exp::ShardPlan plan(items.size(), shard_count);
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::string path =
        stem + exp::shard_suffix(s, shard_count) + ".slice";
    std::remove(path.c_str());
    const exp::ChunkRange range = plan.chunks_for(s);
    exp::CampaignCheckpoint checkpoint(path, items, /*resume=*/false);
    exp::run_campaign_streaming(items, cc, {}, &checkpoint, &range);
    paths.push_back(path);
  }
  return paths;
}

// --- ShardPlan -------------------------------------------------------------

TEST(ShardPlan, PartitionsChunksExactly) {
  // Every (items, shards) combination must yield contiguous, disjoint,
  // balanced slices whose union is the whole grid.
  for (const std::size_t n_items : {0u, 1u, 63u, 64u, 65u, 144u, 1000u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
      const exp::ShardPlan plan(n_items, shards);
      const std::size_t n_chunks = (n_items + exp::kCampaignChunk - 1) /
                                   exp::kCampaignChunk;
      EXPECT_EQ(plan.chunk_count(), n_chunks);
      std::size_t next_chunk = 0;
      std::size_t total_items = 0;
      std::size_t min_chunks = n_chunks, max_chunks = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const exp::ChunkRange range = plan.chunks_for(s);
        EXPECT_EQ(range.begin_chunk, next_chunk);  // contiguous, in order
        EXPECT_LE(range.begin_chunk, range.end_chunk);
        next_chunk = range.end_chunk;
        min_chunks = std::min(min_chunks, range.chunk_count());
        max_chunks = std::max(max_chunks, range.chunk_count());
        total_items += plan.items_in(s);
      }
      EXPECT_EQ(next_chunk, n_chunks);    // full coverage
      EXPECT_EQ(total_items, n_items);    // item accounting matches
      if (n_chunks > 0) {
        EXPECT_LE(max_chunks - min_chunks, 1u);  // balanced within one chunk
      }
    }
  }
}

TEST(ShardPlan, MoreShardsThanChunksYieldsEmptySlices) {
  const exp::ShardPlan plan(130, 5);  // 3 chunks across 5 shards
  std::size_t empty = 0;
  for (std::size_t s = 0; s < 5; ++s) {
    if (plan.chunks_for(s).chunk_count() == 0) {
      ++empty;
      EXPECT_EQ(plan.items_in(s), 0u);
    }
  }
  EXPECT_EQ(empty, 2u);
}

TEST(ShardPlan, RejectsDegenerateArguments) {
  EXPECT_THROW(exp::ShardPlan(10, 0), std::invalid_argument);
  EXPECT_THROW(exp::ShardPlan(10, 2).chunks_for(2), std::invalid_argument);
}

// --- slice naming ----------------------------------------------------------

TEST(SliceNaming, ShortFingerprintAndSuffix) {
  EXPECT_EQ(exp::short_fingerprint(0xDEADBEEF12345678ull), "deadbeef");
  EXPECT_EQ(exp::shard_suffix(0, 0), "");
  EXPECT_EQ(exp::shard_suffix(0, 1), "");
  EXPECT_EQ(exp::shard_suffix(0, 4), ".s1of4");
  EXPECT_EQ(exp::shard_suffix(3, 4), ".s4of4");
}

TEST(SliceNaming, CheckpointFileEmbedsSlugFingerprintAndShard) {
  EXPECT_EQ(cli::slice_slug("Random-ST+DUR"), "random-st-dur");
  EXPECT_EQ(cli::slice_checkpoint_file("runs/t4", "table4 Random-ST+DUR",
                                       0xABCDEF0122334455ull),
            "runs/t4.table4-random-st-dur-abcdef01");
  EXPECT_EQ(cli::slice_checkpoint_file("t4", "table4 No Attacks",
                                       0x1122334455667788ull, 1, 3),
            "t4.table4-no-attacks-11223344.s2of3");
}

TEST(SliceNaming, CollisionsAreRejectedWithBothNames) {
  // Same slug, same short fingerprint, different slice names: the exact
  // hazard the fingerprint suffix cannot disambiguate — must be rejected.
  const std::vector<std::pair<std::string, std::uint64_t>> colliding = {
      {"table4 Fixed On", 0x1111111100000001ull},
      {"table4 fixed-on", 0x1111111100000002ull},  // same first 8 hex digits
  };
  try {
    cli::reject_slice_file_collisions("stem", colliding);
    FAIL() << "collision not rejected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Fixed On"), std::string::npos);
    EXPECT_NE(what.find("fixed-on"), std::string::npos);
  }

  // Distinct fingerprints disambiguate identical slugs: no collision.
  const std::vector<std::pair<std::string, std::uint64_t>> disambiguated = {
      {"table4 Fixed On", 0x1111111100000000ull},
      {"table4 fixed-on", 0x2222222200000000ull},
  };
  EXPECT_NO_THROW(
      cli::reject_slice_file_collisions("stem", disambiguated));

  // The same slice listed twice (same name) shares its file by design.
  const std::vector<std::pair<std::string, std::uint64_t>> same_slice = {
      {"table4 Fixed On", 0x1111111100000000ull},
      {"table4 Fixed On", 0x1111111100000000ull},
  };
  EXPECT_NO_THROW(cli::reject_slice_file_collisions("stem", same_slice));
}

// --- merge bit-identity ----------------------------------------------------

TEST(ShardMerge, MergedSlicesAreBitIdenticalAcrossShardCounts) {
  const auto items = small_grid();
  const auto cc = grid_config(2, 99);
  const exp::Aggregate reference = exp::run_campaign_streaming(items, cc);

  // 1 shard (degenerate), 2 and 3 (balanced vs. not), 5 (> chunk count, so
  // two slices are empty header-only files).
  for (const std::size_t shards : {1u, 2u, 3u, 5u}) {
    const auto paths = run_sharded(
        items, cc, shards, temp_path("merge" + std::to_string(shards)));
    const exp::Aggregate merged = exp::merge_slice_files(items, paths);
    expect_bit_identical(reference, merged);
  }
}

TEST(ShardMerge, TornTailIsMissingUntilResumeRepairsIt) {
  const auto items = small_grid();
  const auto cc = grid_config(2, 99);
  const exp::Aggregate reference = exp::run_campaign_streaming(items, cc);
  const auto paths = run_sharded(items, cc, 2, temp_path("torn"));

  // Tear the final append of shard 2's file (chunks [1,3)): the reader must
  // tolerate the tail without repairing, and the merge must name the now
  // missing chunk instead of folding a half-written record.
  const std::string original = read_file(paths[1]);
  write_file(paths[1], original.substr(0, original.size() - 7));
  try {
    exp::merge_slice_files(items, paths);
    FAIL() << "merge accepted a slice with a torn (missing) chunk";
  } catch (const exp::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos);
  }
  // Read-only loading must not have modified the file.
  EXPECT_EQ(read_file(paths[1]).size(), original.size() - 7);

  // A worker resume repairs the tail and recomputes only the torn chunk;
  // the merge is then bit-identical again.
  {
    const exp::ShardPlan plan(items.size(), 2);
    const exp::ChunkRange range = plan.chunks_for(1);
    exp::CampaignCheckpoint checkpoint(paths[1], items, /*resume=*/true);
    EXPECT_EQ(checkpoint.completed_chunks(), 1u);  // one chunk survived
    exp::run_campaign_streaming(items, cc, {}, &checkpoint, &range);
  }
  expect_bit_identical(reference, exp::merge_slice_files(items, paths));
}

TEST(ShardMerge, RejectsForeignGridFingerprint) {
  const auto items = small_grid();
  const auto cc = grid_config(2, 99);
  const auto paths = run_sharded(items, cc, 2, temp_path("fp"));
  const auto other_grid = small_grid(2, /*seed=*/100);  // different seed
  EXPECT_THROW(exp::merge_slice_files(other_grid, paths),
               exp::CheckpointError);
}

TEST(ShardMerge, RejectsDuplicateAndOverlappingSlices) {
  const auto items = small_grid();
  const auto cc = grid_config(2, 99);
  const auto paths = run_sharded(items, cc, 2, temp_path("dup"));

  // The same slice file twice: every chunk it holds is a duplicate. The
  // diagnostic must name both files.
  const std::string copy = temp_path("dup.copy");
  write_file(copy, read_file(paths[0]));
  try {
    exp::merge_slice_files(items, {paths[0], paths[1], copy});
    FAIL() << "merge accepted overlapping slices";
  } catch (const exp::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(paths[0]), std::string::npos);
    EXPECT_NE(what.find(copy), std::string::npos);
  }
}

TEST(ShardMerge, MissingSliceFileFailsCleanly) {
  const auto items = small_grid();
  EXPECT_THROW(
      exp::merge_slice_files(items, {temp_path("never-written.slice")}),
      exp::CheckpointError);
}

TEST(ShardMerge, ReaderExposesOnlyCommittedChunks) {
  const auto items = small_grid();
  const auto cc = grid_config(2, 99);
  const auto paths = run_sharded(items, cc, 3, temp_path("reader"));

  // Shard 2 of 3 holds exactly chunk 1 of the 3-chunk grid.
  const exp::CampaignCheckpointReader reader(paths[1], items);
  EXPECT_EQ(reader.chunk_count(), 3u);
  EXPECT_EQ(reader.completed_chunks(), 1u);
  EXPECT_FALSE(reader.chunk_complete(0));
  EXPECT_TRUE(reader.chunk_complete(1));
  EXPECT_EQ(reader.record(1).simulations, 64u);
  EXPECT_THROW(reader.record(0), exp::CheckpointError);
}

TEST(ShardMerge, ReaderRefusesLiveWorkerFile) {
  const auto items = small_grid();
  const auto cc = grid_config(2, 99);
  const auto paths = run_sharded(items, cc, 2, temp_path("live"));

  // A writer holding the slice open (flock) must make merging fail cleanly
  // instead of folding a file that is still being appended to.
  exp::CampaignCheckpoint live(paths[0], items, /*resume=*/true);
  EXPECT_THROW(exp::merge_slice_files(items, paths), exp::CheckpointError);
}

// --- CLI surface -----------------------------------------------------------

/// Run one scaa_campaign subcommand in-process, returning (exit, stdout).
std::pair<int, std::string> run_cli(const std::string& name,
                                    const std::vector<std::string>& tokens) {
  std::ostringstream out, err;
  const int exit_code = cli::run_campaign_command(name, tokens, out, err);
  return {exit_code, out.str()};
}

TEST(ShardCli, CoordinatorAndMergeMatchSingleProcessByteForByte) {
  // The coordinator refuses to clobber slice files without --resume, so a
  // previous ctest run's leftovers must go before the fresh run.
  std::filesystem::remove_all(temp_path("cli"));
  const std::string stem = temp_path("cli/ck");
  const std::vector<std::string> common = {"--reps", "1", "--seed", "9",
                                           "--format", "json"};

  auto reference = run_cli("table4", common);
  ASSERT_EQ(reference.first, 0);

  // At 8 shards the 72-item strategy slices leave some workers with no
  // chunks at all; those empty slices must fold in byte-identically too.
  for (const std::string shards : {"2", "8"}) {
    SCOPED_TRACE("--shards " + shards);
    auto tokens = common;
    tokens.insert(tokens.end(),
                  {"--shards", shards, "--checkpoint", stem + shards});
    auto coordinated = run_cli("table4", tokens);
    ASSERT_EQ(coordinated.first, 0);
    EXPECT_EQ(reference.second, coordinated.second);

    auto merged = run_cli("merge", tokens);
    ASSERT_EQ(merged.first, 0);
    EXPECT_EQ(reference.second, merged.second);
  }
}

TEST(ShardCli, UsageErrorsAreRejectedUpfront) {
  // Sharding without a checkpoint stem has nowhere to put slice files.
  EXPECT_EQ(run_cli("table4", {"--shards", "2"}).first, 2);
  EXPECT_EQ(run_cli("table4", {"--shard", "1/2"}).first, 2);
  // Coordinator and manual worker modes are mutually exclusive.
  EXPECT_EQ(run_cli("table4", {"--shards", "2", "--shard", "1/2",
                               "--checkpoint", temp_path("x")})
                .first,
            2);
  // Malformed --shard specs.
  for (const char* spec : {"0/2", "3/2", "2", "a/b", "1/0", "/2", "1/"}) {
    EXPECT_EQ(run_cli("table4", {"--shard", spec, "--checkpoint",
                                 temp_path("x")})
                  .first,
              2)
        << spec;
  }
  // merge requires the stem.
  EXPECT_EQ(run_cli("merge", {"--shards", "2"}).first, 2);
  // merge before any worker ran: missing slice files is a clean failure.
  EXPECT_EQ(run_cli("merge", {"--shards", "2", "--checkpoint",
                              temp_path("cli-empty/ck")})
                .first,
            1);
  // Values that would truncate through the long long -> int narrowing are
  // rejected at parse time (the ArgParser range check fires on the wide
  // value): 2^32+1 must exit 2, never wrap to --shards 1.
  EXPECT_EQ(run_cli("table4", {"--shards", "4294967297", "--checkpoint",
                               temp_path("x")})
                .first,
            2);
  EXPECT_EQ(run_cli("merge", {"--shards", "4294967297", "--checkpoint",
                              temp_path("x")})
                .first,
            2);
}

}  // namespace
