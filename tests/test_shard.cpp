// Tests for sharded campaign orchestration: the deterministic ShardPlan
// partition, slice file naming (fingerprint suffix + collision rejection),
// and the headline guarantee — per-slice checkpoint files merged in global
// chunk order are bit-identical to a single-process run, across shard
// counts, empty slices, torn tails repaired by resume, and the CLI
// --shard i/N worker and merge surface.

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

/// One row of the usage-error table: a command line and its exit code.
struct UsageCase {
  std::string name;  ///< one per behaviour; PrintTo makes it the CTest name
  std::string command;
  std::vector<std::string> tokens;
  int exit_code;
};

void PrintTo(const UsageCase& c, std::ostream* os) { *os << c.name; }

/// The CLI suite's fixture. TEST_P below runs the usage-error table; the
/// fleet tests are TEST_Fs on the same fixture so all of them stay one
/// `ShardCli` suite.
class ShardCli : public testing::TestWithParam<UsageCase> {};

/// One --shard i/N worker per i, all in process, then `merge --shards N`.
TEST_F(ShardCli, ManualFleetAndMergeMatchSingleProcessByteForByte) {
  // Workers refuse to clobber slice files without --resume, so a previous
  // ctest run's leftovers must go before the fresh run.
  std::filesystem::remove_all(temp_path("cli"));
  const std::vector<std::string> common = {"--reps", "1", "--seed", "9",
                                           "--format", "json"};

  auto reference = run_cli("table4", common);
  ASSERT_EQ(reference.first, 0);

  for (const int n : {2, 8}) {
    SCOPED_TRACE("fleet of " + std::to_string(n));
    const std::string stem = temp_path("cli/ck") + std::to_string(n);
    bool empty_slice = false;
    for (int i = 1; i <= n; ++i) {
      auto tokens = common;
      tokens.insert(tokens.end(),
                    {"--shard", std::to_string(i) + "/" + std::to_string(n),
                     "--checkpoint", stem});
      auto worker = run_cli("table4", tokens);
      ASSERT_EQ(worker.first, 0) << "worker " << i;
      empty_slice = empty_slice || worker.second.find("\"slice_sims\":0,") !=
                                       std::string::npos;
    }
    // At 8 workers the 72-item strategy slices (two chunks) leave some
    // workers with no chunks at all; those empty slices must fold in
    // byte-identically too.
    EXPECT_EQ(empty_slice, n == 8);

    auto tokens = common;
    tokens.insert(tokens.end(),
                  {"--shards", std::to_string(n), "--checkpoint", stem});
    auto merged = run_cli("merge", tokens);
    ASSERT_EQ(merged.first, 0);
    EXPECT_EQ(reference.second, merged.second);
  }
}

TEST_F(ShardCli, WorkerSliceCollisionFailsBeforeAnySimulation) {
  // A worker opens every strategy's slice file before its first
  // simulation: a stale file for the LAST strategy fails it up front, and
  // the files it had already created are removed again.
  const std::string dir = temp_path("cli-collision");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string stem = dir + "/ck";

  exp::CampaignConfig cc;
  cc.repetitions = 1;
  cc.base_seed = 9;
  const auto last_grid = exp::make_grid(attack::StrategyKind::kContextAware,
                                        /*strategic_values=*/true,
                                        /*driver_enabled=*/true, cc);
  const std::string last = cli::slice_checkpoint_file(
      stem, "table4 Context-Aware", exp::grid_fingerprint(last_grid), 0, 2);
  write_file(last, "stale\n");

  std::ostringstream out, err;
  EXPECT_EQ(cli::run_campaign_command(
                "table4",
                {"--reps", "1", "--seed", "9", "--shard", "1/2",
                 "--checkpoint", stem},
                out, err),
            1);
  EXPECT_NE(err.str().find("already exists"), std::string::npos) << err.str();
  EXPECT_EQ(err.str().find(" sims"), std::string::npos) << err.str();

  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    left.push_back(entry.path().string());
  EXPECT_EQ(left, std::vector<std::string>{last});
  std::filesystem::remove_all(dir);
}

TEST_P(ShardCli, UsageErrorsAreRejectedUpfront) {
  const UsageCase& c = GetParam();
  EXPECT_EQ(run_cli(c.command, c.tokens).first, c.exit_code);
}

std::vector<UsageCase> usage_cases() {
  const std::string x = temp_path("x");
  auto bad_spec = [&](const std::string& name, const std::string& spec) {
    return UsageCase{name, "table4", {"--shard", spec, "--checkpoint", x}, 2};
  };
  return {
      // A worker without a checkpoint stem has nowhere to put its slice.
      {"shard_without_checkpoint", "table4", {"--shard", "1/2"}, 2},
      // Malformed --shard specs.
      bad_spec("spec_index_zero", "0/2"),
      bad_spec("spec_index_past_count", "3/2"),
      bad_spec("spec_without_slash", "2"),
      bad_spec("spec_not_numeric", "a/b"),
      bad_spec("spec_count_zero", "1/0"),
      bad_spec("spec_missing_index", "/2"),
      bad_spec("spec_missing_count", "1/"),
      // table4 has no --shards flag: one host runs one process.
      {"table4_shards_is_unknown", "table4",
       {"--shards", "2", "--checkpoint", x}, 2},
      // merge requires the stem.
      {"merge_without_checkpoint", "merge", {"--shards", "2"}, 2},
      // merge before any worker ran: missing slice files is a clean
      // failure.
      {"merge_with_missing_slices", "merge",
       {"--shards", "2", "--checkpoint", temp_path("cli-empty/ck")}, 1},
      // A value that would truncate through the long long -> int narrowing
      // is rejected at parse time (the ArgParser range check fires on the
      // wide value): 2^32+1 must exit 2, never wrap to --shards 1.
      {"merge_shards_past_int", "merge",
       {"--shards", "4294967297", "--checkpoint", x}, 2},
  };
}

INSTANTIATE_TEST_SUITE_P(, ShardCli, testing::ValuesIn(usage_cases()));

}  // namespace
