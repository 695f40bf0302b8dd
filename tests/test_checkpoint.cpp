// Tests for the crash-safe campaign checkpoint/resume subsystem: exact
// serialization round trips, fingerprint and corruption rejection, torn-tail
// tolerance, and the headline guarantee — a campaign interrupted mid-run and
// resumed produces results bit-identical to an uninterrupted run at any
// thread count.

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
#include "exp/tables.hpp"
#include "util/serial.hpp"
#include "util/stats.hpp"

namespace {

using namespace scaa;

exp::CampaignConfig grid_config(int reps, std::uint64_t seed) {
  exp::CampaignConfig config;
  config.repetitions = reps;
  config.base_seed = seed;
  return config;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "scaa_ckpt_" + name;
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

std::vector<std::string> file_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Simulate a crash: keep the header plus the first @p chunks chunk records
/// of @p from, writing the truncated file to @p to.
void truncate_to_chunks(const std::string& from, const std::string& to,
                        std::size_t chunks) {
  const auto lines = file_lines(from);
  ASSERT_GT(lines.size(), chunks);  // header + at least `chunks` records
  std::string out;
  for (std::size_t i = 0; i < chunks + 1; ++i) out += lines[i] + "\n";
  write_file(to, out);
}

void expect_bit_identical(const exp::Aggregate& a, const exp::Aggregate& b) {
  EXPECT_EQ(a.simulations, b.simulations);
  EXPECT_EQ(a.sims_with_alerts, b.sims_with_alerts);
  EXPECT_EQ(a.sims_with_hazards, b.sims_with_hazards);
  EXPECT_EQ(a.sims_with_accidents, b.sims_with_accidents);
  EXPECT_EQ(a.hazards_without_alerts, b.hazards_without_alerts);
  EXPECT_EQ(a.fcw_activations, b.fcw_activations);
  // Bit patterns, not EXPECT_DOUBLE_EQ: the guarantee is exactness.
  EXPECT_EQ(util::double_bits(a.lane_invasion_rate_mean),
            util::double_bits(b.lane_invasion_rate_mean));
  EXPECT_EQ(util::double_bits(a.tth_mean), util::double_bits(b.tth_mean));
  EXPECT_EQ(util::double_bits(a.tth_std), util::double_bits(b.tth_std));
}

// --- serialization primitives ---------------------------------------------

TEST(Serial, HexU64RoundTrip) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xDEADBEEF},
        ~std::uint64_t{0}}) {
    const std::string hex = util::hex_u64(v);
    EXPECT_EQ(hex.size(), 16u);
    std::uint64_t parsed = 0;
    ASSERT_TRUE(util::parse_hex_u64(hex, parsed));
    EXPECT_EQ(parsed, v);
  }
}

TEST(Serial, ParseHexRejectsMalformed) {
  std::uint64_t out = 0;
  EXPECT_FALSE(util::parse_hex_u64("", out));
  EXPECT_FALSE(util::parse_hex_u64("12g4", out));
  EXPECT_FALSE(util::parse_hex_u64("11112222333344445", out));  // 17 digits
  EXPECT_FALSE(util::parse_hex_u64("0x12", out));
}

TEST(Serial, DoubleBitsExactForAwkwardValues) {
  for (const double v : {0.0, -0.0, 1.0 / 3.0, 1e300, 5e-324 /* denormal */,
                         -2.2250738585072014e-308}) {
    EXPECT_EQ(util::double_from_bits(util::double_bits(v)), v);
  }
  // -0.0 and 0.0 compare equal but must serialize distinctly.
  EXPECT_NE(util::double_bits(0.0), util::double_bits(-0.0));
}

TEST(Serial, RunningStatsRecordRoundTripIsExact) {
  util::RunningStats stats;
  // Samples chosen so mean/m2 are non-terminating binary fractions.
  for (int i = 0; i < 1000; ++i) stats.add(0.1 * static_cast<double>(i) / 7.0);
  const util::RunningStats restored =
      util::RunningStats::from_record(stats.to_record());
  EXPECT_EQ(restored.count(), stats.count());
  EXPECT_EQ(util::double_bits(restored.mean()), util::double_bits(stats.mean()));
  EXPECT_EQ(util::double_bits(restored.variance()),
            util::double_bits(stats.variance()));
  EXPECT_EQ(util::double_bits(restored.min()), util::double_bits(stats.min()));
  EXPECT_EQ(util::double_bits(restored.max()), util::double_bits(stats.max()));

  // Merging a restored accumulator must behave exactly like the original.
  util::RunningStats tail;
  for (int i = 0; i < 17; ++i) tail.add(3.3 / (i + 1.0));
  util::RunningStats merged_orig = stats;
  merged_orig.merge(tail);
  util::RunningStats merged_restored =
      util::RunningStats::from_record(stats.to_record());
  merged_restored.merge(tail);
  EXPECT_EQ(util::double_bits(merged_orig.mean()),
            util::double_bits(merged_restored.mean()));
  EXPECT_EQ(util::double_bits(merged_orig.variance()),
            util::double_bits(merged_restored.variance()));
}

TEST(Serial, AggregateAccumulatorRecordRoundTrip) {
  exp::AggregateAccumulator acc;
  sim::SimulationSummary s;
  s.any_hazard = true;
  s.alert_events = 2;
  s.lane_invasion_rate = 0.123456789;
  s.tth = 3.25;
  acc.add(s);
  s.any_hazard = false;
  s.alert_events = 0;
  s.tth = -1.0;  // not folded into tth stats
  acc.add(s);
  const exp::AggregateAccumulator restored =
      exp::AggregateAccumulator::from_record(acc.to_record());
  expect_bit_identical(restored.finish(), acc.finish());
}

// --- fingerprints ----------------------------------------------------------

TEST(Fingerprint, SensitiveToEveryGridParameter) {
  const auto base = exp::make_grid(attack::StrategyKind::kRandomSt, false,
                                   true, grid_config(1, 1));
  const std::uint64_t fp = exp::grid_fingerprint(base);
  EXPECT_EQ(fp, exp::grid_fingerprint(base));  // deterministic

  EXPECT_NE(fp, exp::grid_fingerprint(exp::make_grid(
                    attack::StrategyKind::kRandomDur, false, true,
                    grid_config(1, 1))));
  EXPECT_NE(fp, exp::grid_fingerprint(exp::make_grid(
                    attack::StrategyKind::kRandomSt, true, true,
                    grid_config(1, 1))));
  EXPECT_NE(fp, exp::grid_fingerprint(exp::make_grid(
                    attack::StrategyKind::kRandomSt, false, false,
                    grid_config(1, 1))));
  EXPECT_NE(fp, exp::grid_fingerprint(exp::make_grid(
                    attack::StrategyKind::kRandomSt, false, true,
                    grid_config(2, 1))));
  EXPECT_NE(fp, exp::grid_fingerprint(exp::make_grid(
                    attack::StrategyKind::kRandomSt, false, true,
                    grid_config(1, 2))));

  auto shorter = base;
  shorter.pop_back();
  EXPECT_NE(fp, exp::grid_fingerprint(shorter));
}

// --- checkpoint file lifecycle ---------------------------------------------

TEST(CampaignCheckpoint, FreshRefusesExistingFile) {
  const std::string path = temp_path("fresh_refuses");
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(1, 1));
  write_file(path, "stale contents\n");
  EXPECT_THROW(exp::CampaignCheckpoint(path, grid, /*resume=*/false),
               exp::CheckpointError);
  std::remove(path.c_str());
  // Absent file: fresh construction creates it with just the header.
  exp::CampaignCheckpoint fresh(path, grid, /*resume=*/false);
  EXPECT_EQ(fresh.completed_chunks(), 0u);
  EXPECT_EQ(file_lines(path).size(), 1u);
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, ResumeOnAbsentFileStartsFresh) {
  const std::string path = temp_path("resume_absent");
  std::remove(path.c_str());
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(1, 1));
  exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/true);
  EXPECT_EQ(ckpt.completed_chunks(), 0u);
  EXPECT_EQ(ckpt.chunk_count(), (grid.size() + exp::kCampaignChunk - 1) /
                                    exp::kCampaignChunk);
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, CommitReloadRestoresBitExactState) {
  const std::string path = temp_path("commit_reload");
  std::remove(path.c_str());
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(1, 9));

  exp::AggregateAccumulator acc;
  sim::SimulationSummary s;
  s.lane_invasion_rate = 1.0 / 3.0;
  s.tth = 2.0 / 7.0;
  s.any_hazard = true;
  for (std::size_t i = 0; i < exp::kCampaignChunk; ++i) acc.add(s);

  {
    exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/false);
    ckpt.commit(0, acc);
    EXPECT_THROW(ckpt.commit(0, acc), exp::CheckpointError);  // duplicate
  }
  exp::CampaignCheckpoint reloaded(path, grid, /*resume=*/true);
  EXPECT_TRUE(reloaded.chunk_complete(0));
  EXPECT_FALSE(reloaded.chunk_complete(1));
  EXPECT_EQ(reloaded.completed_items(), exp::kCampaignChunk);
  expect_bit_identical(reloaded.restored(0).finish(), acc.finish());
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, SecondOpenerIsLockedOut) {
  // flock is per open-file-description, so a second open inside this
  // process models a concurrent second process (e.g. a watchdog restarting
  // the campaign while the old run is still alive).
  const std::string path = temp_path("locked_out");
  std::remove(path.c_str());
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(1, 1));
  {
    exp::CampaignCheckpoint holder(path, grid, /*resume=*/false);
    EXPECT_THROW(exp::CampaignCheckpoint(path, grid, /*resume=*/true),
                 exp::CheckpointError);
  }
  // Lock released with the holder: the retry can now proceed.
  exp::CampaignCheckpoint retry(path, grid, /*resume=*/true);
  EXPECT_EQ(retry.completed_chunks(), 0u);
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, RejectsMismatchedFingerprint) {
  const std::string path = temp_path("fingerprint_mismatch");
  std::remove(path.c_str());
  const auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                   grid_config(1, 1));
  { exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/false); }
  // Same shape, different base seed -> different fingerprint -> rejected.
  const auto other = exp::make_grid(attack::StrategyKind::kNone, false, true,
                                    grid_config(1, 2));
  EXPECT_THROW(exp::CampaignCheckpoint(path, other, /*resume=*/true),
               exp::CheckpointError);
  std::remove(path.c_str());
}

/// Two-full-chunk grid (128 items) so every committed chunk holds exactly
/// kCampaignChunk simulations.
std::vector<exp::CampaignItem> two_chunk_grid(std::uint64_t seed) {
  auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true,
                             grid_config(2, seed));
  grid.resize(2 * exp::kCampaignChunk);
  return grid;
}

TEST(CampaignCheckpoint, RejectsCorruptedMiddleRecord) {
  const std::string path = temp_path("corrupt_middle");
  std::remove(path.c_str());
  const auto grid = two_chunk_grid(4);
  {
    exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/false);
    exp::AggregateAccumulator acc;
    sim::SimulationSummary s;
    for (std::size_t i = 0; i < exp::kCampaignChunk; ++i) acc.add(s);
    ckpt.commit(0, acc);
    ckpt.commit(1, acc);
  }
  // Flip one payload byte of the first chunk record (line 2 of 3): its crc
  // no longer matches and there are records after it, so this is
  // corruption, not a torn tail.
  std::string contents = read_file(path);
  const std::size_t first_eol = contents.find('\n');
  ASSERT_NE(first_eol, std::string::npos);
  const std::size_t target = contents.find("sims=64", first_eol);
  ASSERT_NE(target, std::string::npos);
  contents[target + 5] = '9';
  write_file(path, contents);
  EXPECT_THROW(exp::CampaignCheckpoint(path, grid, /*resume=*/true),
               exp::CheckpointError);
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, ToleratesAndRepairsTornTail) {
  const std::string path = temp_path("torn_tail");
  std::remove(path.c_str());
  const auto grid = two_chunk_grid(4);
  exp::AggregateAccumulator acc;
  sim::SimulationSummary s;
  for (std::size_t i = 0; i < exp::kCampaignChunk; ++i) acc.add(s);
  {
    exp::CampaignCheckpoint ckpt(path, grid, /*resume=*/false);
    ckpt.commit(0, acc);
    ckpt.commit(1, acc);
  }
  // A crash tears the final append mid-line: chunk 1's record loses its
  // tail (including the newline).
  std::string contents = read_file(path);
  contents.resize(contents.size() - 27);
  write_file(path, contents);

  {
    exp::CampaignCheckpoint reloaded(path, grid, /*resume=*/true);
    EXPECT_TRUE(reloaded.chunk_complete(0));
    EXPECT_FALSE(reloaded.chunk_complete(1));  // torn -> recompute
    // The torn bytes were truncated away, so a fresh commit of chunk 1
    // must land on its own line and survive another reload.
    reloaded.commit(1, acc);
  }
  exp::CampaignCheckpoint again(path, grid, /*resume=*/true);
  EXPECT_TRUE(again.chunk_complete(1));
  expect_bit_identical(again.restored(1).finish(), acc.finish());
  std::remove(path.c_str());
}

// --- kill-and-resume equivalence -------------------------------------------

TEST(CheckpointResume, StreamingKillAndResumeIsBitIdentical) {
  const std::string full_path = temp_path("stream_small_full");
  std::remove(full_path.c_str());
  auto cc = grid_config(2, 11);
  const auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                   true, cc);  // 144 items, 3 chunks
  cc.threads = 4;
  exp::Aggregate full;
  {
    exp::CampaignCheckpoint ckpt(full_path, grid, /*resume=*/false);
    full = exp::run_campaign_streaming(grid, cc, {}, &ckpt);
  }
  // The checkpoint of a completed run holds every chunk.
  {
    exp::CampaignCheckpoint done(full_path, grid, /*resume=*/true);
    EXPECT_EQ(done.completed_items(), grid.size());
    // Resuming a fully-checkpointed campaign recomputes nothing and still
    // returns the exact aggregate.
    const auto replayed = exp::run_campaign_streaming(grid, cc, {}, &done);
    expect_bit_identical(replayed, full);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const std::string partial_path =
        temp_path("stream_small_partial_" + std::to_string(threads));
    truncate_to_chunks(full_path, partial_path, 2);  // "crash" after 2 chunks
    exp::CampaignCheckpoint resumed(partial_path, grid, /*resume=*/true);
    EXPECT_EQ(resumed.completed_chunks(), 2u);
    exp::CampaignConfig rcc = cc;
    rcc.threads = threads;
    const auto agg = exp::run_campaign_streaming(grid, rcc, {}, &resumed);
    expect_bit_identical(agg, full);
    std::remove(partial_path.c_str());
  }
  std::remove(full_path.c_str());
}

TEST(CheckpointResume, ResumedProgressStartsFromRestoredCount) {
  const std::string full_path = temp_path("progress_full");
  const std::string partial_path = temp_path("progress_partial");
  std::remove(full_path.c_str());
  auto cc = grid_config(2, 3);
  auto grid = exp::make_grid(attack::StrategyKind::kNone, false, true, cc);
  grid.resize(3 * exp::kCampaignChunk);
  cc.threads = 2;
  {
    exp::CampaignCheckpoint ckpt(full_path, grid, /*resume=*/false);
    exp::run_campaign_streaming(grid, cc, {}, &ckpt);
  }
  truncate_to_chunks(full_path, partial_path, 1);
  exp::CampaignCheckpoint resumed(partial_path, grid, /*resume=*/true);
  std::vector<exp::CampaignProgress> seen;
  exp::run_campaign_streaming(
      grid, cc,
      [&seen](const exp::CampaignProgress& p) { seen.push_back(p); },
      &resumed);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front().completed, exp::kCampaignChunk);  // restored chunk
  EXPECT_EQ(seen.back().completed, grid.size());
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_GT(seen[i].completed, seen[i - 1].completed);
  std::remove(full_path.c_str());
  std::remove(partial_path.c_str());
}

TEST(CheckpointResume, MaterializingKillAndResumeIsBitIdentical) {
  // Table V's path: per-item results, paired downstream. The resumed result
  // vector must match the uninterrupted one summary-for-summary.
  const std::string full_path = temp_path("results_full");
  std::remove(full_path.c_str());
  auto cc = grid_config(2, 21);
  const auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                   true, cc);  // 144 items, 3 chunks
  cc.threads = 4;
  const auto reference = exp::run_campaign(grid, cc);
  {
    exp::ResultsCheckpoint ckpt(full_path, grid, /*resume=*/false);
    exp::run_campaign(grid, cc, &ckpt);
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const std::string partial_path =
        temp_path("results_partial_" + std::to_string(threads));
    // Records land in completion order, so the surviving chunk can be any
    // of the three — what matters is that exactly one chunk is restored.
    truncate_to_chunks(full_path, partial_path, 1);
    exp::ResultsCheckpoint resumed(partial_path, grid, /*resume=*/true);
    EXPECT_EQ(resumed.completed_chunks(), 1u);
    EXPECT_GT(resumed.completed_items(), 0u);
    exp::CampaignConfig rcc = cc;
    rcc.threads = threads;
    const auto results = exp::run_campaign(grid, rcc, &resumed);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].item.seed, reference[i].item.seed);
      EXPECT_EQ(results[i].summary.any_hazard, reference[i].summary.any_hazard);
      EXPECT_EQ(results[i].summary.alert_events,
                reference[i].summary.alert_events);
      EXPECT_EQ(util::double_bits(results[i].summary.tth),
                util::double_bits(reference[i].summary.tth));
      EXPECT_EQ(util::double_bits(results[i].summary.lane_invasion_rate),
                util::double_bits(reference[i].summary.lane_invasion_rate));
      EXPECT_EQ(util::double_bits(results[i].summary.first_hazard_time),
                util::double_bits(reference[i].summary.first_hazard_time));
    }
    // The pairing downstream of Table V must agree too.
    expect_bit_identical(exp::aggregate(results), exp::aggregate(reference));
    std::remove(partial_path.c_str());
  }
  std::remove(full_path.c_str());
}

// Acceptance: a table4-scale streaming campaign (the paper's full 1,440-sim
// Context-Aware grid) interrupted mid-run and resumed from its checkpoint
// produces an Aggregate bit-identical to the uninterrupted run — integer
// counters AND floating-point moments — at two different thread counts.
TEST(CheckpointResume, Table4ScaleInterruptedResumeMatchesUninterrupted) {
  const std::string full_path = temp_path("table4_scale_full");
  std::remove(full_path.c_str());
  auto cc = grid_config(20, 2022);  // the paper's Table IV repetition count
  const auto grid = exp::make_grid(attack::StrategyKind::kContextAware, true,
                                   true, cc);
  ASSERT_EQ(grid.size(), 1440u);
  cc.threads = 4;
  exp::Aggregate full;
  {
    exp::CampaignCheckpoint ckpt(full_path, grid, /*resume=*/false);
    full = exp::run_campaign_streaming(grid, cc, {}, &ckpt);
  }
  EXPECT_EQ(full.simulations, 1440u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const std::string partial_path =
        temp_path("table4_scale_partial_" + std::to_string(threads));
    // "Kill" the campaign two thirds of the way through: keep 15 of the 23
    // chunk records, exactly what a crash after 15 durable commits leaves.
    truncate_to_chunks(full_path, partial_path, 15);
    exp::CampaignCheckpoint resumed(partial_path, grid, /*resume=*/true);
    EXPECT_EQ(resumed.completed_chunks(), 15u);
    exp::CampaignConfig rcc = cc;
    rcc.threads = threads;
    const auto agg = exp::run_campaign_streaming(grid, rcc, {}, &resumed);
    expect_bit_identical(agg, full);
    std::remove(partial_path.c_str());
  }
  std::remove(full_path.c_str());
}

TEST(CheckpointResume, Table5SliceCollisionFailsBeforeAnySimulation) {
  // table5 opens all four slice files before its first simulation: a stale
  // file for the LAST slice fails the run up front, and the files it had
  // already created are removed again, so nothing blocks a rerun.
  const std::string dir = temp_path("table5-collision");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string stem = dir + "/c";

  const auto last_grid =
      exp::make_grid(attack::StrategyKind::kContextAware,
                     /*strategic_values=*/true, /*driver_enabled=*/false,
                     grid_config(1, 9));
  const std::string last = cli::slice_checkpoint_file(
      stem, "table5 strategic-off", exp::grid_fingerprint(last_grid));
  write_file(last, "stale\n");

  std::ostringstream out, err;
  EXPECT_EQ(cli::run_campaign_command(
                "table5",
                {"--reps", "1", "--seed", "9", "--checkpoint", stem}, out,
                err),
            1);
  EXPECT_NE(err.str().find("already exists"), std::string::npos) << err.str();
  EXPECT_EQ(err.str().find("[table5]"), std::string::npos) << err.str();

  std::vector<std::string> left;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    left.push_back(entry.path().string());
  EXPECT_EQ(left, std::vector<std::string>{last});
  std::filesystem::remove_all(dir);
}

}  // namespace
