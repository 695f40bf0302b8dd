// Unit tests for scaa::util (units, math, rng, stats, csv, table).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "util/csv.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace scaa;

TEST(Units, MphRoundTrip) {
  EXPECT_NEAR(units::mph_to_ms(60.0), 26.8224, 1e-4);
  EXPECT_NEAR(units::mph_to_ms(35.0), 15.6464, 1e-4);
}

TEST(Units, DegreesRoundTrip) {
  EXPECT_NEAR(units::rad_to_deg(units::deg_to_rad(0.5)), 0.5, 1e-12);
  EXPECT_NEAR(units::deg_to_rad(180.0), units::kPi, 1e-12);
}

TEST(Math, ClampAndLerp) {
  EXPECT_EQ(math::clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(math::clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(math::clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(Math, RateLimit) {
  EXPECT_EQ(math::rate_limit(0.0, 10.0, 1.0), 1.0);
  EXPECT_EQ(math::rate_limit(0.0, -10.0, 1.0), -1.0);
  EXPECT_EQ(math::rate_limit(0.0, 0.5, 1.0), 0.5);
}

TEST(Math, WrapAngle) {
  EXPECT_NEAR(math::wrap_angle(3.0 * units::kPi), units::kPi, 1e-12);
  EXPECT_NEAR(math::wrap_angle(-3.0 * units::kPi), units::kPi, 1e-12);
  EXPECT_NEAR(math::wrap_angle(0.5), 0.5, 1e-12);
}

TEST(Rng, Deterministic) {
  util::Rng a(42);
  util::Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1);
  util::Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform(5.0, 40.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 40.0);
  }
}

TEST(Rng, UniformIntBounds) {
  util::Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(1, 4);
    seen.insert(v);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values reachable
}

TEST(Rng, GaussianMoments) {
  util::Rng rng(123);
  util::RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ForkIndependence) {
  const util::Rng parent(9);
  util::Rng c1 = parent.fork(1);
  util::Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (c1.next() == c2.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkDeterministic) {
  const util::Rng parent(9);
  util::Rng c1 = parent.fork(5);
  util::Rng c2 = parent.fork(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1.next(), c2.next());
}

TEST(Stats, RunningMoments) {
  util::RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Stats, MergeMatchesSequential) {
  util::Rng rng(5);
  util::RunningStats all;
  util::RunningStats a;
  util::RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.gaussian(3.0, 2.0);
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Stats, EmptyIsSafe) {
  const util::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, HistogramBinning) {
  util::Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-1.0);   // clamped into first bin
  h.add(100.0);  // clamped into last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Stats, HistogramRejectsBadArgs) {
  EXPECT_THROW(util::Histogram(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(util::Histogram(0.0, 1.0, 0), std::invalid_argument);
  // Non-finite bounds would make every scale factor NaN.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(util::Histogram(-inf, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(util::Histogram(0.0, inf, 4), std::invalid_argument);
  EXPECT_THROW(util::Histogram(std::nan(""), 1.0, 4), std::invalid_argument);
}

TEST(Stats, HistogramSurvivesNearMaxFiniteBounds) {
  // (x - lo) and (hi - lo) both overflow to inf here, so the scale factor
  // is inf/inf = NaN; the cast guard must route that to a bin, not UB.
  util::Histogram h(-1e308, 1e308, 10);
  h.add(9e307);
  h.add(-9e307);
  h.add(0.0);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Stats, HistogramClampsNonFiniteAndHugeSamples) {
  // Regression: casting a NaN or out-of-long-range scaled sample to an
  // integer type is UB; the clamp must happen in double space first.
  util::Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(1e308);   // scaled value overflows every integer type
  h.add(-1e308);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.nan_count(), 0u);
}

TEST(Stats, HistogramDropsAndCountsNaN) {
  util::Histogram h(0.0, 10.0, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(5.0);
  h.add(std::nan("payload"));
  EXPECT_EQ(h.total(), 1u);      // NaNs are not binned...
  EXPECT_EQ(h.nan_count(), 2u);  // ...but they are accounted for
  EXPECT_EQ(h.bin_count(5), 1u);
}

TEST(Stats, HistogramEdgeSamplesLandInEdgeBins) {
  util::Histogram h(0.0, 10.0, 10);
  h.add(0.0);                       // lo -> first bin
  h.add(10.0);                      // hi (exclusive) -> clamped to last bin
  h.add(std::nextafter(10.0, 0.0)); // just below hi -> last bin, no overflow
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(9), 2u);
}

TEST(Csv, BasicRows) {
  std::ostringstream out;
  util::CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.row().cell(1.5).cell(std::string("x")); csv.end_row();
  csv.row().cell(true).cell(std::string("y,z")); csv.end_row();
  EXPECT_EQ(out.str(), "a,b\n1.5,x\n1,\"y,z\"\n");
}

TEST(Csv, EnforcesRowWidth) {
  std::ostringstream out;
  util::CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.row().cell(1.0);
  EXPECT_THROW(csv.end_row(), std::logic_error);
}

TEST(Csv, EnforcesHeaderFirst) {
  std::ostringstream out;
  util::CsvWriter csv(out);
  EXPECT_THROW(csv.row(), std::logic_error);
}

TEST(Csv, QuotesEmbeddedQuotes) {
  std::ostringstream out;
  util::CsvWriter csv(out);
  csv.header({"v"});
  csv.row().cell(std::string("he said \"hi\"")); csv.end_row();
  EXPECT_EQ(out.str(), "v\n\"he said \"\"hi\"\"\"\n");
}

TEST(Table, RendersAligned) {
  util::TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2"});
  const std::string r = t.render();
  EXPECT_NE(r.find("| name   | value |"), std::string::npos);
  EXPECT_NE(r.find("| longer | 2     |"), std::string::npos);
}

TEST(Table, RejectsWidthMismatch) {
  util::TextTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

}  // namespace
