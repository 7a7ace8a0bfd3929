#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/common.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace gcs {
namespace {

TEST(EdgeKey, NormalizesEndpointOrder) {
  EdgeKey e1(3, 7);
  EdgeKey e2(7, 3);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(e1.a, 3);
  EXPECT_EQ(e1.b, 7);
  EXPECT_EQ(e1.other(3), 7);
  EXPECT_EQ(e1.other(7), 3);
  EXPECT_TRUE(e1.has(3));
  EXPECT_FALSE(e1.has(5));
}

TEST(EdgeKey, RejectsSelfLoop) { EXPECT_THROW(EdgeKey(4, 4), std::invalid_argument); }

TEST(EdgeKey, HashDistinguishesEdges) {
  EdgeKeyHash h;
  EXPECT_NE(h(EdgeKey(0, 1)), h(EdgeKey(0, 2)));
  EXPECT_EQ(h(EdgeKey(1, 0)), h(EdgeKey(0, 1)));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 3.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 3.5);
  }
}

TEST(Rng, BelowIsUnbiasedish) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  const int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.below(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kSamples, 0.2, 0.02);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.02);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng root(5);
  Rng a = root.fork(0);
  Rng b = root.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 4);
}

TEST(KeyedDraw, SameKeySameValueWhateverTheCallOrder) {
  const KeyedDraw forward(42, Domain::kDelay);
  const KeyedDraw backward(42, Domain::kDelay);
  std::vector<std::uint64_t> fwd;
  for (std::uint64_t k = 0; k < 64; ++k) fwd.push_back(forward.bits(3, 7, k));
  for (std::uint64_t k = 64; k-- > 0;) {
    EXPECT_EQ(backward.bits(3, 7, k), fwd[static_cast<std::size_t>(k)]) << "k=" << k;
    // Draws on other keys in between change nothing.
    (void)backward.bits(7, 3, k);
  }
}

TEST(KeyedDraw, EveryKeyFieldChangesTheValue) {
  const std::uint64_t base = KeyedDraw(42, Domain::kDelay).bits(3, 7, 5);
  EXPECT_NE(KeyedDraw(43, Domain::kDelay).bits(3, 7, 5), base);
  EXPECT_NE(KeyedDraw(42, Domain::kOracleError).bits(3, 7, 5), base);
  EXPECT_NE(KeyedDraw(42, Domain::kDelay).bits(4, 7, 5), base);
  EXPECT_NE(KeyedDraw(42, Domain::kDelay).bits(3, 8, 5), base);
  EXPECT_NE(KeyedDraw(42, Domain::kDelay).bits(3, 7, 6), base);
  EXPECT_NE(KeyedDraw(42, Domain::kDelay).bits(7, 3, 5), base);  // direction
  // No collisions over a small dense key grid, across two domains.
  std::set<std::uint64_t> seen;
  for (const Domain d : {Domain::kChaosDrop, Domain::kChaosCorrupt}) {
    const KeyedDraw draw(1, d);
    for (std::uint32_t a = 0; a < 8; ++a) {
      for (std::uint32_t b = 0; b < 8; ++b) {
        for (std::uint64_t k = 0; k < 32; ++k) seen.insert(draw.bits(a, b, k));
      }
    }
  }
  EXPECT_EQ(seen.size(), 2u * 8u * 8u * 32u);
}

TEST(KeyedDraw, UniformValuesFallInRange) {
  const KeyedDraw draw(9, Domain::kDelay);
  RunningStats stats;
  for (std::uint64_t k = 0; k < 20000; ++k) {
    const double u = draw.uniform(0.1, 0.5, 2, 3, k);
    EXPECT_GE(u, 0.1);
    EXPECT_LT(u, 0.5);
    const double v = draw.uniform01(3, 2, k);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    stats.add(v);
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStats, MergeMatchesCombined) {
  RunningStats a, b, all;
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.normal(3.0, 2.0);
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(FitLinear, RecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitLog, RecoversLogCurve) {
  std::vector<double> x, y;
  for (int i = 1; i <= 60; ++i) {
    x.push_back(i);
    y.push_back(1.0 + 4.0 * std::log(i));
  }
  const auto fit = fit_log(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.slope, 4.0, 1e-9);
}

TEST(Table, RendersAlignedCells) {
  Table t("demo");
  t.headers({"name", "value"});
  t.row().cell("x").cell(1.5);
  t.row().cell("longer").cell(2);
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.25, 2), "0.25");
}

TEST(Csv, QuotesSpecialCharacters) {
  CsvWriter w;
  w.field(std::string("a,b")).field(std::string("c\"d")).field(3.5).endrow();
  EXPECT_EQ(w.str(), "\"a,b\",\"c\"\"d\",3.5\n");
}

TEST(Flags, ParsesKeyValuesAndPositional) {
  const char* argv[] = {"prog", "--alpha=1.5", "--name=foo", "--verbose", "pos1"};
  Flags flags(5, argv);
  EXPECT_DOUBLE_EQ(flags.get("alpha", 0.0), 1.5);
  EXPECT_EQ(flags.get("name", std::string("")), "foo");
  EXPECT_TRUE(flags.get("verbose", false));
  EXPECT_EQ(flags.get("missing", 7), 7);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
}

}  // namespace
}  // namespace gcs
