#include "stats/summary.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "util/random.hpp"

namespace retri::stats {
namespace {

TEST(TCritical, KnownValues) {
  EXPECT_NEAR(t_critical_95(1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical_95(9), 2.262, 1e-3);   // the paper's 10 trials
  EXPECT_NEAR(t_critical_95(30), 2.042, 1e-3);
  EXPECT_NEAR(t_critical_95(1000), 1.96, 1e-3);
  EXPECT_NEAR(t_critical_95(0), 12.706, 1e-3);  // degenerate df
}

TEST(TCritical, MonotonicallyDecreasing) {
  for (std::uint64_t df = 1; df < 30; ++df) {
    EXPECT_GE(t_critical_95(df), t_critical_95(df + 1)) << "df=" << df;
  }
}

TEST(ClopperPearson, MatchesExactBinomialTails) {
  // References from bisection on exact binomial tail sums.
  EXPECT_NEAR(clopper_pearson_lower(5, 10, 0.05), 0.222441, 1e-6);
  EXPECT_NEAR(clopper_pearson_lower(10, 10, 0.05), std::pow(0.05, 0.1), 1e-9);
  EXPECT_NEAR(clopper_pearson_lower(1, 100, 0.05), 0.000512801, 1e-9);
  EXPECT_NEAR(clopper_pearson_lower(70, 1000, 0.005), 0.0508090, 1e-6);
  EXPECT_EQ(clopper_pearson_lower(0, 100, 0.05), 0.0);
  EXPECT_EQ(clopper_pearson_lower(0, 0, 0.05), 0.0);
  // A bound below the observed proportion, tightening as n grows.
  EXPECT_LT(clopper_pearson_lower(7000, 100000, 0.005), 0.07);
  EXPECT_GT(clopper_pearson_lower(7000, 100000, 0.005),
            clopper_pearson_lower(70, 1000, 0.005));
}

TEST(TrialSet, TenTrialMethodology) {
  // The paper's shape: 10 trials of a collision-rate measurement.
  TrialSet trials;
  for (const double x : {0.91, 0.93, 0.92, 0.94, 0.90, 0.95, 0.92, 0.93, 0.91, 0.94}) {
    trials.add(x);
  }
  EXPECT_EQ(trials.trials(), 10u);
  EXPECT_NEAR(trials.mean(), 0.925, 1e-9);
  EXPECT_GT(trials.stddev(), 0.0);
  const Interval ci = trials.ci95();
  EXPECT_TRUE(ci.contains(trials.mean()));
  EXPECT_LT(ci.lo, trials.mean());
  EXPECT_GT(ci.hi, trials.mean());
}

TEST(TrialSet, SingleTrialHasDegenerateCi) {
  TrialSet trials;
  trials.add(3.0);
  const Interval ci = trials.ci95();
  EXPECT_DOUBLE_EQ(ci.lo, 3.0);
  EXPECT_DOUBLE_EQ(ci.hi, 3.0);
  EXPECT_DOUBLE_EQ(ci.width(), 0.0);
}

TEST(TrialSet, OutcomesPreserveInsertionOrder) {
  TrialSet trials;
  trials.add(3.0);
  trials.add(1.0);
  trials.add(2.0);
  ASSERT_EQ(trials.outcomes().size(), 3u);
  EXPECT_DOUBLE_EQ(trials.outcomes()[0], 3.0);
  EXPECT_DOUBLE_EQ(trials.outcomes()[1], 1.0);
  EXPECT_DOUBLE_EQ(trials.outcomes()[2], 2.0);
  EXPECT_DOUBLE_EQ(trials.min(), 1.0);
  EXPECT_DOUBLE_EQ(trials.max(), 3.0);
}

TEST(TrialSet, CiCoversTrueMeanAtRoughlyNominalRate) {
  // Draw many 10-trial sets from a known distribution (uniform, mean 0.5)
  // and check the 95% CI covers 0.5 close to 95% of the time.
  util::Xoshiro256 rng(2025);
  int covered = 0;
  constexpr int kSets = 2000;
  for (int s = 0; s < kSets; ++s) {
    TrialSet trials;
    for (int t = 0; t < 10; ++t) trials.add(rng.uniform());
    if (trials.ci95().contains(0.5)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / kSets;
  EXPECT_GT(coverage, 0.91);
  EXPECT_LT(coverage, 0.99);
}

TEST(Interval, ContainsIsInclusive) {
  const Interval i{1.0, 2.0};
  EXPECT_TRUE(i.contains(1.0));
  EXPECT_TRUE(i.contains(2.0));
  EXPECT_TRUE(i.contains(1.5));
  EXPECT_FALSE(i.contains(0.999));
  EXPECT_FALSE(i.contains(2.001));
  EXPECT_DOUBLE_EQ(i.width(), 1.0);
}

}  // namespace
}  // namespace retri::stats
