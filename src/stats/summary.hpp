// Trial aggregation and confidence intervals.
//
// The paper's methodology (§5.1) runs 10 independent trials per parameter
// point and reports mean ± stddev. TrialSet captures that pattern: one
// add() per trial, then mean / stddev / confidence-interval accessors for
// the bench tables. Student-t critical values are tabulated for the small
// trial counts experiments actually use.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/running_stats.hpp"

namespace retri::stats {

/// Two-sided 95% Student-t critical value for the given degrees of freedom.
/// Exact table for df <= 30, normal-approximation (1.96) beyond.
double t_critical_95(std::uint64_t df) noexcept;

/// One-sided Clopper–Pearson lower confidence bound at level 1 - alpha on
/// the proportion behind k successes in n Bernoulli trials: the p at which
/// seeing k or more successes has probability exactly alpha. Exact (no
/// normal approximation), so it stays honest at proportions near 0 and 1.
/// Returns 0 when k == 0 or n == 0.
double clopper_pearson_lower(std::uint64_t k, std::uint64_t n,
                             double alpha) noexcept;

/// A [lo, hi] interval around a mean.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  double width() const noexcept { return hi - lo; }
  bool contains(double x) const noexcept { return lo <= x && x <= hi; }
};

/// Aggregates one scalar outcome across repeated independent trials.
class TrialSet {
 public:
  void add(double outcome);

  std::uint64_t trials() const noexcept { return stats_.count(); }
  double mean() const noexcept { return stats_.mean(); }
  double stddev() const noexcept { return stats_.stddev(); }
  double min() const noexcept { return stats_.min(); }
  double max() const noexcept { return stats_.max(); }

  /// mean ± t * stderr, the 95% confidence interval on the mean.
  Interval ci95() const noexcept;

  /// All raw trial outcomes in insertion order (tests inspect these).
  const std::vector<double>& outcomes() const noexcept { return outcomes_; }

 private:
  RunningStats stats_;
  std::vector<double> outcomes_;
};

}  // namespace retri::stats
