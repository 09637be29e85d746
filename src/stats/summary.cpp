#include "stats/summary.hpp"

#include <array>
#include <cmath>

namespace retri::stats {

double t_critical_95(std::uint64_t df) noexcept {
  // Two-sided 95% quantiles of Student's t distribution, df = 1..30.
  static constexpr std::array<double, 30> kTable = {
      12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201,  2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080,  2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042};
  if (df == 0) return kTable[0];
  if (df <= kTable.size()) return kTable[df - 1];
  return 1.96;
}

namespace {

// Continued fraction of the regularized incomplete beta function (modified
// Lentz); converges fast for x < (a + 1) / (a + b + 2).
double beta_fraction(double a, double b, double x) noexcept {
  constexpr double kTiny = 1e-300;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  d = 1.0 / (std::abs(d) < kTiny ? kTiny : d);
  double h = d;
  for (int m = 1; m <= 100000; ++m) {
    const double m2 = 2.0 * m;
    for (const double num :
         {m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
          -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))}) {
      d = 1.0 + num * d;
      d = 1.0 / (std::abs(d) < kTiny ? kTiny : d);
      c = 1.0 + num / c;
      if (std::abs(c) < kTiny) c = kTiny;
      h *= d * c;
    }
    if (std::abs(d * c - 1.0) < 1e-15) break;
  }
  return h;
}

// I_x(a, b), the regularized incomplete beta function.
double incomplete_beta(double a, double b, double x) noexcept {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_fraction(a, b, x) / a;
  return 1.0 - front * beta_fraction(b, a, 1.0 - x) / b;
}

}  // namespace

double clopper_pearson_lower(std::uint64_t k, std::uint64_t n,
                             double alpha) noexcept {
  if (k == 0 || n == 0) return 0.0;
  // P(X >= k | p) = I_p(k, n - k + 1) rises with p; bisect for alpha.
  const auto a = static_cast<double>(k);
  const auto b = static_cast<double>(n - k + 1);
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    (incomplete_beta(a, b, mid) < alpha ? lo : hi) = mid;
  }
  return lo;
}

void TrialSet::add(double outcome) {
  stats_.add(outcome);
  outcomes_.push_back(outcome);
}

Interval TrialSet::ci95() const noexcept {
  if (stats_.count() < 2) {
    return {stats_.mean(), stats_.mean()};
  }
  const double half = t_critical_95(stats_.count() - 1) * stats_.stderror();
  return {stats_.mean() - half, stats_.mean() + half};
}

}  // namespace retri::stats
