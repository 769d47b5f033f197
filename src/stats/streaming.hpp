// Streaming (one-pass) moment accumulation — the statistics kernel every
// experiment in this repo consumes (src/stats is the single home for it).
//
// Header-only on purpose: cadapt_obs and cadapt_engine accumulate with it
// but do not link cadapt_stats, so the streaming kernel must not require
// linking it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace cadapt::stats {

/// Welford one-pass accumulator for mean/variance. Numerically stable for
/// the long Monte-Carlo streams produced by the engine: the naive
/// sum/sum-of-squares form loses all significance once mean² dwarfs the
/// variance (tests/test_stats.cpp demonstrates the failure at offset 1e9);
/// Welford's update keeps full precision there.
class Welford {
 public:
  void add(double x) {
    if (n_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  /// Chan/Golub/LeVeque pairwise merge: combining per-shard accumulators
  /// gives the same moments as one sequential pass (to rounding).
  void merge(const Welford& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
      *this = other;
      return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance (n-1 denominator). 0 for n < 2.
  double variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
  }
  double stddev() const { return std::sqrt(variance()); }
  /// Standard error of the mean.
  double sem() const {
    return n_ == 0 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
  }
  /// Half-width of an approximate 95% normal confidence interval.
  double ci95() const { return 1.96 * sem(); }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace cadapt::stats
