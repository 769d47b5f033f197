// Tests for §3's completion counter and the report's per-cell tail
// quantile.
#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "profile/box_source.hpp"
#include "profile/worst_case.hpp"
#include "sweep_test_util.hpp"
#include "util/math.hpp"

namespace cadapt::core {
namespace {

TEST(CountCompletions, ScanVariantCompletesExactlyOnce) {
  for (unsigned k = 3; k <= 6; ++k) {
    const std::uint64_t n = util::ipow(4, k);
    profile::WorstCaseSource source(8, 4, n);
    EXPECT_EQ(count_completions({8, 4, 1.0}, n, source), 1u) << n;
  }
}

TEST(CountCompletions, InplaceVariantCompletesLogTimes) {
  // §3: MM-Inplace performs log_b n + 1 multiplies on MM-Scan's profile.
  for (unsigned k = 3; k <= 6; ++k) {
    const std::uint64_t n = util::ipow(4, k);
    profile::WorstCaseSource source(8, 4, n);
    EXPECT_EQ(count_completions({8, 4, 0.0}, n, source), k + 1) << n;
  }
}

TEST(CountCompletions, EmptyProfileCompletesNothing) {
  profile::VectorSource source({});
  EXPECT_EQ(count_completions({8, 4, 1.0}, 64, source), 0u);
}

TEST(CountCompletions, MaxRunsCap) {
  profile::VectorSource source({1}, /*cycle=*/true);
  EXPECT_EQ(count_completions({2, 2, 1.0}, 2, source, 5), 5u);
}

TEST(RatioPoints, P95PopulatedAndPlausible) {
  const RatioSeries s = sweep_one(
      "name = t\nalgos = 8:4:1\nprofiles = shuffled\nk = 3..4\n"
      "trials = 32\nseed = 42\n");
  for (const auto& cell : s) {
    EXPECT_GT(cell.q95, 0.0) << cell.n;
    // The 95th percentile sits near or above the mean and within a small
    // multiple of it for these well-behaved distributions.
    EXPECT_GE(cell.q95, 0.8 * cell.mean) << cell.n;
    EXPECT_LE(cell.q95, 4.0 * cell.mean) << cell.n;
  }
}

}  // namespace
}  // namespace cadapt::core
