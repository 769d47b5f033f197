#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "model/potential.hpp"
#include "model/regular.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace cadapt::model {
namespace {

TEST(RegularParams, Validation) {
  EXPECT_NO_THROW(RegularParams({8, 4, 1.0}).validate());
  EXPECT_NO_THROW(RegularParams({1, 2, 0.0}).validate());
  EXPECT_THROW(RegularParams({0, 4, 1.0}).validate(), util::CheckError);
  EXPECT_THROW(RegularParams({8, 1, 1.0}).validate(), util::CheckError);
  EXPECT_THROW(RegularParams({8, 4, 1.5}).validate(), util::CheckError);
  EXPECT_THROW(RegularParams({8, 4, -0.1}).validate(), util::CheckError);
}

TEST(RegularParams, Exponent) {
  EXPECT_NEAR(RegularParams({8, 4, 1.0}).exponent(), 1.5, 1e-12);
  EXPECT_NEAR(RegularParams({4, 2, 1.0}).exponent(), 2.0, 1e-12);
  EXPECT_NEAR(RegularParams({2, 2, 1.0}).exponent(), 1.0, 1e-12);
}

TEST(RegularParams, ScanSize) {
  EXPECT_EQ(RegularParams({8, 4, 1.0}).scan_size(256), 256u);
  EXPECT_EQ(RegularParams({8, 4, 0.5}).scan_size(256), 16u);
  EXPECT_EQ(RegularParams({8, 4, 0.0}).scan_size(256), 0u);
}

TEST(RegularParams, Leaves) {
  const RegularParams p{8, 4, 1.0};
  EXPECT_EQ(p.leaves(1), 1u);
  EXPECT_EQ(p.leaves(4), 8u);
  EXPECT_EQ(p.leaves(256), 4096u);
  EXPECT_THROW(p.leaves(10), util::CheckError);
}

TEST(RegularParams, Taxonomy) {
  EXPECT_TRUE(RegularParams({8, 4, 1.0}).in_gap_regime());
  EXPECT_FALSE(RegularParams({8, 4, 0.5}).in_gap_regime());
  EXPECT_FALSE(RegularParams({2, 2, 1.0}).in_gap_regime());
  EXPECT_FALSE(RegularParams({2, 4, 1.0}).in_gap_regime());
  EXPECT_TRUE(RegularParams({8, 4, 0.5}).worst_case_adaptive());
  EXPECT_TRUE(RegularParams({2, 4, 1.0}).worst_case_adaptive());
  EXPECT_FALSE(RegularParams({8, 4, 1.0}).worst_case_adaptive());
}

TEST(RegularParams, CanonicalSets) {
  EXPECT_EQ(mm_scan_params().a, 8u);
  EXPECT_EQ(mm_scan_params().c, 1.0);
  EXPECT_EQ(mm_inplace_params().c, 0.0);
  EXPECT_EQ(strassen_params().a, 7u);
  EXPECT_TRUE(mm_scan_params().in_gap_regime());
  EXPECT_TRUE(strassen_params().in_gap_regime());
  EXPECT_FALSE(mm_inplace_params().in_gap_regime());
}

TEST(Potential, RhoValues) {
  const RegularParams p{8, 4, 1.0};
  EXPECT_DOUBLE_EQ(rho(p, 1), 1.0);
  EXPECT_DOUBLE_EQ(rho(p, 4), 8.0);
  EXPECT_DOUBLE_EQ(rho(p, 16), 64.0);
}

TEST(Potential, BoundedRhoCapsAtN) {
  const RegularParams p{8, 4, 1.0};
  EXPECT_DOUBLE_EQ(bounded_rho(p, 16, 4), 8.0);
  EXPECT_DOUBLE_EQ(bounded_rho(p, 16, 16), 64.0);
  EXPECT_DOUBLE_EQ(bounded_rho(p, 16, 1024), 64.0);
}

TEST(Potential, AccumulatorRatio) {
  const RegularParams p{8, 4, 1.0};
  AdaptivityAccumulator acc(p, 16);
  acc.add_box(16);  // bounded potential 64 = rho(16): ratio 1 after this
  EXPECT_DOUBLE_EQ(acc.ratio(), 1.0);
  acc.add_box(1024);  // capped at 64 again
  EXPECT_DOUBLE_EQ(acc.ratio(), 2.0);
  acc.add_box(4);
  EXPECT_DOUBLE_EQ(acc.ratio(), 2.125);
  EXPECT_EQ(acc.boxes(), 3u);
  EXPECT_DOUBLE_EQ(acc.sum_bounded_potential(), 136.0);
}

// ExactSum holds the bits of the literal `sum += x` loop: integer addends
// below and across 2^53 (where the literal loop starts rounding), and
// non-integer addends that end the integer domain early.
TEST(ExactSum, MatchesTheLiteralAdditionLoop) {
  const std::array<double, 8> values = {
      1.0, 4.0, 64.0, 0x1.0p40, 0x1.0p50 + 1.0, 0x1.8p49, 0.5, 2.25};
  util::Rng rng(3);
  for (int trial = 0; trial < 400; ++trial) {
    ExactSum sum;
    double literal = 0.0;
    // Integer-only trials up to half the time; the rest may draw 0.5 and
    // 2.25 at any step.
    const std::uint64_t kinds = trial % 2 == 0 ? 6 : values.size();
    for (int step = 0; step < 24; ++step) {
      const double x = values[rng.below(kinds)];
      const std::uint64_t count = rng.below(40);
      sum.add(Addend(x), count);
      for (std::uint64_t i = 0; i < count; ++i) literal += x;
      ASSERT_EQ(sum.value(), literal) << "trial " << trial << " step " << step;
      if (sum.exact()) {
        ASSERT_LE(literal, kExactIntegerLimit);
      }
    }
  }
}

// A replay commits the window's sum m more times, as re-adding the same
// addends would, and keeps the integer form.
TEST(ExactSum, ReplayMatchesReAddingTheWindow) {
  ExactSum sum;
  sum.add(Addend(7.0), 3);
  const double before = sum.value();
  sum.add(Addend(64.0), 2);
  sum.add(Addend(1.0), 5);
  ASSERT_TRUE(exactly_replayable(before, sum.value(), 4));
  sum.replay(before, 4);
  EXPECT_TRUE(sum.exact());
  EXPECT_EQ(sum.value(), 21.0 + 5 * 133.0);
}

}  // namespace
}  // namespace cadapt::model
