#include "profile/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <vector>

#include "util/check.hpp"
#include "util/random.hpp"

namespace cadapt::profile {
namespace {

double total_mass(const BoxDistribution& d) {
  double sum = 0;
  for (const auto& e : d.pmf()) sum += e.prob;
  return sum;
}

TEST(PointMass, Basics) {
  PointMass d(16);
  EXPECT_EQ(d.min_size(), 16u);
  EXPECT_EQ(d.max_size(), 16u);
  EXPECT_DOUBLE_EQ(d.mean(), 16.0);
  EXPECT_DOUBLE_EQ(d.prob_ge(16), 1.0);
  EXPECT_DOUBLE_EQ(d.prob_ge(17), 0.0);
  EXPECT_DOUBLE_EQ(d.mean_min(4), 4.0);
  EXPECT_DOUBLE_EQ(d.mean_min(100), 16.0);
  util::Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.sample(rng), 16u);
}

TEST(UniformPowers, PmfIsUniform) {
  UniformPowers d(4, 0, 3);  // {1, 4, 16, 64}
  ASSERT_EQ(d.pmf().size(), 4u);
  for (const auto& e : d.pmf()) EXPECT_DOUBLE_EQ(e.prob, 0.25);
  EXPECT_DOUBLE_EQ(d.mean(), (1 + 4 + 16 + 64) / 4.0);
  EXPECT_DOUBLE_EQ(d.prob_ge(5), 0.5);
  EXPECT_NEAR(total_mass(d), 1.0, 1e-12);
}

TEST(GeometricPowers, MatchesWorstCaseCensusShape) {
  // Weight a: Pr[b^k] ∝ a^{-k}; ratio of consecutive masses is 1/a.
  GeometricPowers d(4, 8.0, 0, 3);
  const auto& pmf = d.pmf();
  ASSERT_EQ(pmf.size(), 4u);
  for (std::size_t i = 1; i < pmf.size(); ++i)
    EXPECT_NEAR(pmf[i].prob / pmf[i - 1].prob, 1.0 / 8.0, 1e-12);
  EXPECT_NEAR(total_mass(d), 1.0, 1e-12);
}

TEST(Bimodal, MassSplit) {
  Bimodal d(2, 64, 0.125);
  EXPECT_DOUBLE_EQ(d.prob_ge(64), 0.125);
  EXPECT_DOUBLE_EQ(d.prob_ge(3), 0.125);
  EXPECT_DOUBLE_EQ(d.mean(), 0.875 * 2 + 0.125 * 64);
}

TEST(UniformRange, Moments) {
  UniformRange d(1, 10);
  EXPECT_DOUBLE_EQ(d.mean(), 5.5);
  EXPECT_DOUBLE_EQ(d.prob_ge(6), 0.5);
  EXPECT_DOUBLE_EQ(d.mean_min(3), (1 + 2 + 3 * 8) / 10.0);
}

TEST(UniformRange, HugeRangeThrows) {
  EXPECT_THROW(UniformRange(1, (1u << 23)), util::CheckError);
}

TEST(Empirical, MatchesCounts) {
  Empirical d({4, 4, 4, 1, 16});
  ASSERT_EQ(d.pmf().size(), 3u);
  EXPECT_DOUBLE_EQ(d.prob_ge(4), 0.8);
  EXPECT_DOUBLE_EQ(d.prob_ge(16), 0.2);
  EXPECT_DOUBLE_EQ(d.mean(), (4 * 3 + 1 + 16) / 5.0);
}

TEST(MeanMinPow, HandComputed) {
  // min(4, X)^{1.5} for X in {1, 16} with equal mass: (1 + 8)/2.
  UniformPowers d(4, 0, 2);  // {1, 4, 16} each 1/3
  EXPECT_NEAR(d.mean_min_pow(4, 1.5), (1.0 + 8.0 + 8.0) / 3.0, 1e-12);
  EXPECT_NEAR(d.mean_min_pow(16, 1.5), (1.0 + 8.0 + 64.0) / 3.0, 1e-12);
}

TEST(Sampling, FrequenciesTrackPmf) {
  GeometricPowers d(2, 2.0, 0, 4);
  util::Rng rng(77);
  std::map<BoxSize, std::uint64_t> counts;
  const int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) ++counts[d.sample(rng)];
  for (const auto& e : d.pmf()) {
    const double freq = static_cast<double>(counts[e.size]) / kTrials;
    EXPECT_NEAR(freq, e.prob, 0.01) << "size " << e.size;
  }
}

TEST(Sampling, OnlySupportValues) {
  Bimodal d(3, 9, 0.5);
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const BoxSize s = d.sample(rng);
    EXPECT_TRUE(s == 3 || s == 9);
  }
}

// sample() searches only the guide bucket of its uniform draw; it must
// return exactly what a lower_bound over the whole CDF returns for the
// same draw — skewed, uniform, two-point and one-point pmfs, and a pmf
// larger than the guide's bucket cap.
TEST(Sampling, GuideBucketMatchesFullBinarySearch) {
  const GeometricPowers census(4, 8.0, 0, 7);
  const UniformRange range(1, 64);
  const UniformRange wide(1, 70000);
  const Bimodal bimodal(2, 1024, 0.03);
  const UniformPowers powers(4, 0, 4);
  const PointMass point(16);
  const Empirical empirical({1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89});
  for (const BoxDistribution* d : std::vector<const BoxDistribution*>{
           &census, &range, &wide, &bimodal, &powers, &point, &empirical}) {
    // The CDF exactly as set_pmf accumulates it.
    std::vector<double> cdf;
    double acc = 0.0;
    for (const PmfEntry& e : d->pmf()) cdf.push_back(acc += e.prob);
    cdf.back() = 1.0;
    util::Rng sampled(99);
    util::Rng reference(99);
    for (int i = 0; i < 200000; ++i) {
      const double u = reference.uniform01();
      const auto idx = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      ASSERT_EQ(d->sample(sampled), d->pmf()[idx].size)
          << d->name() << " draw " << i;
    }
  }
}

// The CDF exactly as set_pmf accumulates it.
std::vector<double> accumulated_cdf(const BoxDistribution& d) {
  std::vector<double> cdf;
  double acc = 0.0;
  for (const PmfEntry& e : d.pmf()) cdf.push_back(acc += e.prob);
  cdf.back() = 1.0;
  return cdf;
}

// The distributions of GuideBucketMatchesFullBinarySearch, plus one whose
// CDF steps collapse to equal doubles: weight 1e6 leaves every entry past
// the second at cdf = 1.
struct EdgeDistributions {
  const GeometricPowers census{4, 8.0, 0, 7};
  const UniformRange range{1, 64};
  const UniformRange wide{1, 70000};
  const Bimodal bimodal{2, 1024, 0.03};
  const UniformPowers powers{4, 0, 4};
  const PointMass point{16};
  const Empirical empirical{{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89}};
  const GeometricPowers collapsed{4, 1e6, 0, 7};

  std::vector<const BoxDistribution*> all() const {
    return {&census, &range, &wide,  &bimodal,
            &powers, &point, &empirical, &collapsed};
  }
};

// index_of(m) is lower_bound over the double CDF at m · 2^-53 — the entry
// sample() takes for the RNG word whose top 53 bits are m — at both ends
// of the draw range and on both sides of every entry's bound.
TEST(Sampling, IntegerBoundsMatchLowerBoundAtEveryEdge) {
  constexpr std::uint64_t kDraws = UINT64_C(1) << 53;
  const EdgeDistributions dists;
  for (const BoxDistribution* d : dists.all()) {
    const std::vector<double> cdf = accumulated_cdf(*d);
    ASSERT_EQ(d->bounds().size(), cdf.size()) << d->name();
    EXPECT_EQ(d->bounds().back(), kDraws) << d->name();
    std::vector<std::uint64_t> edges = {0, kDraws - 1};
    for (const std::uint64_t bound : d->bounds()) {
      edges.push_back(bound);
      edges.push_back(bound + 1);
    }
    for (const std::uint64_t m : edges) {
      if (m >= kDraws) continue;
      const double u = static_cast<double>(m) * 0x1.0p-53;
      const auto expected = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      ASSERT_EQ(d->index_of(m), expected) << d->name() << " m=" << m;
    }
  }
  // The collapse is real: entries past the second share bound 2^53.
  EXPECT_EQ(dists.collapsed.bounds()[2], kDraws);
}

// Runs carry exactly the boxes successive next() calls deliver from the
// same seed, and leave the RNG where next() would: after the runs the two
// streams go on equal. The collapsed distribution's head entry has mass
// 1 - 1e-6, so its runs stop at kMaxCoalesce; a point mass is one run of
// kPointMassChunk boxes.
TEST(DistributionSource, RunsEqualThePerBoxStream) {
  const EdgeDistributions dists;
  for (const BoxDistribution* d : dists.all()) {
    DistributionSource per_box(*d, util::Rng(5));
    DistributionSource runs(*d, util::Rng(5));
    if (d == &dists.point) {
      const std::optional<BoxRun> run = runs.next_run();
      ASSERT_TRUE(run.has_value());
      EXPECT_EQ(run->size, 16u);
      EXPECT_EQ(run->count, DistributionSource::kPointMassChunk);
      EXPECT_EQ(per_box.next(), 16u);
      continue;
    }
    bool capped = false;
    std::array<BoxRun, 64> batch;
    for (int round = 0; round < 16; ++round) {
      ASSERT_EQ(runs.next_runs(batch), batch.size());
      for (const BoxRun& run : batch) {
        ASSERT_GE(run.count, 1u);
        ASSERT_LE(run.count, DistributionSource::kMaxCoalesce);
        capped = capped || run.count == DistributionSource::kMaxCoalesce;
        for (std::uint64_t i = 0; i < run.count; ++i) {
          ASSERT_EQ(per_box.next(), run.size) << d->name();
        }
      }
      // Interleave single runs and single boxes too.
      const std::optional<BoxRun> run = runs.next_run();
      ASSERT_TRUE(run.has_value());
      for (std::uint64_t i = 0; i < run->count; ++i) {
        ASSERT_EQ(per_box.next(), run->size) << d->name();
      }
      ASSERT_EQ(runs.next(), per_box.next()) << d->name();
    }
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(runs.next(), per_box.next()) << d->name();
    }
    EXPECT_EQ(capped, d == &dists.collapsed) << d->name();
  }
}

TEST(DistributionSource, InfiniteStream) {
  PointMass d(5);
  DistributionSource source(d, util::Rng(1));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(source.next(), 5u);
}

TEST(PmfValidation, RejectsBadInput) {
  EXPECT_THROW(Empirical({}), util::CheckError);
  EXPECT_THROW(PointMass(0), util::CheckError);
  EXPECT_THROW(Bimodal(5, 3, 0.5), util::CheckError);
  EXPECT_THROW(Bimodal(1, 3, 0.0), util::CheckError);
  EXPECT_THROW(UniformPowers(1, 0, 2), util::CheckError);
}

TEST(PmfValidation, DuplicateSizesMerge) {
  Empirical d({7, 7, 7});
  ASSERT_EQ(d.pmf().size(), 1u);
  EXPECT_DOUBLE_EQ(d.pmf().front().prob, 1.0);
}

}  // namespace
}  // namespace cadapt::profile
