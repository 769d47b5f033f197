#include "engine/montecarlo.hpp"

#include <gtest/gtest.h>

#include "campaign/sweep.hpp"
#include "core/workloads.hpp"
#include "profile/distributions.hpp"
#include "profile/worst_case.hpp"
#include "util/thread_pool.hpp"

namespace cadapt::engine {
namespace {

using model::RegularParams;

/// The Monte-Carlo campaign over i.i.d. boxes from `dist`, on the sweep's
/// trial loop.
McSummary run_iid(const RegularParams& params, std::uint64_t n,
                  std::shared_ptr<const profile::BoxDistribution> dist,
                  const McOptions& options) {
  return campaign::run_cell_trials(
      options, make_regular_trial_runner(params, n,
                                         core::iid_source(std::move(dist)),
                                         options));
}

TEST(MonteCarlo, DeterministicAcrossThreadCounts) {
  const RegularParams params{8, 4, 1.0};
  const auto dist = std::make_shared<profile::UniformPowers>(4, 0, 3);

  util::ThreadPool one(1), four(4);
  McOptions a;
  a.trials = 50;
  a.seed = 99;
  a.pool = &one;
  McOptions b = a;
  b.pool = &four;

  const McSummary sa = run_iid(params, 64, dist, a);
  const McSummary sb = run_iid(params, 64, dist, b);
  EXPECT_DOUBLE_EQ(sa.ratio.mean(), sb.ratio.mean());
  EXPECT_DOUBLE_EQ(sa.boxes.mean(), sb.boxes.mean());
  EXPECT_DOUBLE_EQ(sa.ratio.variance(), sb.ratio.variance());
}

TEST(MonteCarlo, SeedChangesResults) {
  const RegularParams params{8, 4, 1.0};
  const auto dist = std::make_shared<profile::UniformPowers>(4, 0, 3);
  McOptions a;
  a.trials = 30;
  a.seed = 1;
  McOptions b = a;
  b.seed = 2;
  const McSummary sa = run_iid(params, 64, dist, a);
  const McSummary sb = run_iid(params, 64, dist, b);
  EXPECT_NE(sa.boxes.mean(), sb.boxes.mean());
}

TEST(MonteCarlo, PointMassGiantBoxIsOneBoxPerTrial) {
  const RegularParams params{8, 4, 1.0};
  const auto dist = std::make_shared<profile::PointMass>(1 << 20);
  McOptions opts;
  opts.trials = 10;
  const McSummary s = run_iid(params, 256, dist, opts);
  EXPECT_DOUBLE_EQ(s.boxes.mean(), 1.0);
  EXPECT_EQ(s.incomplete, 0u);
  // One huge box capped at n: ratio = 1 exactly.
  EXPECT_DOUBLE_EQ(s.ratio.mean(), 1.0);
}

TEST(MonteCarlo, BoxCapMarksIncomplete) {
  const RegularParams params{8, 4, 1.0};
  const auto dist = std::make_shared<profile::PointMass>(1);
  McOptions opts;
  opts.trials = 5;
  opts.max_boxes = 3;  // far too few unit boxes for n = 64
  const McSummary s = run_iid(params, 64, dist, opts);
  EXPECT_EQ(s.incomplete, 5u);
}

TEST(MonteCarlo, CustomFactoryReceivesDistinctRngs) {
  const RegularParams params{2, 2, 1.0};
  std::mutex mu;
  std::vector<std::uint64_t> first_draws;
  McOptions opts;
  opts.trials = 8;
  campaign::run_cell_trials(
      opts, make_regular_trial_runner(
                params, 4,
                [&](util::Rng& rng) -> std::unique_ptr<profile::BoxSource> {
                  {
                    std::lock_guard lock(mu);
                    first_draws.push_back(rng());
                  }
                  return std::make_unique<profile::WorstCaseSource>(2, 2, 4);
                },
                opts));
  std::sort(first_draws.begin(), first_draws.end());
  EXPECT_EQ(std::adjacent_find(first_draws.begin(), first_draws.end()),
            first_draws.end());
}

}  // namespace
}  // namespace cadapt::engine
