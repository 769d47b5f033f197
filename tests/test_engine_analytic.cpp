#include "engine/analytic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "campaign/sweep.hpp"
#include "core/workloads.hpp"
#include "engine/montecarlo.hpp"
#include "profile/distributions.hpp"
#include "util/math.hpp"

namespace cadapt::engine {
namespace {

using model::RegularParams;

TEST(AnalyticSolver, PointMassAtLeastNFinishesInOneBox) {
  const RegularParams params{8, 4, 1.0};
  profile::PointMass dist(1024);
  AnalyticSolver solver(params, dist);
  const auto levels = solver.solve(1024);
  for (const auto& lvl : levels) {
    EXPECT_DOUBLE_EQ(lvl.f, 1.0) << "n=" << lvl.n;
  }
}

TEST(AnalyticSolver, UnitBoxesCountEveryUnit) {
  // With all boxes of size 1, f(n) = U(n) (each box advances one unit).
  const RegularParams params{8, 4, 1.0};
  profile::PointMass dist(1);
  AnalyticSolver solver(params, dist);
  const auto levels = solver.solve(64);
  RegularExecution probe(params, 64);
  EXPECT_DOUBLE_EQ(levels.back().f, static_cast<double>(probe.total_units()));
}

TEST(AnalyticSolver, ScanBoxesRenewal) {
  const RegularParams params{8, 4, 1.0};
  {
    profile::PointMass dist(4);
    AnalyticSolver solver(params, dist);
    // Scan of length 10 with boxes of 4: ceil(10/4) = 3.
    EXPECT_DOUBLE_EQ(solver.expected_scan_boxes(10), 3.0);
    EXPECT_DOUBLE_EQ(solver.expected_scan_boxes(0), 0.0);
    EXPECT_DOUBLE_EQ(solver.expected_scan_boxes(1), 1.0);
  }
  {
    // Boxes 1 or 3 with equal probability; E[K(1)] = 1,
    // E[K(2)] = 1 + 0.5 E[K(1)] = 1.5,
    // E[K(3)] = 1 + 0.5 E[K(2)] = 1.75.
    profile::Bimodal dist(1, 3, 0.5);
    AnalyticSolver solver(params, dist);
    EXPECT_DOUBLE_EQ(solver.expected_scan_boxes(3), 1.75);
  }
}

TEST(AnalyticSolver, WaldScanIdentity) {
  // E[K] · E[min(|□|, L)] lies in [L, 2L-1] (Lemma 3's combinatorial
  // identity, with L the scan length).
  const RegularParams params{8, 4, 1.0};
  profile::GeometricPowers dist(4, 8.0, 0, 5);
  AnalyticSolver solver(params, dist);
  for (std::uint64_t len : {16ull, 64ull, 256ull, 1024ull}) {
    const double k = solver.expected_scan_boxes(len);
    const double bound = k * dist.mean_min(len);
    EXPECT_GE(bound, static_cast<double>(len) - 1e-9) << len;
    EXPECT_LE(bound, 2.0 * static_cast<double>(len)) << len;
  }
}

TEST(AnalyticSolver, Theorem1RatioBounded) {
  // Cache-adaptivity in expectation: f(n)·m_n / n^{log_b a} = O(1) for
  // i.i.d. boxes, for every distribution tried.
  const RegularParams params{8, 4, 1.0};
  const std::uint64_t n_max = util::ipow(4, 9);
  profile::GeometricPowers census(4, 8.0, 0, 9);
  profile::UniformPowers uniform(4, 0, 9);
  profile::Bimodal bimodal(4, 4096, 0.01);
  profile::PointMass point(64);
  const std::vector<const profile::BoxDistribution*> dists{&census, &uniform,
                                                           &bimodal, &point};
  for (const profile::BoxDistribution* dist : dists) {
    AnalyticSolver solver(params, *dist);
    const auto levels = solver.solve(n_max);
    for (const auto& lvl : levels) {
      EXPECT_LT(lvl.ratio, 30.0) << dist->name() << " n=" << lvl.n;
      EXPECT_GT(lvl.ratio, 0.0);
    }
  }
}

TEST(AnalyticSolver, Equation8ProductBounded) {
  // Π f(b^k)/f'(b^k) over levels is O(1) even though single factors can
  // exceed 1.
  const RegularParams params{8, 4, 1.0};
  profile::GeometricPowers dist(4, 8.0, 0, 8);
  AnalyticSolver solver(params, dist);
  const auto levels = solver.solve(util::ipow(4, 8));
  double product = 1.0;
  for (const auto& lvl : levels) product *= lvl.correction;
  EXPECT_LT(product, 50.0);
  EXPECT_GE(product, 1.0);
}

struct McAgreementCase {
  model::RegularParams params;
  unsigned levels;
};

class AnalyticVsMonteCarlo
    : public testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(AnalyticVsMonteCarlo, ExpectedBoxesAgree) {
  const auto [dist_id, k] = GetParam();
  const RegularParams params{8, 4, 1.0};
  const std::uint64_t n = util::ipow(4, k);

  std::shared_ptr<const profile::BoxDistribution> dist;
  switch (dist_id) {
    case 0: dist = std::make_shared<profile::UniformPowers>(4, 0, 3); break;
    case 1: dist = std::make_shared<profile::GeometricPowers>(4, 8.0, 0, 4); break;
    case 2: dist = std::make_shared<profile::Bimodal>(2, 64, 0.05); break;
    default: dist = std::make_shared<profile::UniformRange>(1, 20); break;
  }

  AnalyticSolver solver(params, *dist);
  const double f_analytic = solver.solve(n).back().f;

  McOptions mc;
  mc.trials = 2000;
  mc.seed = 12345 + static_cast<std::uint64_t>(dist_id);
  const McSummary summary = campaign::run_cell_trials(
      mc, make_regular_trial_runner(params, n, core::iid_source(dist), mc));
  EXPECT_EQ(summary.incomplete, 0u);

  // The Lemma 3 recurrence should match the simulation within a few
  // standard errors (plus a slack floor for tiny expectations).
  const double mc_mean = summary.boxes.mean();
  const double tolerance = 4.0 * summary.boxes.sem() + 0.05 * f_analytic + 0.1;
  EXPECT_NEAR(mc_mean, f_analytic, tolerance)
      << dist->name() << " n=" << n << " mc=" << mc_mean
      << " analytic=" << f_analytic;
}

INSTANTIATE_TEST_SUITE_P(Grid, AnalyticVsMonteCarlo,
                         testing::Combine(testing::Values(0, 1, 2, 3),
                                          testing::Values(2u, 3u, 4u)));

}  // namespace
}  // namespace cadapt::engine
