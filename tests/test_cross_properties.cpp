// Cross-module property tests: invariants that tie several subsystems
// together.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "engine/analytic.hpp"
#include "engine/exec.hpp"
#include "profile/box_source.hpp"
#include "profile/distributions.hpp"
#include "profile/worst_case.hpp"
#include "stats/streaming.hpp"
#include "sweep_test_util.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace cadapt {
namespace {

TEST(CrossProperties, GeometricPowersEqualsWorstCaseCensus) {
  // The 'shuffled worst case' distribution used throughout (GeometricPowers
  // with weight a) must equal the empirical distribution of the actual
  // materialized profile.
  for (const auto& [a, b, k] :
       {std::tuple<std::uint64_t, std::uint64_t, unsigned>{8, 4, 4},
        {4, 2, 6},
        {3, 2, 5}}) {
    const std::uint64_t n = util::ipow(b, k);
    profile::WorstCaseSource source(a, b, n);
    profile::Empirical empirical(profile::materialize(source));
    profile::GeometricPowers geometric(b, static_cast<double>(a), 0, k);
    const auto& pe = empirical.pmf();
    const auto& pg = geometric.pmf();
    ASSERT_EQ(pe.size(), pg.size()) << a << " " << b;
    for (std::size_t i = 0; i < pe.size(); ++i) {
      EXPECT_EQ(pe[i].size, pg[i].size);
      EXPECT_NEAR(pe[i].prob, pg[i].prob, 1e-12);
    }
  }
}

TEST(CrossProperties, BoxProgressMonotoneInSizeFromProblemStart) {
  // From the start of a fresh problem, a bigger box never makes less
  // progress (both semantics).
  for (const engine::BoxSemantics sem :
       {engine::BoxSemantics::kOptimistic, engine::BoxSemantics::kBudgeted}) {
    std::uint64_t prev = 0;
    for (std::uint64_t s = 1; s <= 2048; s *= 2) {
      engine::RegularExecution exec({8, 4, 1.0}, 1024,
                                    engine::ScanPlacement::kEnd, 0, sem);
      const std::uint64_t progress = exec.consume_box(s).progress;
      EXPECT_GE(progress, prev) << "s=" << s;
      prev = progress;
    }
  }
}

TEST(CrossProperties, CompletedRunRatioAtLeastOneOptimistic) {
  // Under the optimistic semantics each box's progress is at most its
  // n-bounded potential, and total progress is n^{log_b a}; hence the
  // adaptivity ratio of a completed run is >= 1.
  util::Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    profile::UniformRange dist(1, 300);
    profile::DistributionSource source(dist, rng.split());
    const engine::RunResult r = engine::run_regular({8, 4, 1.0}, 256, source);
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.ratio, 1.0 - 1e-9) << trial;
    EXPECT_GE(r.boxes, 1u);
  }
}

TEST(CrossProperties, AnalyticFMonotoneInProblemSize) {
  profile::UniformPowers dist(4, 0, 4);
  engine::AnalyticSolver solver({8, 4, 1.0}, dist);
  const auto levels = solver.solve(util::ipow(4, 7));
  for (std::size_t i = 1; i < levels.size(); ++i)
    EXPECT_GT(levels[i].f, levels[i - 1].f) << levels[i].n;
}

TEST(CrossProperties, ExpectedScanBoxesMonotoneInLength) {
  profile::Bimodal dist(2, 64, 0.1);
  engine::AnalyticSolver solver({8, 4, 1.0}, dist);
  double prev = 0.0;
  for (std::uint64_t len = 1; len <= 1024; len *= 2) {
    const double k = solver.expected_scan_boxes(len);
    EXPECT_GE(k, prev) << len;
    prev = k;
  }
}

TEST(CrossProperties, AnalyticFDecreasesWithBiggerBoxes) {
  // Stochastically bigger boxes cannot increase the expected number of
  // boxes to finish.
  const std::uint64_t n = util::ipow(4, 5);
  profile::PointMass small(4), medium(64), large(1024);
  engine::AnalyticSolver s1({8, 4, 1.0}, small), s2({8, 4, 1.0}, medium),
      s3({8, 4, 1.0}, large);
  const double f1 = s1.solve(n).back().f;
  const double f2 = s2.solve(n).back().f;
  const double f3 = s3.solve(n).back().f;
  EXPECT_GT(f1, f2);
  EXPECT_GT(f2, f3);
}

TEST(CrossProperties, UnitProgressPlumbedThroughCurves) {
  // The manifest's unit_progress key must switch the reported statistic:
  // the two readings differ for a < b on its worst-case profile.
  const std::string grid =
      "name = t\nalgos = 2:4:1\nprofiles = worst\nk = 3..5\n";
  const RatioSeries leaves = sweep_one(grid + "unit_progress = 0\n");
  const RatioSeries units = sweep_one(grid + "unit_progress = 1\n");
  ASSERT_EQ(leaves.size(), units.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_GT(leaves[i].mean, units[i].mean + 0.5);
  }
}

TEST(CrossProperties, ScanHidingCurveUsesInterleavedPlacement) {
  // The manifest's placement key must reach the engine: under budgeted
  // semantics interleaved scans escape M_{8,4}(n) from k = 3 on (E12),
  // while trailing scans pay the full log_4 n + 1.
  const std::string grid =
      "name = t\nalgos = 8:4:1\nprofiles = worst\nk = 2..4\n"
      "semantics = budgeted\n";
  const RatioSeries end = sweep_one(grid + "placement = end\n");
  const RatioSeries interleaved =
      sweep_one(grid + "placement = interleaved\n");
  ASSERT_EQ(end.size(), 3u);
  ASSERT_EQ(interleaved.size(), 3u);
  for (std::size_t i = 0; i < end.size(); ++i) {
    EXPECT_EQ(interleaved[i].incomplete, 0u);
    EXPECT_NEAR(end[i].mean, 3.0 + static_cast<double>(i), 1e-9);
    if (i > 0) {
      EXPECT_LT(interleaved[i].mean, end[i].mean - 0.5) << i;
    }
  }
}

TEST(CrossProperties, RandomizedScanPlacementBeatsFixedAdversary) {
  // E18 in miniature: on the deterministic M_{8,4}(256) (ratio 5 for the
  // deterministic algorithm under budgeted semantics), randomizing the
  // algorithm's per-node scan placement drops the ratio well below.
  const model::RegularParams params{8, 4, 1.0};
  const std::uint64_t n = 256;
  stats::Welford randomized;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto factory = [&]() -> std::unique_ptr<profile::BoxSource> {
      return std::make_unique<profile::WorstCaseSource>(8, 4, n);
    };
    profile::CyclingSource source(factory);
    const engine::RunResult r = engine::run_regular(
        params, n, source, engine::ScanPlacement::kAdversaryMatched,
        UINT64_C(1) << 40, seed, engine::BoxSemantics::kBudgeted);
    ASSERT_TRUE(r.completed);
    randomized.add(r.ratio);
  }
  EXPECT_LT(randomized.mean(), 4.0);  // deterministic baseline: 5.0
}

TEST(CrossProperties, BudgetedBoxCostConservation) {
  // A budgeted box that does not finish the execution advances constructs
  // whose total cost equals its size: feeding boxes of total cost C
  // completes an execution of total cost exactly C (cost = scan accesses
  // + problem sizes at wholesale completion; for unit boxes cost = units).
  engine::RegularExecution exec({4, 2, 1.0}, 64, engine::ScanPlacement::kEnd,
                                0, engine::BoxSemantics::kBudgeted);
  // All-unit boxes: number of boxes consumed must equal total units.
  std::uint64_t boxes = 0;
  while (!exec.done()) {
    exec.consume_box(1);
    ++boxes;
  }
  EXPECT_EQ(boxes, exec.total_units());
}

}  // namespace
}  // namespace cadapt
