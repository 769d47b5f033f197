// E16's claim as a gate (EXPERIMENTS.md, E16): the committed campaign
// sorts the same keys with memory-adaptive merge sort, cache-oblivious
// funnelsort and two-way merge sort under four memory profiles. Every
// cell must verify its output, and under every profile mean I/Os must
// rank adaptive < funnel < merge2.
#include <array>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "campaign/manifest.hpp"
#include "campaign/plan.hpp"
#include "campaign/sweep.hpp"

namespace {

using namespace cadapt;

constexpr std::array<const char*, 3> kRanking = {"adaptive", "funnel",
                                                 "merge2"};

TEST(E16Campaign, EveryCellVerifiesAndAdaptiveBeatsFunnelBeatsMerge2) {
  const campaign::Plan plan =
      campaign::expand_plan(campaign::parse_manifest_file(
          CADAPT_MANIFEST_DIR "/e16_adaptive_vs_oblivious.manifest"));
  campaign::SweepOptions options;
  options.jobs = 4;
  options.timing = false;
  const campaign::Report report = campaign::run_sweep(plan, options);
  ASSERT_FALSE(report.truncated);
  ASSERT_EQ(report.cells.size(), 12u);

  std::map<std::string, std::map<std::string, double>> mean_ios;
  for (const campaign::CellResult& cell : report.cells) {
    SCOPED_TRACE(cell.sort + " under " + cell.profile);
    EXPECT_EQ(cell.completed, cell.trials);  // completed = output verified
    EXPECT_EQ(cell.failed, 0u);
    mean_ios[cell.profile][cell.sort] = cell.mean;
  }
  ASSERT_EQ(mean_ios.size(), 4u);
  for (const auto& [profile, by_sort] : mean_ios) {
    SCOPED_TRACE(profile);
    ASSERT_EQ(by_sort.size(), kRanking.size());
    for (std::size_t i = 0; i + 1 < kRanking.size(); ++i) {
      EXPECT_LT(by_sort.at(kRanking[i]), by_sort.at(kRanking[i + 1]))
          << kRanking[i] << " vs " << kRanking[i + 1];
    }
  }
}

}  // namespace
