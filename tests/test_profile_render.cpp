#include "profile/render.hpp"

#include <gtest/gtest.h>

#include "profile/box_source.hpp"
#include "profile/worst_case.hpp"
#include "util/check.hpp"

namespace cadapt::profile {
namespace {

TEST(Render, EmptyProfile) {
  EXPECT_EQ(render_profile_ascii({}, 40, 8), "(empty profile)\n");
}

TEST(Render, SingleBoxFillsPlot) {
  const std::vector<BoxSize> boxes{8};
  const std::string out = render_profile_ascii(boxes, 10, 4, false);
  // Every column reaches the top row.
  EXPECT_NE(out.find("mem ^ ##########"), std::string::npos) << out;
  EXPECT_NE(out.find("> time"), std::string::npos);
}

TEST(Render, StepStructureVisible) {
  // A small box then a big box: the left half must be strictly lower.
  const std::vector<BoxSize> boxes{2, 2, 2, 2, 8};
  const std::string out = render_profile_ascii(boxes, 16, 8, false);
  const auto top_row_start = out.find("mem ^ ");
  ASSERT_NE(top_row_start, std::string::npos);
  const std::string top = out.substr(top_row_start + 6, 16);
  EXPECT_EQ(top.find('#'), 8u) << out;  // only the second half is tall
}

TEST(Render, WorstCaseProfileRenders) {
  WorstCaseSource source(8, 4, 64);
  const auto boxes = materialize(source);
  const std::string out = render_profile_ascii(boxes, 80, 12, true);
  EXPECT_NE(out.find("585 boxes"), std::string::npos) << out;
  EXPECT_NE(out.find("log memory scale"), std::string::npos);
}

TEST(Render, RejectsDegenerateDimensions) {
  const std::vector<BoxSize> boxes{1};
  EXPECT_THROW(render_profile_ascii(boxes, 1, 8), util::CheckError);
  EXPECT_THROW(render_profile_ascii(boxes, 8, 1), util::CheckError);
}

TEST(Describe, WorstCaseSummary) {
  const std::string out = describe_worst_case(8, 4, 64);
  EXPECT_NE(out.find("M(64) = 8 x M(16)  ++  [box 64]"), std::string::npos)
      << out;
  EXPECT_NE(out.find("M(1) = [box 1]"), std::string::npos);
  EXPECT_NE(out.find("size 64  x 1"), std::string::npos);
  EXPECT_NE(out.find("size 1  x 512"), std::string::npos);
  // Figure 1's total potential, n^{3/2} (log_4 n + 1), exactly.
  EXPECT_NE(out.find("Total: potential 2048 = n^{log_b a} * (log_b n + 1) "
                     "= 512 * 4"),
            std::string::npos)
      << out;
  const std::string big = describe_worst_case(8, 4, 1024);
  EXPECT_NE(big.find("Total: potential 196608 = n^{log_b a} * "
                     "(log_b n + 1) = 32768 * 6"),
            std::string::npos)
      << big;
}

}  // namespace
}  // namespace cadapt::profile
