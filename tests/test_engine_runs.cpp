// Differential tests for the O(runs) bulk consumption path (docs/PERF.md).
//
// The contract under test is BIT-IDENTITY: the bulk driver — run-length
// consumption (consume_run), arithmetic scan stretches, and closed-form
// block replay (peek_block / classify_period / apply_period) — must
// produce exactly the same RunResult fields, recorder counters, and
// source stream as the literal per-box reference loop, across every
// (semantics x placement x source) combination and under arbitrary run
// fragmentation. Any divergence, however small, is a bug; there is no
// tolerance anywhere in this file.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/cell_runner.hpp"
#include "campaign/manifest.hpp"
#include "core/workloads.hpp"
#include "engine/exec.hpp"
#include "engine/reference.hpp"
#include "model/regular.hpp"
#include "obs/recorder.hpp"
#include "obs/sink.hpp"
#include "profile/box_source.hpp"
#include "profile/distributions.hpp"
#include "profile/transforms.hpp"
#include "profile/worst_case.hpp"
#include "robust/cancel.hpp"
#include "robust/fault.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace cadapt::engine {
namespace {

// A materialized stream re-served with RANDOM run boundaries: next() is
// per-box, next_run() returns a random-length prefix of the current
// equal-size stretch. Differential runs against this source prove that
// the engine's results never depend on where runs happen to break.
class FragmentingSource final : public profile::BoxSource {
 public:
  FragmentingSource(std::vector<profile::BoxSize> boxes, std::uint64_t seed)
      : boxes_(std::move(boxes)), rng_(seed) {}

  std::optional<profile::BoxSize> next() override {
    if (pos_ == boxes_.size()) return std::nullopt;
    return boxes_[pos_++];
  }

  std::optional<profile::BoxRun> next_run() override {
    if (pos_ == boxes_.size()) return std::nullopt;
    const profile::BoxSize size = boxes_[pos_];
    std::uint64_t stretch = 0;
    while (pos_ + stretch < boxes_.size() && boxes_[pos_ + stretch] == size) {
      ++stretch;
    }
    const std::uint64_t count = 1 + rng_.below(stretch);
    pos_ += count;
    return profile::BoxRun{size, count};
  }

 private:
  std::vector<profile::BoxSize> boxes_;
  std::size_t pos_ = 0;
  util::Rng rng_;
};

// DistributionSource borrows its distribution; this wrapper owns both so
// a SourceCase factory can hand out self-contained instances.
class OwningDistSource final : public profile::BoxSource {
 public:
  OwningDistSource(std::shared_ptr<const profile::BoxDistribution> dist,
                   std::uint64_t seed)
      : dist_(std::move(dist)), src_(*dist_, util::Rng(seed)) {}

  std::optional<profile::BoxSize> next() override { return src_.next(); }
  std::optional<profile::BoxRun> next_run() override {
    return src_.next_run();
  }

 private:
  std::shared_ptr<const profile::BoxDistribution> dist_;
  profile::DistributionSource src_;
};

std::vector<profile::BoxSize> worst_boxes(const model::RegularParams& p,
                                          std::uint64_t n) {
  profile::WorstCaseSource src(p.a, p.b, n);
  return profile::materialize(src);
}

struct SourceCase {
  std::string name;
  std::function<std::unique_ptr<profile::BoxSource>()> make;
};

// One factory per source family the bulk path special-cases. Every make()
// call yields a fresh instance with identical seeds, so a differential
// pair sees the same stream values.
std::vector<SourceCase> source_cases(const model::RegularParams& p,
                                     std::uint64_t n) {
  std::vector<SourceCase> cases;
  cases.push_back({"worst", [p, n] {
                     return std::make_unique<profile::WorstCaseSource>(
                         p.a, p.b, n);
                   }});
  cases.push_back({"worst-cycling", [p, n] {
                     return std::make_unique<profile::CyclingSource>([p, n] {
                       return std::make_unique<profile::WorstCaseSource>(
                           p.a, p.b, n);
                     });
                   }});
  const std::vector<profile::BoxSize> boxes = worst_boxes(p, n);
  std::vector<profile::BoxSize> shuffled = boxes;
  util::Rng shuffle_rng(123);
  profile::shuffle_boxes(shuffled, shuffle_rng);
  cases.push_back({"shuffled-cycling", [shuffled] {
                     return std::make_unique<profile::VectorSource>(
                         shuffled, /*cycle=*/true);
                   }});
  cases.push_back({"fragmented-worst", [boxes] {
                     return std::make_unique<FragmentingSource>(boxes, 999);
                   }});
  cases.push_back(
      {"iid-geometric", [p] {
         auto dist = std::make_shared<profile::GeometricPowers>(
             p.b, static_cast<double>(p.a), 0, 4);
         return std::make_unique<OwningDistSource>(std::move(dist), 77);
       }});
  cases.push_back({"iid-point", [] {
                     auto dist = std::make_shared<profile::PointMass>(16);
                     return std::make_unique<OwningDistSource>(
                         std::move(dist), 78);
                   }});
  cases.push_back(
      {"perturbed-worst", [p, n] {
         return std::make_unique<profile::SizePerturbSource>(
             std::make_unique<profile::WorstCaseSource>(p.a, p.b, n),
             profile::uniform_int_perturb(3), util::Rng(7));
       }});
  cases.push_back({"shifted-worst", [p, n] {
                     return std::make_unique<profile::CyclicShiftSource>(
                         [p, n] {
                           return std::make_unique<profile::WorstCaseSource>(
                               p.a, p.b, n);
                         },
                         /*offset=*/13);
                   }});
  return cases;
}

std::vector<model::RegularParams> shapes() {
  model::RegularParams p1;
  p1.a = 8, p1.b = 4, p1.c = 1.0;
  model::RegularParams p2;
  p2.a = 4, p2.b = 2, p2.c = 1.0;
  model::RegularParams p3;  // a < b: the unit-progress regime
  p3.a = 2, p3.b = 4, p3.c = 1.0;
  return {p1, p2, p3};
}

// The full differential matrix: every RunResult field must be EXACTLY
// equal between the bulk driver and the per-box reference loop — shapes x
// placements x semantics x sources x box caps (caps chosen to land
// mid-run, mid-block, and never).
TEST(BulkDifferential, BitIdenticalToPerBoxEverywhere) {
  for (const model::RegularParams& p : shapes()) {
    const unsigned k = p.b == 2 ? 7u : 4u;
    const std::uint64_t n = util::ipow(p.b, k);
    for (const ScanPlacement placement :
         {ScanPlacement::kEnd, ScanPlacement::kInterleaved,
          ScanPlacement::kAdversaryMatched}) {
      for (const BoxSemantics semantics :
           {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
        for (const SourceCase& source_case : source_cases(p, n)) {
          for (const std::uint64_t cap :
               {std::uint64_t{37}, std::uint64_t{1000},
                UINT64_C(1) << 40}) {
            const std::string label =
                p.name() + " " + source_case.name + " placement=" +
                std::to_string(static_cast<int>(placement)) + " semantics=" +
                std::to_string(static_cast<int>(semantics)) +
                " cap=" + std::to_string(cap);
            auto bulk_source = source_case.make();
            auto ref_source = source_case.make();
            RunOptions bulk_options;
            bulk_options.max_boxes = cap;
            RunOptions ref_options;
            ref_options.max_boxes = cap;
            ref_options.per_box = true;
            const RunResult bulk =
                run_regular(p, n, *bulk_source, placement,
                            /*adversary_seed=*/5, semantics, bulk_options);
            const RunResult ref =
                run_regular(p, n, *ref_source, placement,
                            /*adversary_seed=*/5, semantics, ref_options);
            EXPECT_EQ(bulk.completed, ref.completed) << label;
            EXPECT_EQ(bulk.stop, ref.stop) << label;
            EXPECT_EQ(bulk.boxes, ref.boxes) << label;
            EXPECT_EQ(bulk.leaves, ref.leaves) << label;
            EXPECT_EQ(bulk.sum_bounded_potential, ref.sum_bounded_potential)
                << label;
            EXPECT_EQ(bulk.ratio, ref.ratio) << label;
            EXPECT_EQ(bulk.unit_ratio, ref.unit_ratio) << label;
          }
        }
      }
    }
  }
}

// A recorder in kBoxes granularity (the default) must force the literal
// per-box path: the emitted event stream is byte-identical whether or not
// the caller asked for per_box explicitly.
TEST(BulkRecorder, KBoxesGranularityForcesPerBoxTrace) {
  model::RegularParams p;
  p.a = 8, p.b = 4, p.c = 1.0;
  const std::uint64_t n = util::ipow(p.b, 3u);

  obs::MemorySink bulk_sink;
  obs::ExecRecorder bulk_rec(&bulk_sink);  // kBoxes default
  profile::WorstCaseSource bulk_source(p.a, p.b, n);
  RunOptions bulk_options;
  bulk_options.recorder = &bulk_rec;
  RegularExecution bulk_exec(p, n);
  const RunResult bulk = run_to_completion(bulk_exec, bulk_source,
                                           bulk_options);

  obs::MemorySink ref_sink;
  obs::ExecRecorder ref_rec(&ref_sink);
  profile::WorstCaseSource ref_source(p.a, p.b, n);
  RunOptions ref_options;
  ref_options.recorder = &ref_rec;
  ref_options.per_box = true;
  RegularExecution ref_exec(p, n);
  const RunResult ref = run_to_completion(ref_exec, ref_source, ref_options);

  EXPECT_EQ(bulk.boxes, ref.boxes);
  ASSERT_EQ(bulk_sink.events().size(), ref_sink.events().size());
  for (std::size_t i = 0; i < bulk_sink.events().size(); ++i) {
    EXPECT_TRUE(bulk_sink.events()[i] == ref_sink.events()[i])
        << "event " << i << " diverged";
  }
}

// A kRuns recorder rides the bulk path, yet every aggregate counter —
// including the per-size-class tallies and branch counts — must equal
// what per-box recording produces: through block replay (worst), through
// subtree probes on one long constant run (iid-point), and under random
// run boundaries (fragmented-worst).
TEST(BulkRecorder, KRunsCountersExactlyMatchPerBox) {
  for (const model::RegularParams& p : shapes()) {
    const std::uint64_t n = util::ipow(p.b, p.b == 2 ? 6u : 4u);
    for (const SourceCase& source_case : source_cases(p, n)) {
      if (source_case.name != "worst" && source_case.name != "iid-point" &&
          source_case.name != "fragmented-worst") {
        continue;
      }
      for (const BoxSemantics semantics :
           {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
        obs::ExecRecorder runs_rec(nullptr, obs::BoxGranularity::kRuns);
        auto runs_source = source_case.make();
        RunOptions runs_options;
        runs_options.recorder = &runs_rec;
        RegularExecution runs_exec(p, n, ScanPlacement::kEnd, 0, semantics);
        run_to_completion(runs_exec, *runs_source, runs_options);

        obs::ExecRecorder box_rec(nullptr);
        auto box_source = source_case.make();
        RunOptions box_options;
        box_options.recorder = &box_rec;
        box_options.per_box = true;
        RegularExecution box_exec(p, n, ScanPlacement::kEnd, 0, semantics);
        run_to_completion(box_exec, *box_source, box_options);

        const std::string label =
            p.name() + " " + source_case.name + " semantics=" +
            std::to_string(static_cast<int>(semantics));
        EXPECT_EQ(runs_rec.boxes(), box_rec.boxes()) << label;
        EXPECT_EQ(runs_rec.sum_box_sizes(), box_rec.sum_box_sizes()) << label;
        EXPECT_EQ(runs_rec.total_progress(), box_rec.total_progress())
            << label;
        EXPECT_EQ(runs_rec.total_scan_advance(), box_rec.total_scan_advance())
            << label;
        EXPECT_EQ(runs_rec.completions(), box_rec.completions()) << label;
        for (const obs::ExecBranch branch :
             {obs::ExecBranch::kCompleteJump, obs::ExecBranch::kScanAdvance,
              obs::ExecBranch::kBudgeted}) {
          EXPECT_EQ(runs_rec.branch_count(branch),
                    box_rec.branch_count(branch))
              << label;
        }
        for (std::size_t cls = 0; cls < 64; ++cls) {
          const auto& a = runs_rec.size_classes()[cls];
          const auto& b = box_rec.size_classes()[cls];
          EXPECT_EQ(a.boxes, b.boxes) << label << " class " << cls;
          EXPECT_EQ(a.sum_box, b.sum_box) << label << " class " << cls;
          EXPECT_EQ(a.progress, b.progress) << label << " class " << cls;
          EXPECT_EQ(a.scan_advance, b.scan_advance)
              << label << " class " << cls;
          EXPECT_EQ(a.completions, b.completions)
              << label << " class " << cls;
        }
        // Conservation holds through the bulk path too.
        EXPECT_EQ(runs_rec.total_progress() + runs_rec.total_scan_advance(),
                  runs_exec.total_units())
            << label;
      }
    }
  }
}

RunResult run_point_mass(const model::RegularParams& p, std::uint64_t n,
                         profile::BoxSize s, ScanPlacement placement,
                         BoxSemantics semantics, std::uint64_t cap,
                         bool per_box) {
  const profile::PointMass dist(s);
  profile::DistributionSource source(dist, util::Rng(78));
  RunOptions options;
  options.max_boxes = cap;
  options.per_box = per_box;
  return run_regular(p, n, source, placement, /*adversary_seed=*/5, semantics,
                     options);
}

// Constant box runs retire whole subtrees in closed form (subtree probes
// in consume_run). Every RunResult field must still equal the per-box
// reference: box sizes below, at, between and above the powers of b, up
// to the whole problem; caps halfway and two thirds through the run land
// inside a replayed range of the root's children.
TEST(PointMassRuns, BitIdenticalToPerBox) {
  model::RegularParams p;
  p.a = 8, p.b = 4, p.c = 1.0;
  for (const unsigned k : {2u, 5u, 7u}) {
    const std::uint64_t n = util::ipow(p.b, k);
    for (const profile::BoxSize s :
         {profile::BoxSize{1}, profile::BoxSize{3}, profile::BoxSize{4},
          profile::BoxSize{16}, profile::BoxSize{17}, profile::BoxSize{64},
          profile::BoxSize{n}}) {
      // Millions of reference boxes per run; k = 5 covers these sizes.
      if (k == 7 && s < 4) continue;
      for (const ScanPlacement placement :
           {ScanPlacement::kEnd, ScanPlacement::kInterleaved,
            ScanPlacement::kAdversaryMatched}) {
        for (const BoxSemantics semantics :
             {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
          const RunResult full = run_point_mass(
              p, n, s, placement, semantics, UINT64_C(1) << 40, false);
          ASSERT_TRUE(full.completed);
          for (const std::uint64_t cap :
               {full.boxes / 2 + 1, 2 * full.boxes / 3, UINT64_C(1) << 40}) {
            const std::string label =
                "k=" + std::to_string(k) + " s=" + std::to_string(s) +
                " placement=" + std::to_string(static_cast<int>(placement)) +
                " semantics=" + std::to_string(static_cast<int>(semantics)) +
                " cap=" + std::to_string(cap);
            const RunResult ref =
                run_point_mass(p, n, s, placement, semantics, cap, true);
            const RunResult bulk =
                run_point_mass(p, n, s, placement, semantics, cap, false);
            EXPECT_EQ(bulk.completed, ref.completed) << label;
            EXPECT_EQ(bulk.stop, ref.stop) << label;
            EXPECT_EQ(bulk.boxes, ref.boxes) << label;
            EXPECT_EQ(bulk.leaves, ref.leaves) << label;
            EXPECT_EQ(bulk.sum_bounded_potential, ref.sum_bounded_potential)
                << label;
            EXPECT_EQ(bulk.ratio, ref.ratio) << label;
            EXPECT_EQ(bulk.unit_ratio, ref.unit_ratio) << label;
          }
        }
      }
    }
  }
}

std::uint64_t count_events(const obs::MemorySink& sink,
                           const std::string& type) {
  std::uint64_t count = 0;
  for (const obs::Event& event : sink.events()) count += event.type == type;
  return count;
}

// Work bound, not a timeout: a k=10 point-mass trial retires ~3.3 x 10^7
// boxes, but subtree probes leave only the first and last child of each
// frame to literal stepping — about 2^(k-1) literal boxes for (8,4,1)
// and s = 16 (511 here), far under the bound (log2 n)^3 = 8000.
TEST(PointMassRuns, LiteralBoxesStayPolylog) {
  model::RegularParams p;
  p.a = 8, p.b = 4, p.c = 1.0;
  const std::uint64_t n = util::ipow(p.b, 10u);
  const profile::PointMass dist(16);
  profile::DistributionSource source(dist, util::Rng(78));
  obs::MemorySink sink;
  obs::ExecRecorder recorder(&sink, obs::BoxGranularity::kRuns);
  RunOptions options;
  options.recorder = &recorder;
  RegularExecution exec(p, n);
  const RunResult result = run_to_completion(exec, source, options);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(recorder.boxes(), result.boxes);
  EXPECT_GT(result.boxes, UINT64_C(30000000));
  const std::uint64_t log2n = 20;
  EXPECT_LT(count_events(sink, "box"), log2n * log2n * log2n);
}

// Worst-case block replay probes every level's first copy (docs/PERF.md):
// at each node copy 0 certifies copies 1..a-2 and only copy a-1 is
// stepped again, so the boxes stepped literally or through the leaf
// table at most double per level. Built through the production factory,
// so its CyclingSource wrapper must forward the nested peeks too.
TEST(WorstCaseRuns, SteppedBoxesDoublePerLevel) {
  struct Shape {
    std::uint64_t a, b;
    unsigned k;
  };
  for (const Shape shape : {Shape{8, 4, 10}, Shape{4, 2, 12}}) {
    const model::RegularParams p{shape.a, shape.b, 1.0};
    const std::uint64_t n = util::ipow(p.b, shape.k);
    util::Rng rng(1);
    const auto source = core::worst_profile_source(p, n)(rng);
    RegularExecution exec(p, n);
    const RunResult result = run_to_completion(exec, *source, RunOptions{});
    ASSERT_TRUE(result.completed) << p.name();
    const PathCounts& paths = exec.path_counts();
    EXPECT_EQ(paths.total(), result.boxes) << p.name();
    EXPECT_LE(paths.literal + paths.table, 8 * (UINT64_C(1) << shape.k))
        << p.name() << " k=" << shape.k << " literal=" << paths.literal
        << " table=" << paths.table;
  }
}

// Raises the cancel request once it has seen `after` literal boxes.
class CancellingSink final : public obs::TraceSink {
 public:
  CancellingSink(robust::CancelToken* token, std::uint64_t after)
      : token_(token), after_(after) {}
  void write(const obs::Event& event) override {
    if (event.type == "box" && ++boxes_ == after_) {
      token_->request(robust::CancelReason::kDeadline);
    }
  }
  std::uint64_t boxes() const { return boxes_; }

 private:
  robust::CancelToken* token_;
  std::uint64_t after_;
  std::uint64_t boxes_ = 0;
};

// kAdversaryMatched never certifies, so a point-mass trial is one huge
// literal run; consume_run must still poll the token within
// kCancelPollBoxes literal boxes of the request.
TEST(PointMassRuns, CancelInterruptsOneHugeLiteralRun) {
  model::RegularParams p;
  p.a = 8, p.b = 4, p.c = 1.0;
  const std::uint64_t n = util::ipow(p.b, 10u);
  const profile::PointMass dist(16);
  profile::DistributionSource source(dist, util::Rng(78));
  robust::CancelToken token;
  CancellingSink sink(&token, 1000);
  obs::ExecRecorder recorder(&sink, obs::BoxGranularity::kRuns);
  RunOptions options;
  options.recorder = &recorder;
  options.cancel = &token;
  RegularExecution exec(p, n, ScanPlacement::kAdversaryMatched, 5);
  EXPECT_THROW(run_to_completion(exec, source, options),
               robust::CancelledError);
  EXPECT_EQ(sink.boxes(), RegularExecution::kCancelPollBoxes);
  EXPECT_FALSE(exec.done());
}

RunResult run_varied(const model::RegularParams& p, std::uint64_t n,
                     const profile::BoxDistribution& dist,
                     ScanPlacement placement, BoxSemantics semantics,
                     std::uint64_t cap, bool per_box) {
  profile::DistributionSource source(dist, util::Rng(4242));
  RunOptions options;
  options.max_boxes = cap;
  options.per_box = per_box;
  return run_regular(p, n, source, placement, /*adversary_seed=*/0, semantics,
                     options);
}

// Varied box sizes run through the batched driver (docs/PERF.md,
// "Table-driven leaf levels"): batched draws, the leaf transition table,
// in-scan stretches and consume_run for long runs. Every RunResult field
// must equal the per-box reference for every manifest profile with
// varied sizes, both placements the table covers, both semantics, and
// k = 2..8 for (8,4,1) and (7,4,1); caps at a third of the run and at
// 1000 + k boxes land inside a batch of runs.
TEST(VariedRuns, BitIdenticalToPerBox) {
  const std::vector<std::string> tokens = {
      "shuffled", "iid:geometric:6", "iid:uniform-range:1:64",
      "iid:bimodal:2:1024:0.03", "iid:uniform-powers:0:4"};
  for (const model::RegularParams& p :
       {model::RegularParams{8, 4, 1.0}, model::RegularParams{7, 4, 1.0}}) {
    for (unsigned k = 2; k <= 8; ++k) {
      const std::uint64_t n = util::ipow(p.b, k);
      for (const std::string& token : tokens) {
        const auto dist = campaign::make_distribution(
            campaign::parse_profile_token(token, campaign::Workload::kRatio),
            p, n);
        for (const ScanPlacement placement :
             {ScanPlacement::kEnd, ScanPlacement::kInterleaved}) {
          for (const BoxSemantics semantics :
               {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
            // Above k = 6 the per-box reference of every combination would
            // take minutes: one (kEnd, optimistic) run per profile goes to
            // completion there, the rest stop at the small cap.
            const bool full = k <= 6 || (placement == ScanPlacement::kEnd &&
                                         semantics == BoxSemantics::kOptimistic);
            std::vector<std::uint64_t> caps = {1000 + k};
            if (full) {
              const RunResult whole = run_varied(p, n, *dist, placement,
                                                 semantics, UINT64_C(1) << 40,
                                                 false);
              caps.push_back(whole.boxes / 3 + 17);
              caps.push_back(UINT64_C(1) << 40);
            }
            for (const std::uint64_t cap : caps) {
              const std::string label =
                  p.name() + " k=" + std::to_string(k) + " " + token +
                  " placement=" + std::to_string(static_cast<int>(placement)) +
                  " semantics=" + std::to_string(static_cast<int>(semantics)) +
                  " cap=" + std::to_string(cap);
              const RunResult ref =
                  run_varied(p, n, *dist, placement, semantics, cap, true);
              const RunResult bulk =
                  run_varied(p, n, *dist, placement, semantics, cap, false);
              EXPECT_EQ(bulk.completed, ref.completed) << label;
              EXPECT_EQ(bulk.stop, ref.stop) << label;
              EXPECT_EQ(bulk.boxes, ref.boxes) << label;
              EXPECT_EQ(bulk.leaves, ref.leaves) << label;
              EXPECT_EQ(bulk.sum_bounded_potential, ref.sum_bounded_potential)
                  << label;
              EXPECT_EQ(bulk.ratio, ref.ratio) << label;
              EXPECT_EQ(bulk.unit_ratio, ref.unit_ratio) << label;
            }
          }
        }
      }
    }
  }
}

// A cancel requested inside a batch of short runs (here while the leaf
// table steps the boxes): the batched driver polls at run boundaries, so
// it stops within kCancelPollBoxes + kTableRunMax boxes of the request,
// and the per-box driver at the next box.
TEST(VariedRuns, CancelLandsMidBatch) {
  const model::RegularParams p{8, 4, 1.0};
  const std::uint64_t n = util::ipow(p.b, 7u);
  const auto dist = core::census_distribution(p, n);
  for (const bool per_box : {false, true}) {
    profile::DistributionSource source(*dist, util::Rng(7));
    robust::CancelToken token;
    CancellingSink sink(&token, 1000);
    obs::ExecRecorder recorder(&sink, obs::BoxGranularity::kRuns);
    RunOptions options;
    options.recorder = &recorder;
    options.cancel = &token;
    options.per_box = per_box;
    RegularExecution exec(p, n);
    EXPECT_THROW(run_to_completion(exec, source, options),
                 robust::CancelledError);
    EXPECT_FALSE(exec.done());
    if (per_box) {
      EXPECT_EQ(exec.boxes_consumed(), 1000u);
    } else {
      EXPECT_GT(exec.path_counts().table, 0u);
      EXPECT_GE(exec.boxes_consumed(), 1000u);
      EXPECT_LE(exec.boxes_consumed(), 1000 + RegularExecution::kCancelPollBoxes +
                                           RegularExecution::kTableRunMax);
    }
  }
}

// Fast-path counters (docs/PERF.md): each box a run retires is counted on
// exactly one path, so the counts sum to RunResult::boxes — through the
// leaf table (shuffled), block replay (worst) and subtree replay
// (iid:point) — and a shuffled census retires most of its boxes through
// the table. The per-box reference steps every box literally.
TEST(PathCounts, SumToBoxesOnEveryPath) {
  const model::RegularParams p{8, 4, 1.0};
  const std::uint64_t n = util::ipow(p.b, 6u);
  const auto census = core::census_distribution(p, n);
  const profile::PointMass point(16);
  for (const BoxSemantics semantics :
       {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
    for (const bool per_box : {false, true}) {
      RunOptions options;
      options.per_box = per_box;
      const std::string label =
          "semantics=" + std::to_string(static_cast<int>(semantics)) +
          " per_box=" + std::to_string(per_box);

      profile::DistributionSource shuffled(*census, util::Rng(11));
      RegularExecution shuffled_exec(p, n, ScanPlacement::kEnd, 0, semantics);
      const RunResult shuffled_run =
          run_to_completion(shuffled_exec, shuffled, options);
      const PathCounts& by_table = shuffled_exec.path_counts();
      EXPECT_EQ(by_table.total(), shuffled_run.boxes) << label;

      profile::CyclingSource worst([p, n] {
        return std::make_unique<profile::WorstCaseSource>(p.a, p.b, n);
      });
      RegularExecution worst_exec(p, n, ScanPlacement::kEnd, 0, semantics);
      const RunResult worst_run = run_to_completion(worst_exec, worst, options);
      const PathCounts& by_block = worst_exec.path_counts();
      EXPECT_EQ(by_block.total(), worst_run.boxes) << label;

      profile::DistributionSource points(point, util::Rng(12));
      RegularExecution point_exec(p, n, ScanPlacement::kEnd, 0, semantics);
      const RunResult point_run = run_to_completion(point_exec, points, options);
      const PathCounts& by_subtree = point_exec.path_counts();
      EXPECT_EQ(by_subtree.total(), point_run.boxes) << label;

      if (per_box) {
        EXPECT_EQ(by_table.literal, shuffled_run.boxes) << label;
        EXPECT_EQ(by_block.literal, worst_run.boxes) << label;
        EXPECT_EQ(by_subtree.literal, point_run.boxes) << label;
        continue;
      }
      EXPECT_GT(by_table.table, shuffled_run.boxes / 2) << label;
      EXPECT_GT(by_block.block_replay, worst_run.boxes / 2) << label;
      EXPECT_GT(by_subtree.subtree_replay, point_run.boxes / 2) << label;
    }
  }
}

// consume_runs' closed forms (runs of unit boxes inside the leaf table,
// runs inside a scan chunk) retire each box on the path it took when
// stepped one at a time, so `cadapt trace --runs` keeps reporting the
// same split: the path counts of one (8,4,1) k = 7 trial of `shuffled`
// and of `iid:uniform-range:1:64` (seed 1) are pinned.
TEST(PathCounts, PinnedForShuffledAndUniformRange) {
  const model::RegularParams p{8, 4, 1.0};
  const std::uint64_t n = util::ipow(p.b, 7u);
  struct Pin {
    std::string token;
    std::uint64_t boxes, literal, table, scan_stretch, subtree_replay;
  };
  for (const Pin& pin : {Pin{"shuffled", 395952, 8953, 323774, 62771, 454},
                         Pin{"iid:uniform-range:1:64", 57643, 34894, 9589,
                             13160, 0}}) {
    const auto dist = campaign::make_distribution(
        campaign::parse_profile_token(pin.token, campaign::Workload::kRatio),
        p, n);
    profile::DistributionSource source(*dist, util::Rng(1));
    RegularExecution exec(p, n);
    const RunResult run = run_to_completion(exec, source, RunOptions{});
    const PathCounts& paths = exec.path_counts();
    EXPECT_EQ(run.boxes, pin.boxes) << pin.token;
    EXPECT_EQ(paths.literal, pin.literal) << pin.token;
    EXPECT_EQ(paths.table, pin.table) << pin.token;
    EXPECT_EQ(paths.scan_stretch, pin.scan_stretch) << pin.token;
    EXPECT_EQ(paths.subtree_replay, pin.subtree_replay) << pin.token;
    EXPECT_EQ(paths.block_replay, 0u) << pin.token;
  }
}

// StopReason must say WHY the run ended, identically in both drivers.
TEST(StopReason, DistinguishesCompletionExhaustionAndCap) {
  model::RegularParams p;
  p.a = 8, p.b = 4, p.c = 1.0;
  const std::uint64_t n = util::ipow(p.b, 3u);
  for (const bool per_box : {false, true}) {
    RunOptions options;
    options.per_box = per_box;

    profile::WorstCaseSource full(p.a, p.b, n);
    RegularExecution exec_full(p, n);
    const RunResult done = run_to_completion(exec_full, full, options);
    EXPECT_TRUE(done.completed);
    EXPECT_EQ(done.stop, StopReason::kCompleted);

    profile::VectorSource short_source({1, 1, 1});
    RegularExecution exec_short(p, n);
    const RunResult dry = run_to_completion(exec_short, short_source, options);
    EXPECT_FALSE(dry.completed);
    EXPECT_EQ(dry.stop, StopReason::kSourceExhausted);
    EXPECT_EQ(dry.boxes, 3u);

    profile::WorstCaseSource capped_source(p.a, p.b, n);
    RunOptions capped_options = options;
    capped_options.max_boxes = 10;
    RegularExecution exec_capped(p, n);
    const RunResult capped =
        run_to_completion(exec_capped, capped_source, capped_options);
    EXPECT_FALSE(capped.completed);
    EXPECT_EQ(capped.stop, StopReason::kBoxCapHit);
    EXPECT_EQ(capped.boxes, 10u);
  }
}

// The No-Catch-up Lemma invariant behind run-coalescing: however a box
// stream is chopped into runs, the execution position (units_done) agrees
// with per-box consumption at EVERY run boundary — not just at the end.
TEST(RunCoalescing, UnitsDoneAgreesAtEveryRunBoundary) {
  for (const model::RegularParams& p : shapes()) {
    const std::uint64_t n = util::ipow(p.b, p.b == 2 ? 6u : 3u);
    for (const ScanPlacement placement :
         {ScanPlacement::kEnd, ScanPlacement::kInterleaved}) {
      for (const BoxSemantics semantics :
           {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
        const std::vector<profile::BoxSize> boxes = worst_boxes(p, n);
        FragmentingSource runs(boxes, 4242);
        RegularExecution by_runs(p, n, placement, 0, semantics);
        RegularExecution by_boxes(p, n, placement, 0, semantics);
        std::size_t consumed = 0;
        while (!by_runs.done()) {
          const auto run = runs.next_run();
          if (!run) break;
          const RunReport report = by_runs.consume_run(run->size, run->count);
          std::uint64_t progress = 0;
          const std::uint64_t used = by_runs.boxes_consumed() - consumed;
          for (std::uint64_t i = 0; i < used; ++i) {
            progress += by_boxes.consume_box(run->size).progress;
          }
          consumed += used;
          EXPECT_EQ(report.progress, progress);
          EXPECT_EQ(by_runs.units_done(), by_boxes.units_done());
          EXPECT_EQ(by_runs.leaves_done(), by_boxes.leaves_done());
          EXPECT_EQ(by_runs.boxes_consumed(), by_boxes.boxes_consumed());
          EXPECT_EQ(by_runs.done(), by_boxes.done());
        }
      }
    }
  }
}

// kInterleaved x kBudgeted against the brute-force oracle — the
// combination the satellite issue singled out as under-tested.
TEST(InterleavedBudgeted, MatchesReferenceOracleOnRandomRuns) {
  model::RegularParams p;
  p.a = 4, p.b = 2, p.c = 1.0;
  const std::uint64_t n = util::ipow(p.b, 5u);
  util::Rng rng(31337);
  for (int trial = 0; trial < 8; ++trial) {
    RegularExecution exec(p, n, ScanPlacement::kInterleaved, 0,
                          BoxSemantics::kBudgeted);
    ReferenceExecution oracle(p, n, ScanPlacement::kInterleaved, 0,
                              BoxSemantics::kBudgeted);
    while (!exec.done()) {
      const profile::BoxSize size = 1 + rng.below(n);
      const std::uint64_t count = 1 + rng.below(8);
      const RunReport got = exec.consume_run(size, count);
      const RunReport want = oracle.consume_run(size, count);
      EXPECT_EQ(got.progress, want.progress);
      EXPECT_EQ(got.completed_problem, want.completed_problem);
      EXPECT_EQ(exec.units_done(), oracle.units_done());
      EXPECT_EQ(exec.leaves_done(), oracle.leaves_done());
      EXPECT_EQ(exec.done(), oracle.done());
    }
    EXPECT_TRUE(oracle.done());
  }
}

// Stream identity at the source layer: expanding the next_run() stream of
// a twin instance reproduces the next() stream box for box.
TEST(SourceRuns, RunExpansionReproducesNextStream) {
  model::RegularParams p;
  p.a = 8, p.b = 4, p.c = 1.0;
  const std::uint64_t n = util::ipow(p.b, 3u);
  for (const SourceCase& source_case : source_cases(p, n)) {
    auto run_side = source_case.make();
    auto box_side = source_case.make();
    std::size_t compared = 0;
    while (compared < 5000) {
      const auto run = run_side->next_run();
      if (!run) {
        EXPECT_EQ(box_side->next(), std::nullopt) << source_case.name;
        break;
      }
      ASSERT_GE(run->count, 1u) << source_case.name;
      // A point-mass run spans any box cap, so expand only up to the
      // comparison horizon.
      for (std::uint64_t i = 0; i < run->count && compared < 5000; ++i) {
        const auto box = box_side->next();
        ASSERT_TRUE(box.has_value()) << source_case.name;
        EXPECT_EQ(*box, run->size)
            << source_case.name << " at box " << compared;
        ++compared;
      }
    }
  }
}

// The SubtreeBlock contract on the worst-case source: after peeking a
// block and consuming exactly one repeat, skip_repeats(m) must leave the
// stream exactly where a per-box twin lands after (m + 1) repeats — and
// the skipped boxes must really be identical copies of the probed repeat.
TEST(SourceBlocks, WorstCaseSkipRepeatsMatchesPlainStream) {
  profile::WorstCaseSource blocked(8, 4, 256);
  profile::WorstCaseSource plain(8, 4, 256);

  // Advance both past the first leaf run so the block peek lands on an
  // interior repeat boundary too; then probe whatever block comes next.
  bool probed = false;
  std::size_t guard = 0;
  while (!probed && guard++ < 10000) {
    const auto block = blocked.peek_block();
    if (block && block->repeats >= 2 && block->boxes_per_repeat >= 2) {
      // Consume one repeat from the blocked side, recording it.
      std::vector<profile::BoxSize> repeat;
      while (repeat.size() < block->boxes_per_repeat) {
        const auto run = blocked.next_run();
        ASSERT_TRUE(run.has_value());
        for (std::uint64_t i = 0; i < run->count; ++i) {
          repeat.push_back(run->size);
        }
      }
      ASSERT_EQ(repeat.size(), block->boxes_per_repeat);
      const std::uint64_t m = block->repeats - 1;
      blocked.skip_repeats(m);
      // The plain twin must see: (m + 1) identical copies of `repeat`...
      for (std::uint64_t r = 0; r <= m; ++r) {
        for (std::size_t i = 0; i < repeat.size(); ++i) {
          const auto box = plain.next();
          ASSERT_TRUE(box.has_value());
          EXPECT_EQ(*box, repeat[i]) << "repeat " << r << " box " << i;
        }
      }
      probed = true;
    } else {
      // No block here: both sides advance one box in lockstep.
      const auto box = blocked.next();
      const auto twin = plain.next();
      ASSERT_EQ(box.has_value(), twin.has_value());
      if (!box) break;
      EXPECT_EQ(*box, *twin);
    }
  }
  ASSERT_TRUE(probed) << "worst-case source never announced a block";

  // ...and from here on the streams must agree to the end.
  while (true) {
    const auto box = blocked.next();
    const auto twin = plain.next();
    ASSERT_EQ(box.has_value(), twin.has_value());
    if (!box) break;
    EXPECT_EQ(*box, *twin);
  }
}

// Consumes the nested blocks announced at the current position the way
// the bulk driver does: the first repeat of the innermost block, then
// skip_repeats for the rest of it, then the remainder of the next outer
// block's first repeat and its skip, out to depth 0. Returns the boxes
// delivered, each skip expanded into copies of the repeat just consumed.
// By runs, only blocks of two or more boxes are used (as in the driver),
// and no run may straddle the end of a first repeat.
std::vector<profile::BoxSize> consume_nested_blocks(profile::BoxSource& source,
                                                    bool by_runs) {
  std::vector<profile::SubtreeBlock> blocks;
  while (const auto block = source.peek_block_at(blocks.size())) {
    blocks.push_back(*block);
  }
  std::vector<profile::BoxSize> out;
  for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
    if (by_runs && it->boxes_per_repeat < 2) continue;
    while (out.size() < it->boxes_per_repeat) {
      std::optional<profile::BoxRun> run;
      if (by_runs) {
        run = source.next_run();
      } else if (const auto box = source.next()) {
        run = profile::BoxRun{*box, 1};
      }
      EXPECT_TRUE(run.has_value());
      if (!run) return out;
      out.insert(out.end(), run->count, run->size);
    }
    EXPECT_EQ(out.size(), it->boxes_per_repeat) << "a run straddled a repeat";
    const auto cur = source.peek_block();
    EXPECT_TRUE(cur.has_value());
    if (!cur) return out;
    EXPECT_EQ(cur->boxes_per_repeat, it->boxes_per_repeat);
    EXPECT_EQ(cur->repeats, it->repeats - 1);
    source.skip_repeats(cur->repeats);
    const std::vector<profile::BoxSize> repeat(out);
    for (std::uint64_t r = 0; r < cur->repeats; ++r) {
      out.insert(out.end(), repeat.begin(), repeat.end());
    }
  }
  return out;
}

// peek_block_at on the worst-case source: at the root of M(4^5) every
// depth 0..4 announces 8 copies of M(4^(4-d)), directly and through the
// CyclingSource and ConcatSource forwarders; a depth past the leaves
// announces nothing. Retiring the nested blocks innermost first leaves
// the stream exactly where a per-box twin is, to its end.
TEST(SourceBlocks, NestedBlocksAtTheRootReplayThePlainStream) {
  const std::uint64_t a = 8, b = 4, n = util::ipow(b, 5u);
  const auto worst = [a, b, n] {
    return std::make_unique<profile::WorstCaseSource>(a, b, n);
  };
  const std::vector<profile::BoxSize> tail = {3, 3, 5};
  std::vector<profile::BoxSize> plain;
  {
    profile::WorstCaseSource twin(a, b, n);
    plain = profile::materialize(twin);
  }
  std::vector<profile::BoxSize> plain_concat = plain;
  plain_concat.insert(plain_concat.end(), tail.begin(), tail.end());
  const std::vector<SourceCase> cases = {
      {"worst", worst},
      {"cycling", [worst] {
         return std::make_unique<profile::CyclingSource>(worst);
       }},
      {"concat", [worst, tail] {
         return std::make_unique<profile::ConcatSource>(
             worst(), std::make_unique<profile::VectorSource>(tail));
       }},
  };
  for (const SourceCase& source_case : cases) {
    const bool cycling = source_case.name == "cycling";
    const std::vector<profile::BoxSize>& want =
        source_case.name == "concat" ? plain_concat : plain;
    for (const bool by_runs : {false, true}) {
      const std::string label =
          source_case.name + (by_runs ? " by runs" : " by boxes");
      auto source = source_case.make();
      for (unsigned depth = 0; depth < 5; ++depth) {
        const auto block = source->peek_block_at(depth);
        ASSERT_TRUE(block.has_value()) << label << " depth " << depth;
        EXPECT_EQ(block->boxes_per_repeat,
                  profile::worst_case_box_count(a, b, util::ipow(b, 4 - depth)))
            << label << " depth " << depth;
        EXPECT_EQ(block->repeats, a) << label << " depth " << depth;
      }
      EXPECT_FALSE(source->peek_block_at(5).has_value()) << label;
      EXPECT_FALSE(source->peek_block_at(64).has_value()) << label;

      std::vector<profile::BoxSize> got =
          consume_nested_blocks(*source, by_runs);
      // The root's a copies are retired; its own box is all that is left
      // of M(n).
      EXPECT_EQ(got.size(), plain.size() - 1) << label;
      while (got.size() < want.size()) {
        const auto box = source->next();
        if (!box) break;
        got.push_back(*box);
      }
      EXPECT_EQ(got, want) << label;
      if (cycling) {
        EXPECT_EQ(source->next(), plain.front()) << label;
      } else {
        EXPECT_EQ(source->next(), std::nullopt) << label;
      }
    }
  }
}

// Wrappers that count or cap draws must not forward blocks: a skipped
// repeat would bypass their accounting.
TEST(SourceBlocks, CountingWrappersAnnounceNoBlock) {
  const auto worst = [] {
    return std::make_unique<profile::WorstCaseSource>(8, 4, 1024);
  };
  robust::FaultInjector injector(nullptr, 0, 0);
  std::vector<std::unique_ptr<profile::BoxSource>> wrapped;
  wrapped.push_back(std::make_unique<profile::TakeSource>(worst(), 100));
  wrapped.push_back(
      std::make_unique<robust::FaultyBoxSource>(worst(), &injector));
  for (const auto& source : wrapped) {
    EXPECT_FALSE(source->provides_blocks());
    EXPECT_FALSE(source->peek_block().has_value());
    EXPECT_FALSE(source->peek_block_at(0).has_value());
    EXPECT_FALSE(source->peek_block_at(1).has_value());
  }
}

// RunCoalescingSource is the default adapter for sources with no native
// runs: its expansion must also be the identity.
TEST(SourceRuns, CoalescingAdapterPreservesStream) {
  const std::vector<profile::BoxSize> boxes = {4, 4, 4, 1, 1, 16, 16, 16, 16,
                                               2, 4, 4, 1};
  profile::RunCoalescingSource coalesced(
      std::make_unique<profile::VectorSource>(boxes));
  std::vector<profile::BoxSize> expanded;
  while (const auto run = coalesced.next_run()) {
    for (std::uint64_t i = 0; i < run->count; ++i) {
      expanded.push_back(run->size);
    }
  }
  EXPECT_EQ(expanded, boxes);
}

}  // namespace
}  // namespace cadapt::engine
