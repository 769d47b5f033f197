// campaign/sweep: the orchestrator's headline guarantees, exercised on a
// real (small) campaign. The report must be bit-identical across thread
// pool sizes, across a sharded split merged back together, and across a
// kill + resume; fault injection must be contained per trial; budgets
// must truncate explicitly. Runs under TSAN in CI — the workers claiming
// one cell's trials, the budget tracker, and the checkpoint sink are all
// shared state.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/manifest.hpp"
#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/sweep.hpp"
#include "obs/sink.hpp"
#include "robust/cancel.hpp"
#include "robust/fault.hpp"
#include "util/check.hpp"

namespace {

using namespace cadapt;
using campaign::Plan;
using campaign::Report;
using campaign::SweepOptions;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

Plan small_plan() {
  std::istringstream is(
      "name = runner_demo\n"
      "algos = 4:2:1\n"
      "profiles = shuffled iid:geometric:3\n"
      "k = 1..3\n"
      "trials = 6\n"
      "seed = 11\n");
  return campaign::expand_plan(campaign::parse_manifest(is));
}

SweepOptions untimed(std::uint64_t jobs) {
  SweepOptions options;
  options.jobs = jobs;
  options.timing = false;
  return options;
}

// Reports are plain data; with timing off the whole struct must match.
void expect_same_report(const Report& a, const Report& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.config_hash, b.config_hash);
  EXPECT_EQ(a.cells_total, b.cells_total);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.wall_ms, b.wall_ms);
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.fits, b.fits);
}

TEST(SweepRunner, ReportIsBitIdenticalAcrossJobCounts) {
  const Plan plan = small_plan();
  const Report r1 = campaign::run_sweep(plan, untimed(1));
  const Report r2 = campaign::run_sweep(plan, untimed(2));
  const Report r8 = campaign::run_sweep(plan, untimed(8));
  ASSERT_EQ(r1.cells.size(), plan.cells.size());
  expect_same_report(r1, r2);
  expect_same_report(r1, r8);
  // The run did real work: every trial of every cell completed.
  for (const campaign::CellResult& cell : r1.cells) {
    EXPECT_EQ(cell.completed, cell.trials);
    EXPECT_EQ(cell.samples.size(), cell.trials);
    EXPECT_GT(cell.mean, 0.0);
  }
  EXPECT_FALSE(r1.fits.empty());
}

TEST(SweepRunner, ShardedRunMergesToTheFullReport) {
  const Plan plan = small_plan();
  const Report full = campaign::run_sweep(plan, untimed(2));

  std::vector<Report> parts;
  for (std::uint64_t s = 0; s < 3; ++s) {
    SweepOptions options = untimed(2);
    options.shards = 3;
    options.shard_index = s;
    parts.push_back(campaign::run_sweep(plan, options));
    EXPECT_EQ(parts.back().shards, 3u);
    EXPECT_EQ(parts.back().shard_index, s);
    // Partial coverage: no fits on a shard report.
    EXPECT_TRUE(parts.back().fits.empty());
  }
  const Report merged = campaign::merge_reports(parts);
  expect_same_report(full, merged);
}

TEST(SweepRunner, ResumeAfterTornCheckpointIsBitIdentical) {
  const Plan plan = small_plan();
  const Report full = campaign::run_sweep(plan, untimed(2));

  // Produce a complete checkpoint, then tear it down to the header plus
  // two finished cells and a torn partial line — the wound a kill leaves.
  const std::string full_ckpt = temp_path("sweep_full.ckpt");
  {
    SweepOptions options = untimed(2);
    options.checkpoint_path = full_ckpt;
    campaign::run_sweep(plan, options);
  }
  std::vector<std::string> lines;
  {
    std::ifstream in(full_ckpt);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 1 + plan.cells.size());
  const std::string torn_ckpt = temp_path("sweep_torn.ckpt");
  {
    std::ofstream out(torn_ckpt, std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n" << lines[2] << "\n";
    out << lines[3].substr(0, lines[3].size() / 2);  // no newline: torn
  }

  SweepOptions options = untimed(2);
  options.checkpoint_path = torn_ckpt;
  options.resume = true;
  const Report resumed = campaign::run_sweep(plan, options);
  expect_same_report(full, resumed);

  // A second resume finds every cell cached and still reproduces the
  // report without running anything.
  const Report cached = campaign::run_sweep(plan, options);
  expect_same_report(full, cached);
}

TEST(SweepRunner, ResumeRefusesForeignCheckpoint) {
  const Plan plan = small_plan();
  std::istringstream is(
      "name = runner_demo\nalgos = 4:2:1\nprofiles = shuffled "
      "iid:geometric:3\nk = 1..3\ntrials = 6\nseed = 12\n");
  const Plan other = campaign::expand_plan(campaign::parse_manifest(is));
  ASSERT_NE(plan.config_hash, other.config_hash);

  const std::string ckpt = temp_path("sweep_foreign.ckpt");
  {
    SweepOptions options = untimed(1);
    options.checkpoint_path = ckpt;
    campaign::run_sweep(other, options);
  }
  SweepOptions options = untimed(1);
  options.checkpoint_path = ckpt;
  options.resume = true;
  EXPECT_THROW(campaign::run_sweep(plan, options), util::ParseError);
}

TEST(SweepRunner, InjectedFaultsAreContainedPerTrial) {
  const Plan plan = small_plan();
  const robust::FaultPlan faults =
      robust::FaultPlan::parse_spec("trial_body=1", 77);
  obs::MemorySink trace;
  SweepOptions options = untimed(4);
  options.faults = &faults;
  options.trace = &trace;
  const Report report = campaign::run_sweep(plan, options);  // no throw
  std::uint64_t failed = 0;
  for (const campaign::CellResult& cell : report.cells) {
    EXPECT_EQ(cell.failed, cell.trials);  // every trial contained
    EXPECT_EQ(cell.completed, 0u);
    EXPECT_TRUE(cell.samples.empty());
    failed += cell.failed;
  }
  // No complete series → no fits.
  EXPECT_TRUE(report.fits.empty());
  // Telemetry saw one error event per contained trial plus a cell event
  // per cell.
  std::uint64_t error_events = 0, cell_events = 0;
  for (const obs::Event& event : trace.events()) {
    if (event.type == "sweep_trial_error") ++error_events;
    if (event.type == "sweep_cell") ++cell_events;
  }
  EXPECT_EQ(error_events, failed);
  EXPECT_EQ(cell_events, report.cells.size());

  // Retries burn attempts but a rate-1 plan still fails the last one.
  SweepOptions retrying = untimed(2);
  retrying.faults = &faults;
  retrying.max_attempts = 2;
  const Report retried = campaign::run_sweep(plan, retrying);
  for (const campaign::CellResult& cell : retried.cells) {
    EXPECT_EQ(cell.failed, cell.trials);
  }
}

TEST(SweepRunner, PartialFaultRateIsDeterministicAcrossJobs) {
  const Plan plan = small_plan();
  const robust::FaultPlan faults =
      robust::FaultPlan::parse_spec("box_draw=0.05", 5);
  SweepOptions a = untimed(1);
  a.faults = &faults;
  SweepOptions b = untimed(8);
  b.faults = &faults;
  const Report ra = campaign::run_sweep(plan, a);
  const Report rb = campaign::run_sweep(plan, b);
  expect_same_report(ra, rb);
  std::uint64_t failed = 0;
  for (const campaign::CellResult& cell : ra.cells) failed += cell.failed;
  EXPECT_GT(failed, 0u);  // the rate actually bit somewhere
}

TEST(SweepRunner, BoxBudgetTruncatesExplicitly) {
  const Plan plan = small_plan();
  SweepOptions options = untimed(1);
  options.budget.max_total_boxes = 1;  // trips after the first cell
  const Report report = campaign::run_sweep(plan, options);
  EXPECT_TRUE(report.truncated);
  EXPECT_GE(report.cells.size(), 1u);
  EXPECT_LT(report.cells.size(), plan.cells.size());
  EXPECT_EQ(report.cells_total, plan.cells.size());
  EXPECT_TRUE(report.fits.empty());  // partial coverage
}

TEST(SweepRunner, SortWorkloadRunsAllThreeSorts) {
  std::istringstream is(
      "name = sort_demo\n"
      "workload = sort\n"
      "sorts = adaptive funnel merge2\n"
      "profiles = const:16\n"
      "keys = 256\n"
      "block = 4\n"
      "trials = 2\n"
      "seed = 3\n");
  const Plan plan = campaign::expand_plan(campaign::parse_manifest(is));
  const Report r1 = campaign::run_sweep(plan, untimed(1));
  const Report r4 = campaign::run_sweep(plan, untimed(4));
  expect_same_report(r1, r4);
  ASSERT_EQ(r1.cells.size(), 3u);
  for (const campaign::CellResult& cell : r1.cells) {
    EXPECT_EQ(cell.completed, 2u);  // every sort verified sorted output
    EXPECT_GT(cell.mean, 0.0);      // total I/Os
    EXPECT_TRUE(cell.algo.empty());
    EXPECT_FALSE(cell.sort.empty());
  }
  // Sort campaigns have no ratio series: no fits.
  EXPECT_TRUE(r1.fits.empty());
}

// ---- trial-grain scheduling: one heavy cell split across the workers ----

/// The bytes the report file would hold.
std::string report_bytes(const Report& report) {
  std::ostringstream os;
  campaign::write_report(os, report);
  return os.str();
}

/// `plan` with its last cell given `trials` trials: far more than the
/// rest, so at every --jobs above 1 the idle workers end up helping it.
Plan with_heavy_last_cell(Plan plan, std::uint64_t trials) {
  plan.cells.back().trials = trials;
  return plan;
}

/// Ratio cells k = 1..5 of a per-box source; the k = 5 cell is the heavy
/// one (about 0.6 ms a trial on one core).
Plan heavy_ratio_plan() {
  std::istringstream is(
      "name = heavy_ratio\n"
      "algos = 8:4:1\n"
      "profiles = shuffled\n"
      "k = 1..5\n"
      "trials = 4\n"
      "seed = 21\n");
  return with_heavy_last_cell(
      campaign::expand_plan(campaign::parse_manifest(is)), 128);
}

constexpr std::uint64_t kJobCounts[] = {1, 2, 3, 4, 8};

TEST(SweepRunner, HeavyCellReportIsByteIdenticalAcrossJobCounts) {
  const Plan plan = heavy_ratio_plan();
  const std::string reference = report_bytes(campaign::run_sweep(
      plan, untimed(1)));
  for (const std::uint64_t jobs : kJobCounts) {
    const Report report = campaign::run_sweep(plan, untimed(jobs));
    ASSERT_EQ(report.cells.size(), plan.cells.size()) << "jobs=" << jobs;
    EXPECT_EQ(report.cells.back().completed, 128u) << "jobs=" << jobs;
    EXPECT_EQ(report_bytes(report), reference) << "jobs=" << jobs;
  }
}

TEST(SweepRunner, TraceReplayHelpersShareOneCaptureByteIdentically) {
  // Every trial of a replay cell replays the block-run trace its first
  // trial captured (std::call_once); helpers that arrive mid-capture wait
  // for it and replay the same trace.
  std::istringstream is(
      "name = heavy_replay\n"
      "workload = sort\n"
      "sorts = funnel merge2\n"
      "profiles = const:16 uniform:4:64\n"
      "keys = 2048\n"
      "block = 4\n"
      "trace_replay = 1\n"
      "trials = 2\n"
      "seed = 5\n");
  const Plan plan = with_heavy_last_cell(
      campaign::expand_plan(campaign::parse_manifest(is)), 48);
  const std::string reference = report_bytes(campaign::run_sweep(
      plan, untimed(1)));
  for (const std::uint64_t jobs : kJobCounts) {
    const Report report = campaign::run_sweep(plan, untimed(jobs));
    ASSERT_EQ(report.cells.size(), plan.cells.size()) << "jobs=" << jobs;
    EXPECT_EQ(report.cells.back().completed, 48u) << "jobs=" << jobs;
    EXPECT_EQ(report_bytes(report), reference) << "jobs=" << jobs;
  }
}

TEST(SweepRunner, FaultsLandOnTheSameTrialsAtEveryJobCount) {
  const Plan plan = heavy_ratio_plan();
  const robust::FaultPlan faults =
      robust::FaultPlan::parse_spec("trial_body=0.3", 13);
  using Failure = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                             std::uint64_t>;  // cell, trial, seed, attempts
  std::string reference;
  std::vector<Failure> reference_failures;
  for (const std::uint64_t jobs : kJobCounts) {
    obs::MemorySink trace;
    SweepOptions options = untimed(jobs);
    options.faults = &faults;
    options.max_attempts = 2;
    options.trace = &trace;
    const std::string bytes = report_bytes(campaign::run_sweep(plan,
                                                               options));
    std::vector<Failure> failures;
    for (const obs::Event& event : trace.events()) {
      if (event.type != "sweep_trial_error") continue;
      failures.emplace_back(event.u64_or("cell", 0), event.u64_or("trial", 0),
                            event.u64_or("seed", 0),
                            event.u64_or("attempts", 0));
    }
    // Error events come in cell-completion order; compare them as a set.
    std::sort(failures.begin(), failures.end());
    if (jobs == 1) {
      reference = bytes;
      reference_failures = failures;
      // Both attempts failed on every reported trial; at 0.3 some do.
      ASSERT_FALSE(failures.empty());
      for (const Failure& failure : failures) {
        EXPECT_EQ(std::get<3>(failure), 2u);
      }
      continue;
    }
    EXPECT_EQ(bytes, reference) << "jobs=" << jobs;
    EXPECT_EQ(failures, reference_failures) << "jobs=" << jobs;
  }
}

/// Requests cancellation once `light` sweep_cell events have arrived —
/// every cell but the heavy one — after giving the idle workers a moment
/// to join the heavy cell.
class CancelAfterLightCells final : public obs::TraceSink {
 public:
  CancelAfterLightCells(robust::CancelToken& token, std::uint64_t light)
      : token_(token), light_(light) {}
  void write(const obs::Event& event) override {
    if (event.type != "sweep_cell" || ++cells_ != light_) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token_.request(robust::CancelReason::kExternal);
  }

 private:
  robust::CancelToken& token_;
  std::uint64_t light_;
  std::uint64_t cells_ = 0;
};

TEST(SweepRunner, CancelMidHelpedCellDiscardsItWholeAndResumes) {
  const Plan plan = heavy_ratio_plan();
  const std::string uninterrupted =
      report_bytes(campaign::run_sweep(plan, untimed(4)));

  const std::string ckpt = temp_path("sweep_cancel_helped.ckpt");
  robust::CancelToken token;
  CancelAfterLightCells sink(token, plan.cells.size() - 1);
  SweepOptions options = untimed(4);
  options.checkpoint_path = ckpt;
  options.cancel = &token;
  options.trace = &sink;
  const Report cut = campaign::run_sweep(plan, options);
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.truncate_reason, robust::CancelReason::kExternal);
  // The heavy cell was in flight: none of its trials reach the report.
  ASSERT_EQ(cut.cells.size(), plan.cells.size() - 1);
  for (const campaign::CellResult& cell : cut.cells) {
    EXPECT_NE(cell.index, plan.cells.back().index);
  }

  SweepOptions resume = untimed(4);
  resume.checkpoint_path = ckpt;
  resume.resume = true;
  EXPECT_EQ(report_bytes(campaign::run_sweep(plan, resume)), uninterrupted);
}

}  // namespace
