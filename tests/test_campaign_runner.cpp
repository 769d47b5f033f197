// campaign/sweep: the orchestrator's headline guarantees, exercised on a
// real (small) campaign. The report must be bit-identical across thread
// pool sizes, across a sharded split merged back together, and across a
// kill + resume; fault injection must be contained per trial; budgets
// must truncate explicitly. Runs under TSAN in CI — the workers claiming
// one cell's trials, the budget tracker, and the checkpoint sink are all
// shared state.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/cell_runner.hpp"
#include "campaign/manifest.hpp"
#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/sweep.hpp"
#include "campaign/trial_scheduler.hpp"
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

TEST(SweepRunner, ResumeKeepsACellWhoseNewlineWasTorn) {
  // A final sweep_cell line that parses but lost its '\n' (a short write
  // stopping one byte early) is torn: the resume re-runs the cell and
  // commits it again, so the checkpoint keeps every cell the report used.
  std::istringstream is(
      "name = torn_newline\nalgos = 4:2:1\nprofiles = shuffled\n"
      "k = 1..3\ntrials = 4\nseed = 5\n");
  const Plan plan = campaign::expand_plan(campaign::parse_manifest(is));
  const Report full = campaign::run_sweep(plan, untimed(1));
  const std::string ckpt = temp_path("sweep_torn_newline.ckpt");
  SweepOptions options = untimed(1);
  options.checkpoint_path = ckpt;
  campaign::run_sweep(plan, options);
  std::string text;
  {
    std::ifstream in(ckpt, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(text.back(), '\n');
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out << text.substr(0, text.size() - 1);
  }

  options.resume = true;
  expect_same_report(full, campaign::run_sweep(plan, options));
  std::ifstream in(ckpt);
  std::string line;
  std::size_t cells = 0;
  while (std::getline(in, line)) {
    cells += line.find("\"type\":\"sweep_cell\"") != std::string::npos;
  }
  EXPECT_EQ(cells, plan.cells.size());
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
  // trial captured (once, under a mutex); helpers that arrive
  // mid-capture wait for it and replay the same trace.
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

// Trace capture polls the cell's cancel token. The runner is called
// directly, past the attempt-start poll, and the box is larger than the
// whole sort's miss count, so the replay walk never reaches a box
// boundary: only the capture can observe the request.
TEST(SweepRunner, TraceCaptureStopsOnCancellation) {
  campaign::Cell cell;
  cell.sort = "funnel";
  cell.profile = campaign::parse_profile_token("const:1048576",
                                               campaign::Workload::kSort);
  cell.seed = 9;
  campaign::CellRunOptions options;
  options.keys = 16384;
  options.block = 4;
  options.timing = false;
  options.capture_trace = true;

  robust::FaultInjector injector(nullptr, 0, 0);
  const engine::RunResult plain =
      campaign::make_cell_runner(cell, options)(1, injector);
  ASSERT_TRUE(plain.completed);
  ASSERT_EQ(plain.boxes, 1u);

  robust::CancelToken token;
  options.cancel = &token;
  const engine::RunResult idle =
      campaign::make_cell_runner(cell, options)(1, injector);
  EXPECT_TRUE(idle.completed);
  EXPECT_EQ(idle.ratio, plain.ratio);

  token.request(robust::CancelReason::kDeadline);
  const engine::RobustTrialRunner runner =
      campaign::make_cell_runner(cell, options);
  for (int trial = 0; trial < 2; ++trial) {  // no half-built trace is kept
    try {
      runner(1, injector);
      FAIL() << "capture ignored a requested cancel (trial " << trial << ")";
    } catch (const robust::CancelledError& e) {
      EXPECT_EQ(e.reason(), robust::CancelReason::kDeadline);
    }
  }

  // The same through a sweep's TraceCache, where two cells of one
  // program share the capture: a cancelled capture is not stored, and a
  // later trial of either cell retries it and replays what it captured.
  obs::MemorySink events;
  campaign::TraceCache cache(options, [&events](const obs::Event& event) {
    events.write(event);
  });
  campaign::Cell other = cell;
  other.index = 1;
  other.profile = campaign::parse_profile_token("const:2097152",
                                                campaign::Workload::kSort);
  cache.add_user(cell);
  cache.add_user(other);
  options.traces = &cache;
  for (const campaign::Cell* c : {&cell, &other}) {
    EXPECT_THROW(campaign::make_cell_runner(*c, options)(1, injector),
                 robust::CancelledError);
  }
  EXPECT_TRUE(events.events().empty());
  robust::CancelToken idle_token;
  options.cancel = &idle_token;
  const engine::RunResult shared =
      campaign::make_cell_runner(other, options)(1, injector);
  EXPECT_TRUE(shared.completed);
  EXPECT_EQ(shared.ratio, plain.ratio);
  EXPECT_EQ(campaign::make_cell_runner(cell, options)(2, injector).ratio,
            plain.ratio);
  ASSERT_EQ(events.events().size(), 1u);  // one capture for both cells
  EXPECT_EQ(events.events()[0].type, "trace_capture");
  EXPECT_EQ(events.events()[0].u64_or("cells", 0), 2u);
  cache.release(cell);
  EXPECT_EQ(events.events().size(), 1u);
  cache.release(other);  // the last user frees the trace
  ASSERT_EQ(events.events().size(), 2u);
  EXPECT_EQ(events.events()[1].type, "trace_release");
  EXPECT_EQ(events.events()[1].str_or("program", ""), "funnel");
}

// ---- one capture per (program, seed) across a sweep ----

/// sorts funnel + merge2 (replayed) and adaptive (direct) on three
/// profiles each: under trace_replay each replayed program is one input.
Plan shared_input_plan() {
  std::istringstream is(
      "name = shared_inputs\n"
      "workload = sort\n"
      "sorts = adaptive funnel merge2\n"
      "profiles = const:16 uniform:4:64 sawtooth:32:2\n"
      "keys = 1024\n"
      "block = 4\n"
      "trace_replay = 1\n"
      "trials = 3\n"
      "seed = 7\n");
  return campaign::expand_plan(campaign::parse_manifest(is));
}

std::vector<obs::Event> events_of(const obs::MemorySink& sink,
                                  const std::string& type) {
  std::vector<obs::Event> out;
  for (const obs::Event& event : sink.events()) {
    if (event.type == type) out.push_back(event);
  }
  return out;
}

TEST(SweepRunner, TraceReplayCapturesOncePerProgramAtEveryJobCount) {
  const Plan plan = shared_input_plan();
  std::string reference;
  for (const std::uint64_t jobs : {1u, 2u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    obs::MemorySink sink;
    SweepOptions options = untimed(jobs);
    options.trace = &sink;
    const std::string bytes = report_bytes(campaign::run_sweep(plan, options));
    if (reference.empty()) reference = bytes;
    EXPECT_EQ(bytes, reference);
    EXPECT_EQ(bytes.find("trace_capture"), std::string::npos);
    std::vector<std::pair<std::string, std::uint64_t>> captured;
    for (const obs::Event& event : events_of(sink, "trace_capture")) {
      captured.emplace_back(event.str_or("program", ""),
                            event.u64_or("seed", 0));
      EXPECT_EQ(event.u64_or("cells", 0), 3u);  // the program's row
      EXPECT_GT(event.u64_or("runs", 0), 0u);
      EXPECT_EQ(event.u64_or("bytes", 0), 12 * event.u64_or("runs", 0));
    }
    std::sort(captured.begin(), captured.end());
    const std::vector<std::pair<std::string, std::uint64_t>> want = {
        {"funnel", 7 + 3}, {"merge2", 7 + 6}};
    EXPECT_EQ(captured, want);
    EXPECT_EQ(events_of(sink, "trace_release").size(), 2u);
  }
}

/// The trace_* events' programs, in emission order, with each
/// sweep_cell event as "cell:INDEX".
std::vector<std::string> capture_timeline(const obs::MemorySink& sink) {
  std::vector<std::string> out;
  for (const obs::Event& event : sink.events()) {
    if (event.type == "sweep_cell") {
      out.push_back("cell:" + std::to_string(event.u64_or("index", 0)));
    } else if (event.type == "trace_capture") {
      out.push_back("capture:" + event.str_or("program", "") + ":" +
                    std::to_string(event.u64_or("cells", 0)));
    } else if (event.type == "trace_release") {
      out.push_back("release:" + event.str_or("program", ""));
    }
  }
  return out;
}

TEST(SweepRunner, ResumeCountsOnlyUnfinishedCellsAndFreesAfterTheLast) {
  const Plan plan = shared_input_plan();
  const std::string uninterrupted =
      report_bytes(campaign::run_sweep(plan, untimed(1)));

  // A box budget of 1 admits one cell per run. Admission is capture-first
  // (each replayed program's first pending cell ahead of the rest), so
  // four runs resumed from one checkpoint finish funnel's row, cells
  // 3..5, then merge2's first cell, 6 — each run capturing the program of
  // its one cell once. Cells a run skips release their counts.
  const std::string ckpt = temp_path("sweep_shared_inputs.ckpt");
  SweepOptions options = untimed(1);
  options.checkpoint_path = ckpt;
  options.budget.max_total_boxes = 1;
  const std::vector<std::vector<std::string>> cut_timelines = {
      {"capture:funnel:3", "cell:3", "release:funnel"},
      {"capture:funnel:2", "cell:4", "release:funnel"},
      {"capture:funnel:1", "cell:5", "release:funnel"},
      {"capture:merge2:3", "cell:6", "release:merge2"}};
  for (std::uint64_t run = 0; run < 4; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    obs::MemorySink cut_sink;
    options.trace = &cut_sink;
    const Report cut = campaign::run_sweep(plan, options);
    ASSERT_TRUE(cut.truncated);
    ASSERT_EQ(cut.cells.size(), run + 1);
    for (std::uint64_t i = 0; i <= run; ++i) {
      EXPECT_EQ(cut.cells[i].index, 3 + i);
    }
    EXPECT_EQ(capture_timeline(cut_sink), cut_timelines[run]);
    options.resume = true;
  }
  obs::MemorySink sink;
  SweepOptions resume = untimed(1);
  resume.checkpoint_path = ckpt;
  resume.resume = true;
  resume.trace = &sink;
  EXPECT_EQ(report_bytes(campaign::run_sweep(plan, resume)), uninterrupted);
  const std::vector<std::string> want = {
      "capture:merge2:2", "cell:7", "cell:0",        "cell:1",
      "cell:2",           "cell:8", "release:merge2"};
  EXPECT_EQ(capture_timeline(sink), want);
}

// Before one input per program, an e16-shaped campaign (trace_replay, a
// row of several cells per program) seeded each cell apart and carried a
// fingerprint without " inputs=program". Its checkpoints hold cells of
// other inputs, so a resume must refuse them, naming config_hash.
TEST(SweepRunner, ResumeRefusesACheckpointFromPerCellInputs) {
  const Plan plan = shared_input_plan();
  std::string fingerprint = campaign::manifest_fingerprint(plan.manifest);
  const std::string token = " inputs=program";
  const std::size_t at = fingerprint.find(token);
  ASSERT_NE(at, std::string::npos);
  fingerprint.erase(at, token.size());
  std::uint64_t old_hash = 0xcbf29ce484222325ull;  // manifest_hash's FNV-1a
  for (const char ch : fingerprint) {
    old_hash ^= static_cast<unsigned char>(ch);
    old_hash *= 0x100000001b3ull;
  }
  ASSERT_NE(old_hash, plan.config_hash);

  const std::string ckpt = temp_path("sweep_per_cell_inputs.ckpt");
  SweepOptions options = untimed(1);
  options.checkpoint_path = ckpt;
  options.budget.max_total_boxes = 1;
  ASSERT_TRUE(campaign::run_sweep(plan, options).truncated);
  std::string text;
  {
    std::ifstream in(ckpt, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string now = std::to_string(plan.config_hash);
  for (std::size_t pos = text.find(now); pos != std::string::npos;
       pos = text.find(now, pos)) {
    text.replace(pos, now.size(), std::to_string(old_hash));
  }
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out << text;
  }
  SweepOptions resume = untimed(1);
  resume.checkpoint_path = ckpt;
  resume.resume = true;
  try {
    campaign::run_sweep(plan, resume);
    FAIL() << "resumed a checkpoint of per-cell inputs";
  } catch (const util::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("config_hash"), std::string::npos)
        << e.what();
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

/// An adaptive sort cell (direct runs, no capture) and a funnel cell, the
/// only cell of its program, whose first trial captures the program's
/// trace while every other trial of the cell waits on that capture.
Plan capture_tail_plan() {
  std::istringstream is(
      "name = capture_tail\n"
      "workload = sort\n"
      "sorts = adaptive funnel\n"
      "profiles = const:16\n"
      "keys = 2048\n"
      "block = 4\n"
      "trace_replay = 1\n"
      "trials = 4\n"
      "seed = 5\n");
  return with_heavy_last_cell(
      campaign::expand_plan(campaign::parse_manifest(is)), 128);
}

/// Cancels from inside the heavy cell's first trial: its trace_capture
/// event waits until the checkpoint holds the `light` cells' sweep_cell
/// lines, then requests the cancel. By then each thread has claimed at
/// most one trial of the heavy cell (all wait on the capture), so the
/// rest start after the cancel and unwind: the heavy cell provably has
/// unlanded trials, however the threads were scheduled.
class CancelInHeavyCapture final : public obs::TraceSink {
 public:
  CancelInHeavyCapture(robust::CancelToken& token, std::string checkpoint,
                       std::uint64_t light)
      : token_(token), checkpoint_(std::move(checkpoint)), light_(light) {}
  void write(const obs::Event& event) override {
    if (event.type != "trace_capture") return;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (committed() < light_ && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    token_.request(robust::CancelReason::kExternal);
  }

 private:
  std::uint64_t committed() const {
    std::ifstream is(checkpoint_);
    std::uint64_t cells = 0;
    for (std::string line; std::getline(is, line);) {
      cells += line.find("\"type\":\"sweep_cell\"") != std::string::npos;
    }
    return cells;
  }

  robust::CancelToken& token_;
  const std::string checkpoint_;
  const std::uint64_t light_;
};

TEST(SweepRunner, CancelMidHelpedCellDiscardsItWholeAndResumes) {
  const Plan plan = capture_tail_plan();
  const std::string uninterrupted =
      report_bytes(campaign::run_sweep(plan, untimed(4)));

  const std::string ckpt = temp_path("sweep_cancel_helped.ckpt");
  robust::CancelToken token;
  CancelInHeavyCapture sink(token, ckpt, plan.cells.size() - 1);
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

// A worker that finds nothing to admit and nothing to help while another
// thread is still inside admit for the only cell waits for that admission
// and then helps with the cell's trials, rather than leaving work() for
// good. One cell of 16 trials, 4 threads: the first admit holds the cell
// until the other three threads have come back from theirs empty, and
// every trial waits until a second thread has started one. Both waits end
// at one deadline, so a scheduler that leaves the cell to one thread fails
// the test within seconds instead of hanging it.
TEST(TrialScheduler, HelpersWaitForAnAdmissionInFlight) {
  using Claimed = campaign::ClaimedCell<int>;
  constexpr std::uint64_t kTrials = 16;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  campaign::Cell cell;
  cell.trials = kTrials;
  const auto claim = std::make_shared<Claimed>();
  claim->cell = &cell;
  claim->chunk = kTrials;
  claim->records.resize(kTrials);
  claim->restored.assign(kTrials, false);
  claim->landed = std::vector<std::atomic<std::uint64_t>>(1);

  std::mutex mutex;
  std::condition_variable changed;
  bool handed_out = false;
  int empty_admits = 0;
  std::set<std::thread::id> ran;  // threads that started a trial
  claim->runner = [&](std::uint64_t, robust::FaultInjector&) {
    std::unique_lock<std::mutex> lock(mutex);
    ran.insert(std::this_thread::get_id());
    changed.notify_all();
    changed.wait_until(lock, deadline, [&] { return ran.size() >= 2; });
    return engine::RunResult{};
  };
  bool finished = false;
  campaign::TrialScheduler<int> scheduler(
      {.admit = [&]() -> std::shared_ptr<Claimed> {
         std::unique_lock<std::mutex> lock(mutex);
         if (handed_out) {
           ++empty_admits;
           changed.notify_all();
           return nullptr;
         }
         handed_out = true;
         changed.wait_until(lock, deadline,
                            [&] { return empty_admits >= 3; });
         return claim;
       },
       .finish = [&finished](Claimed&) { finished = true; },
       .abandon = [](Claimed&) {},
       .land_chunk = [](Claimed&, std::uint64_t) {}},
      /*timing=*/false);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back([&] { scheduler.work(); });
  for (std::thread& thread : threads) thread.join();
  EXPECT_TRUE(finished);
  EXPECT_GE(empty_admits, 3);
  EXPECT_GE(ran.size(), 2u);
}

}  // namespace
