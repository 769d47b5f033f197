// Fault containment in the Monte-Carlo campaign (campaign::run_cell_trials,
// the sweep's trial loop): every registered
// FaultSite has an injection test proving the campaign survives, the
// contained failures are reported deterministically across pool sizes,
// retry-with-reseed recovers transient faults, and budgets truncate
// campaign::run_cell_trials explicitly at deterministic chunk boundaries.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/sweep.hpp"
#include "core/workloads.hpp"
#include "engine/montecarlo.hpp"
#include "obs/event.hpp"
#include "obs/recorder.hpp"
#include "obs/sink.hpp"
#include "paging/ca_machine.hpp"
#include "profile/box_source.hpp"
#include "profile/distributions.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "util/thread_pool.hpp"

namespace cadapt::engine {
namespace {

using model::RegularParams;

struct McRun {
  McSummary summary;
  std::vector<std::string> jsonl;
};

/// An injected iid campaign: faults armed at trial_body and box_draw, the
/// two sites run_single_trial and make_regular_trial_runner visit by
/// themselves.
McRun run_injected(std::size_t threads, const robust::FaultPlan& plan,
                   std::uint32_t max_attempts = 1) {
  const RegularParams params{8, 4, 1.0};
  const auto dist = std::make_shared<profile::UniformPowers>(4, 0, 3);
  util::ThreadPool pool(threads);
  obs::MemorySink sink;
  obs::McRecorder recorder(&sink, /*record_timing=*/false);

  McOptions options;
  options.trials = 48;
  options.seed = 20260806;
  options.pool = &pool;
  options.recorder = &recorder;
  options.faults = &plan;
  options.max_attempts = max_attempts;

  McRun run;
  run.summary = campaign::run_cell_trials(
      options, make_regular_trial_runner(params, 64, core::iid_source(dist),
                                         options));
  for (const obs::Event& event : sink.events())
    run.jsonl.push_back(obs::to_jsonl(event));
  return run;
}

void expect_same_outcome(const McRun& a, const McRun& b) {
  EXPECT_EQ(a.summary.failed, b.summary.failed);
  EXPECT_EQ(a.summary.incomplete, b.summary.incomplete);
  EXPECT_EQ(a.summary.truncated, b.summary.truncated);
  EXPECT_EQ(a.summary.trials_run, b.summary.trials_run);
  ASSERT_EQ(a.summary.errors.size(), b.summary.errors.size());
  for (std::size_t i = 0; i < a.summary.errors.size(); ++i) {
    EXPECT_EQ(a.summary.errors[i], b.summary.errors[i]) << "error " << i;
  }
  ASSERT_EQ(a.summary.ratio_samples.size(), b.summary.ratio_samples.size());
  for (std::size_t i = 0; i < a.summary.ratio_samples.size(); ++i) {
    EXPECT_EQ(a.summary.ratio_samples[i], b.summary.ratio_samples[i]) << i;
  }
  EXPECT_EQ(a.summary.ratio.mean(), b.summary.ratio.mean());
  EXPECT_EQ(a.summary.ratio.variance(), b.summary.ratio.variance());
  EXPECT_EQ(a.summary.boxes.mean(), b.summary.boxes.mean());
  ASSERT_EQ(a.jsonl.size(), b.jsonl.size());
  for (std::size_t i = 0; i < a.jsonl.size(); ++i)
    EXPECT_EQ(a.jsonl[i], b.jsonl[i]) << "event " << i;
}

TEST(RobustMc, ContainedFailuresAreDeterministicAcrossPools) {
  robust::FaultPlan plan(99);
  plan.set_rate(robust::FaultSite::kTrialBody, 0.2);
  plan.set_rate(robust::FaultSite::kBoxDraw, 0.001);

  const McRun one = run_injected(1, plan);
  const McRun two = run_injected(2, plan);
  const McRun eight = run_injected(8, plan);
  expect_same_outcome(one, two);
  expect_same_outcome(one, eight);

  // The plan really fired, the campaign really survived, and every trial
  // is accounted for exactly once.
  EXPECT_GT(one.summary.failed, 0u);
  EXPECT_GT(one.summary.ratio_samples.size(), 0u);
  EXPECT_EQ(one.summary.failed, one.summary.errors.size());
  EXPECT_EQ(one.summary.ratio_samples.size() + one.summary.incomplete +
                one.summary.failed,
            one.summary.trials_run);
  EXPECT_EQ(one.summary.trials_run, 48u);
  for (const robust::TrialError& error : one.summary.errors) {
    EXPECT_EQ(error.category, robust::ErrorCategory::kInjected);
  }
}

TEST(RobustMc, TrialErrorEventsInterleaveInTrialOrder) {
  robust::FaultPlan plan(99);
  plan.set_rate(robust::FaultSite::kTrialBody, 0.2);
  const McRun run = run_injected(1, plan);

  // One event per trial (trial or trial_error) plus the final "mc"
  // aggregate, strictly in trial order.
  ASSERT_EQ(run.jsonl.size(), 49u);
  std::uint64_t expected_trial = 0, error_events = 0;
  for (const std::string& line : run.jsonl) {
    obs::Event event;
    ASSERT_TRUE(obs::parse_jsonl(line, &event)) << line;
    if (event.type == "trial" || event.type == "trial_error") {
      EXPECT_EQ(event.u64_or("trial", ~0ull), expected_trial++);
      if (event.type == "trial_error") {
        ++error_events;
        EXPECT_EQ(event.str_or("category", ""), "injected");
      }
    }
  }
  EXPECT_EQ(expected_trial, 48u);
  EXPECT_EQ(error_events, run.summary.failed);

  // The aggregate reports the failure count and the (un)truncated status.
  obs::Event mc;
  ASSERT_TRUE(obs::parse_jsonl(run.jsonl.back(), &mc));
  ASSERT_EQ(mc.type, "mc");
  EXPECT_EQ(mc.u64_or("failed", ~0ull), run.summary.failed);
  EXPECT_EQ(mc.u64_or("trials_requested", ~0ull), 48u);
  EXPECT_FALSE(mc.flag_or("truncated", true));
}

TEST(RobustMc, RetryWithReseedRecoversTransientFaults) {
  // A runner that fails on attempt 0 of every trial and succeeds on
  // attempt 1: with max_attempts == 2 the campaign ends clean, and each
  // recorded seed is the attempt-1 derivation (the reseed is visible).
  McOptions options;
  options.trials = 8;
  options.seed = 5;
  options.max_attempts = 2;
  obs::McRecorder recorder(nullptr, /*record_timing=*/false);
  options.recorder = &recorder;

  const McSummary summary = campaign::run_cell_trials(
      options, [](std::uint64_t, robust::FaultInjector& injector) {
        if (injector.attempt() == 0) throw std::runtime_error("transient");
        RunResult r;
        r.completed = true;
        r.boxes = 3;
        r.ratio = 1.0;
        r.unit_ratio = 1.0;
        return r;
      });

  EXPECT_EQ(summary.failed, 0u);
  EXPECT_TRUE(summary.errors.empty());
  EXPECT_EQ(summary.ratio_samples.size(), 8u);
  ASSERT_EQ(recorder.trials().size(), 8u);
  for (const obs::TrialObservation& trial : recorder.trials()) {
    EXPECT_EQ(trial.seed, derive_trial_seed(5, trial.trial, 1));
    EXPECT_NE(trial.seed, derive_trial_seed(5, trial.trial, 0));
  }
}

TEST(RobustMc, ExhaustedRetriesRecordTheLastAttempt) {
  McOptions options;
  options.trials = 3;
  options.seed = 11;
  options.max_attempts = 3;

  std::atomic<std::uint64_t> calls{0};
  const McSummary summary = campaign::run_cell_trials(
      options, [&calls](std::uint64_t, robust::FaultInjector&) -> RunResult {
        ++calls;
        throw std::runtime_error("persistent");
      });

  EXPECT_EQ(calls.load(), 9u);  // 3 trials x 3 attempts, then contained
  EXPECT_EQ(summary.failed, 3u);
  EXPECT_EQ(summary.ratio_samples.size(), 0u);
  for (const robust::TrialError& error : summary.errors) {
    EXPECT_EQ(error.attempts, 3u);
    EXPECT_EQ(error.category, robust::ErrorCategory::kOther);
    EXPECT_EQ(error.what, "persistent");
    EXPECT_EQ(error.seed, derive_trial_seed(11, error.trial, 2));
  }
}

// ---- Per-site injection: every FaultSite in the registry must have a
// test here proving the driver contains a rate-1.0 plan at that site.

McSummary run_with_site(robust::FaultSite site,
                        const RobustTrialRunner& runner) {
  robust::FaultPlan plan(13);
  plan.set_rate(site, 1.0);
  McOptions options;
  options.trials = 4;
  options.seed = 1;
  options.faults = &plan;
  return campaign::run_cell_trials(options, runner);
}

void expect_all_injected(const McSummary& summary, robust::FaultSite site) {
  EXPECT_EQ(summary.failed, 4u);
  ASSERT_EQ(summary.errors.size(), 4u);
  for (const robust::TrialError& error : summary.errors) {
    EXPECT_EQ(error.category, robust::ErrorCategory::kInjected);
    EXPECT_NE(error.what.find(robust::fault_site_name(site)),
              std::string::npos)
        << error.what;
  }
}

RunResult ok_result() {
  RunResult r;
  r.completed = true;
  r.boxes = 1;
  r.ratio = 1.0;
  r.unit_ratio = 1.0;
  return r;
}

TEST(RobustMcInjection, TrialBodySite) {
  // The driver itself visits kTrialBody before calling the runner.
  const McSummary summary = run_with_site(
      robust::FaultSite::kTrialBody,
      [](std::uint64_t, robust::FaultInjector&) { return ok_result(); });
  expect_all_injected(summary, robust::FaultSite::kTrialBody);
}

TEST(RobustMcInjection, BoxDrawSite) {
  const McSummary summary = run_with_site(
      robust::FaultSite::kBoxDraw,
      [](std::uint64_t, robust::FaultInjector& injector) {
        robust::FaultyBoxSource source(
            std::make_unique<profile::VectorSource>(
                std::vector<profile::BoxSize>{4, 4, 4, 4}, /*cycle=*/true),
            &injector);
        (void)source.next();
        return ok_result();
      });
  expect_all_injected(summary, robust::FaultSite::kBoxDraw);
}

TEST(RobustMcInjection, SinkWriteSite) {
  const McSummary summary = run_with_site(
      robust::FaultSite::kSinkWrite,
      [](std::uint64_t, robust::FaultInjector& injector) {
        obs::MemorySink inner;
        robust::FaultySink sink(&inner, &injector);
        sink.write(obs::Event("box"));
        return ok_result();
      });
  expect_all_injected(summary, robust::FaultSite::kSinkWrite);
}

TEST(RobustMcInjection, PagingStepSite) {
  const McSummary summary = run_with_site(
      robust::FaultSite::kPagingStep,
      [](std::uint64_t, robust::FaultInjector& injector) {
        paging::CaMachine machine(
            std::make_unique<profile::VectorSource>(
                std::vector<profile::BoxSize>{1, 1}, /*cycle=*/true),
            /*block_size=*/1);
        machine.set_box_hook(robust::paging_fault_hook(injector));
        machine.access(0);  // fills box 0
        machine.access(1);  // boundary into box 1 -> injected
        return ok_result();
      });
  expect_all_injected(summary, robust::FaultSite::kPagingStep);
}

// ---- Budgets ----

// Budgets truncate run_cell_trials (the loop `cadapt mc` runs) at chunk
// boundaries of its trial-order fold.

TEST(RobustMc, BoxBudgetTruncatesAtChunkBoundary) {
  McOptions options;
  options.trials = 10;
  options.seed = 3;
  obs::MemorySink sink;
  obs::McRecorder recorder(&sink, /*record_timing=*/false);
  options.recorder = &recorder;
  campaign::CellTrials trials;
  trials.chunk = 2;                       // chunk boundaries every 2 trials
  trials.budget.max_total_boxes = 300;    // each chunk consumes 200 boxes

  const auto runner = [](std::uint64_t, robust::FaultInjector&) {
    RunResult r;
    r.completed = true;
    r.boxes = 100;
    r.ratio = 1.0;
    r.unit_ratio = 1.0;
    return r;
  };
  const McSummary summary =
      campaign::run_cell_trials(options, runner, trials);

  // Chunk [0,2) spends 200 < 300, chunk [2,4) pushes the spend to 400;
  // the fold stops after it. Deterministic: the spend is summed in trial
  // order, whichever chunks landed first.
  EXPECT_TRUE(summary.truncated);
  EXPECT_EQ(summary.truncate_reason, robust::CancelReason::kBudget);
  EXPECT_EQ(summary.trials_run, 4u);
  EXPECT_EQ(summary.trials_requested, 10u);
  EXPECT_EQ(summary.ratio_samples.size(), 4u);

  // The truncation is explicit in the trace, and the prefix property
  // holds: trials 0..3 ran, nothing after.
  obs::Event mc;
  ASSERT_TRUE(obs::parse_jsonl(obs::to_jsonl(sink.events().back()), &mc));
  ASSERT_EQ(mc.type, "mc");
  EXPECT_TRUE(mc.flag_or("truncated", false));
  EXPECT_EQ(mc.u64_or("trials", ~0ull), 4u);
  EXPECT_EQ(mc.u64_or("trials_requested", ~0ull), 10u);

  // Thread count cannot move the stopping point.
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::ThreadPool pool(threads);
    McOptions again = options;
    again.recorder = nullptr;
    again.pool = &pool;
    const McSummary other = campaign::run_cell_trials(again, runner, trials);
    EXPECT_TRUE(other.truncated) << threads;
    EXPECT_EQ(other.trials_run, 4u) << threads;
  }
}

namespace fake_clock {
std::atomic<std::uint64_t> now{0};
std::uint64_t read() { return now.load(); }
}  // namespace fake_clock

TEST(RobustMc, DeadlineTruncatesViaInjectedClock) {
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    fake_clock::now = 0;
    util::ThreadPool pool(threads);
    McOptions options;
    options.trials = 6;
    options.seed = 4;
    options.pool = &pool;
    campaign::CellTrials trials;
    trials.chunk = 2;
    trials.budget.deadline_ns = 100;
    trials.clock = &fake_clock::read;

    const McSummary summary = campaign::run_cell_trials(
        options,
        [](std::uint64_t, robust::FaultInjector&) {
          fake_clock::now += 60;  // each trial "takes" 60ns
          return ok_result();
        },
        trials);

    // Chunk [0,2) lands at t >= 120 >= 100: the fold stops after it.
    EXPECT_TRUE(summary.truncated) << threads;
    EXPECT_EQ(summary.truncate_reason, robust::CancelReason::kDeadline);
    EXPECT_EQ(summary.trials_run, 2u) << threads;
    EXPECT_EQ(summary.ratio_samples.size(), 2u) << threads;
  }
}

TEST(RobustMc, UnarmedPlanMatchesNoPlanBitForBit) {
  // A present-but-unarmed FaultPlan must not perturb results: the legacy
  // seed derivation and the fault-free event stream are preserved.
  const robust::FaultPlan unarmed(999);
  const McRun with_plan = run_injected(2, unarmed);

  const RegularParams params{8, 4, 1.0};
  const auto dist = std::make_shared<profile::UniformPowers>(4, 0, 3);
  util::ThreadPool pool(2);
  obs::MemorySink sink;
  obs::McRecorder recorder(&sink, /*record_timing=*/false);
  McOptions options;
  options.trials = 48;
  options.seed = 20260806;
  options.pool = &pool;
  options.recorder = &recorder;
  McRun without;
  without.summary = campaign::run_cell_trials(
      options, make_regular_trial_runner(params, 64, core::iid_source(dist),
                                         options));
  for (const obs::Event& event : sink.events())
    without.jsonl.push_back(obs::to_jsonl(event));

  expect_same_outcome(with_plan, without);
  EXPECT_EQ(with_plan.summary.failed, 0u);
}

}  // namespace
}  // namespace cadapt::engine
