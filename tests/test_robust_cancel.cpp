// Cooperative cancellation and seeded backoff (docs/ROBUSTNESS.md,
// "Cancellation"): the token/watchdog primitives, the determinism
// contract — cancelled work is DISCARDED wholesale, never contained,
// retried, or persisted, so cancel + resume stays bit-identical to an
// uninterrupted run — and the pure-function retry schedule.
#include "robust/cancel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/sweep.hpp"
#include "engine/montecarlo.hpp"
#include "robust/backoff.hpp"
#include "robust/checkpoint.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cadapt::robust {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(CancelReason, NamesRoundTrip) {
  for (const CancelReason reason :
       {CancelReason::kNone, CancelReason::kDeadline, CancelReason::kBudget,
        CancelReason::kExternal}) {
    const auto parsed = parse_cancel_reason(cancel_reason_name(reason));
    ASSERT_TRUE(parsed.has_value()) << cancel_reason_name(reason);
    EXPECT_EQ(*parsed, reason);
  }
  EXPECT_FALSE(parse_cancel_reason("whatever").has_value());
  EXPECT_FALSE(parse_cancel_reason("").has_value());
}

TEST(CancelToken, FirstRequestWinsAndPollThrowsTheReason) {
  CancelToken token;
  EXPECT_FALSE(token.requested());
  token.poll();  // unarmed: a no-op, not a throw
  token.request(CancelReason::kDeadline);
  token.request(CancelReason::kExternal);  // late racer: ignored
  EXPECT_TRUE(token.requested());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  try {
    token.poll();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
}

TEST(Watchdog, PollIntervalIsDeadlineOverEightClamped) {
  constexpr std::uint64_t kMs = 1'000'000;
  EXPECT_EQ(Watchdog::poll_interval_ns(8 * kMs), 1 * kMs);    // floor
  EXPECT_EQ(Watchdog::poll_interval_ns(80 * kMs), 10 * kMs);  // deadline/8
  EXPECT_EQ(Watchdog::poll_interval_ns(8000 * kMs), 100 * kMs);  // ceiling
  EXPECT_EQ(Watchdog::poll_interval_ns(1), 1 * kMs);  // tiny deadline
}

namespace fake_clock {
std::atomic<std::uint64_t> now{0};
std::uint64_t read() { return now.load(); }
}  // namespace fake_clock

TEST(Watchdog, FiresOnceTheInjectedClockPassesTheDeadline) {
  fake_clock::now = 0;
  CancelToken token;
  Watchdog watchdog(token, /*deadline_ns=*/1000, &fake_clock::read);
  // Tiny fake deadline -> 1ms real poll interval: the watchdog notices
  // the expired clock within a few real milliseconds.
  fake_clock::now = 5000;
  for (int i = 0; i < 5000 && !token.requested(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(token.requested());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

TEST(Watchdog, CleanDestructionBeforeTheDeadlineNeverFires) {
  fake_clock::now = 0;
  CancelToken token;
  {
    Watchdog watchdog(token, UINT64_C(3'600'000'000'000), &fake_clock::read);
  }  // joins here
  EXPECT_FALSE(token.requested());
}

// ---- The Monte-Carlo campaign (run_cell_trials) under cancellation ----

engine::RunResult ok_result(double ratio) {
  engine::RunResult r;
  r.completed = true;
  r.boxes = 7;
  r.ratio = ratio;
  r.unit_ratio = ratio;
  return r;
}

TEST(CancelMc, PreCancelledTokenTruncatesBeforeAnyTrial) {
  CancelToken token;
  token.request(CancelReason::kExternal);
  engine::McOptions options;
  options.trials = 16;
  options.seed = 2;
  options.cancel = &token;
  std::atomic<int> calls{0};
  const engine::McSummary summary = campaign::run_cell_trials(
      options, [&calls](std::uint64_t, FaultInjector&) {
        ++calls;
        return ok_result(1.0);
      });
  EXPECT_TRUE(summary.truncated);
  EXPECT_EQ(summary.truncate_reason, CancelReason::kExternal);
  EXPECT_EQ(summary.trials_run, 0u);
  EXPECT_EQ(calls.load(), 0);
}

TEST(CancelMc, CancelledErrorIsNeverContainedOrRetried) {
  // Containment would persist a record for work the campaign is
  // abandoning; retry would burn attempts on a doomed trial. Cancellation
  // must surface as truncation instead — zero errors, and each trial's
  // body entered AT MOST ONCE despite max_attempts = 3 (already-queued
  // trials still start, so up to `trials` calls, but never a retry).
  engine::McOptions options;
  options.trials = 8;
  options.seed = 3;
  options.max_attempts = 3;
  std::atomic<int> calls{0};
  const engine::McSummary summary = campaign::run_cell_trials(
      options, [&calls](std::uint64_t, FaultInjector&) -> engine::RunResult {
        ++calls;
        throw CancelledError(CancelReason::kExternal);
      });
  EXPECT_TRUE(summary.truncated);
  EXPECT_EQ(summary.truncate_reason, CancelReason::kExternal);
  EXPECT_EQ(summary.trials_run, 0u);
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_TRUE(summary.errors.empty());
  EXPECT_GE(calls.load(), 1);
  EXPECT_LE(calls.load(), 8);  // a single retry anywhere would exceed this
}

/// Summary fields that must be bit-identical between a cancelled+resumed
/// campaign and an uninterrupted one.
void expect_same_summary(const engine::McSummary& a,
                         const engine::McSummary& b) {
  EXPECT_EQ(a.trials_run, b.trials_run);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.failed, b.failed);
  ASSERT_EQ(a.ratio_samples.size(), b.ratio_samples.size());
  for (std::size_t i = 0; i < a.ratio_samples.size(); ++i) {
    EXPECT_EQ(a.ratio_samples[i], b.ratio_samples[i]) << i;
  }
  EXPECT_EQ(a.ratio.mean(), b.ratio.mean());
  EXPECT_EQ(a.ratio.variance(), b.ratio.variance());
  EXPECT_EQ(a.boxes.mean(), b.boxes.mean());
}

// The records a checkpoint holds, read without opening it for appending.
std::map<std::uint64_t, TrialRecord> checkpoint_records(
    const std::string& path) {
  std::ifstream is(path);
  const std::vector<JsonlLine> lines = load_jsonl_tolerant(is, "checkpoint");
  std::map<std::uint64_t, TrialRecord> records;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    TrialRecord record = trial_record_from(lines[i]);
    records.insert_or_assign(record.trial, std::move(record));
  }
  return records;
}

TEST(CancelMc, MidCampaignCancelDiscardsTheChunkAndResumesBitIdentical) {
  const std::string path = temp_path("cancel_resume.jsonl");
  std::remove(path.c_str());

  // Each trial's ratio is a pure function of its seed, so any replayed or
  // half-kept work would shift the aggregate visibly.
  const auto runner = [](std::uint64_t seed, FaultInjector&) {
    return ok_result(static_cast<double>(seed % 97) / 97.0);
  };

  engine::McOptions base;
  base.trials = 8;
  base.seed = 20260808;
  campaign::CellTrials chunked;
  chunked.chunk = 2;
  chunked.config = "cancel drill";
  chunked.checkpoint_path = path;

  // The uninterrupted reference.
  const engine::McSummary full = campaign::run_cell_trials(base, runner);
  ASSERT_EQ(full.trials_run, 8u);

  // Cancelled run: trial 4's body requests cancellation, so trial 5's
  // attempt-start poll throws and the whole chunk [4,6) — including trial
  // 4's finished result — is discarded, never checkpointed.
  CancelToken token;
  engine::McOptions cancelled = base;
  cancelled.cancel = &token;
  util::ThreadPool one(1);  // deterministic cancellation point
  cancelled.pool = &one;
  const engine::McSummary cut = campaign::run_cell_trials(
      cancelled,
      [&token, &runner](std::uint64_t seed, FaultInjector& f) {
        if (f.trial() == 4) token.request(CancelReason::kExternal);
        return runner(seed, f);
      },
      chunked);
  EXPECT_TRUE(cut.truncated);
  EXPECT_EQ(cut.truncate_reason, CancelReason::kExternal);
  EXPECT_EQ(cut.trials_run, 4u);
  EXPECT_EQ(checkpoint_records(path).size(), 4u);

  // Resume without cancellation: re-runs exactly trials 4..7 and lands on
  // the uninterrupted summary bit-for-bit.
  campaign::CellTrials resumed = chunked;
  resumed.resume = true;
  const engine::McSummary merged =
      campaign::run_cell_trials(base, runner, resumed);
  EXPECT_FALSE(merged.truncated);
  EXPECT_EQ(merged.truncate_reason, CancelReason::kNone);
  expect_same_summary(merged, full);
}

TEST(CancelMc, ResumeMismatchNamesEveryDivergentField) {
  const std::string path = temp_path("cancel_resume_mismatch.jsonl");
  std::remove(path.c_str());
  engine::McOptions options;
  options.trials = 2;
  options.seed = 1;
  campaign::CellTrials trials;
  trials.config = "fingerprint A";
  trials.checkpoint_path = path;
  const auto runner = [](std::uint64_t, FaultInjector&) {
    return ok_result(1.0);
  };
  (void)campaign::run_cell_trials(options, runner, trials);

  engine::McOptions other = options;
  other.seed = 9;
  campaign::CellTrials other_trials = trials;
  other_trials.config = "fingerprint B";
  other_trials.resume = true;
  try {
    (void)campaign::run_cell_trials(other, runner, other_trials);
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("seed is 1 but campaign has 9"), std::string::npos)
        << what;
    EXPECT_NE(what.find("config_hash is 'fingerprint A' but campaign has "
                        "'fingerprint B'"),
              std::string::npos)
        << what;
  }
}

TEST(CancelMc, StuckTrialIsTerminatedByTheWatchdog) {
  // The headline liveness guarantee: a trial that never returns — but
  // does poll, like the campaign layer's per-box hook does — dies soon
  // after the deadline instead of hanging the campaign forever. The
  // tight 2x-deadline bound is enforced by the chaos lane's ctest
  // timeout; here we only need "terminates promptly with kDeadline".
  constexpr std::uint64_t kDeadlineNs = 100'000'000;  // 100ms
  CancelToken token;
  Watchdog watchdog(token, kDeadlineNs);
  engine::McOptions options;
  options.trials = 4;
  options.seed = 6;
  options.cancel = &token;
  util::ThreadPool one(1);
  options.pool = &one;

  const auto start = std::chrono::steady_clock::now();
  const engine::McSummary summary = campaign::run_cell_trials(
      options, [&token](std::uint64_t, FaultInjector&) -> engine::RunResult {
        for (;;) {  // stuck forever, but cooperative
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          token.poll();
        }
      });
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_TRUE(summary.truncated);
  EXPECT_EQ(summary.truncate_reason, CancelReason::kDeadline);
  EXPECT_EQ(summary.trials_run, 0u);
  // Generous sanity bound (sanitizer-friendly); the real latency is
  // deadline + poll_interval + one sleep slice, ~115ms.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

// ---- Seeded backoff ----

TEST(Backoff, DelayIsAPureSeededFunctionOfTrialAndAttempt) {
  BackoffPolicy policy;
  policy.base_ns = 1'000'000;
  policy.seed = 7;

  EXPECT_EQ(backoff_delay_ns(policy, 3, 0), 0u);  // attempt 0 never waits
  const BackoffPolicy disabled;
  EXPECT_EQ(backoff_delay_ns(disabled, 3, 2), 0u);

  for (std::uint32_t attempt = 1; attempt <= 4; ++attempt) {
    const std::uint64_t raw = policy.base_ns << (attempt - 1);
    const std::uint64_t delay = backoff_delay_ns(policy, 3, attempt);
    EXPECT_EQ(delay, backoff_delay_ns(policy, 3, attempt));  // pure
    EXPECT_GE(delay, raw / 2) << attempt;  // jitter in [0.5, 1.0)
    EXPECT_LT(delay, raw) << attempt;
  }

  // The cap bounds the exponential before jitter.
  BackoffPolicy capped = policy;
  capped.max_ns = 4'000'000;
  const std::uint64_t at_cap = backoff_delay_ns(capped, 3, 30);
  EXPECT_GE(at_cap, capped.max_ns / 2);
  EXPECT_LT(at_cap, capped.max_ns);

  // Jitter decorrelates trials, attempts, and seeds.
  BackoffPolicy reseeded = policy;
  reseeded.seed = 8;
  int differs = 0;
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    if (backoff_delay_ns(policy, trial, 1) !=
        backoff_delay_ns(reseeded, trial, 1))
      ++differs;
  }
  EXPECT_GT(differs, 16);
}

namespace sleep_seam {
std::mutex mutex;
std::vector<std::uint64_t> slept;
void record(std::uint64_t ns) {
  const std::lock_guard<std::mutex> lock(mutex);
  slept.push_back(ns);
}
}  // namespace sleep_seam

TEST(Backoff, ScheduleIsSleptViaTheSeamAndPersistedPerTrial) {
  {
    const std::lock_guard<std::mutex> lock(sleep_seam::mutex);
    sleep_seam::slept.clear();
  }
  const std::string path = temp_path("backoff_schedule.jsonl");
  std::remove(path.c_str());

  engine::McOptions options;
  options.trials = 2;
  options.seed = 5;
  options.max_attempts = 3;
  options.backoff.base_ns = 1'000'000;
  options.backoff.seed = options.seed;
  options.sleep_fn = &sleep_seam::record;
  util::ThreadPool one(1);  // keep the recorded schedule in trial order
  options.pool = &one;
  campaign::CellTrials trials;
  trials.checkpoint_path = path;

  // Every trial fails attempts 0 and 1 and succeeds on attempt 2.
  const engine::McSummary summary = campaign::run_cell_trials(
      options,
      [](std::uint64_t, FaultInjector& f) -> engine::RunResult {
        if (f.attempt() < 2) throw std::runtime_error("transient");
        return ok_result(1.0);
      },
      trials);
  EXPECT_EQ(summary.failed, 0u);
  EXPECT_EQ(summary.trials_run, 2u);

  const std::vector<std::uint64_t> expected = {
      backoff_delay_ns(options.backoff, 0, 1),
      backoff_delay_ns(options.backoff, 0, 2),
      backoff_delay_ns(options.backoff, 1, 1),
      backoff_delay_ns(options.backoff, 1, 2),
  };
  {
    const std::lock_guard<std::mutex> lock(sleep_seam::mutex);
    EXPECT_EQ(sleep_seam::slept, expected);
  }

  // The realized schedule is part of the durable record: backoff_ns
  // round-trips through the checkpoint, per trial.
  const std::map<std::uint64_t, TrialRecord> records =
      checkpoint_records(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records.at(0).backoff_ns, expected[0] + expected[1]);
  EXPECT_EQ(records.at(1).backoff_ns, expected[2] + expected[3]);
  for (const auto& [trial, record] : records) {
    EXPECT_EQ(record.attempts, 3u) << trial;
  }
}

TEST(Backoff, NeverRetryingCampaignNeverSleeps) {
  // Attempt-0 bit-compatibility: enabling backoff on a healthy campaign
  // must not introduce a single sleep (and therefore cannot perturb any
  // artifact).
  {
    const std::lock_guard<std::mutex> lock(sleep_seam::mutex);
    sleep_seam::slept.clear();
  }
  engine::McOptions options;
  options.trials = 6;
  options.seed = 12;
  options.max_attempts = 3;
  options.backoff.base_ns = 50'000'000;
  options.backoff.seed = options.seed;
  options.sleep_fn = &sleep_seam::record;
  const engine::McSummary summary = campaign::run_cell_trials(
      options,
      [](std::uint64_t, FaultInjector&) { return ok_result(0.5); });
  EXPECT_EQ(summary.failed, 0u);
  const std::lock_guard<std::mutex> lock(sleep_seam::mutex);
  EXPECT_TRUE(sleep_seam::slept.empty());
}

}  // namespace
}  // namespace cadapt::robust
