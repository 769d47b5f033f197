// The Monte-Carlo trial unit for estimating cache-adaptivity in
// expectation (Definition 3): repeatedly run an (a,b,c)-regular execution on freshly
// drawn random profiles and aggregate the adaptivity ratio
// Σ min(n,|□_i|)^{log_b a} / n^{log_b a} and the stopping time S_n.
//
// This is the trial layer of the robustness toolkit (docs/ROBUSTNESS.md):
// run_single_trial contains a throwing trial as a structured
// robust::TrialError (with a bounded retry-with-reseed policy) instead of
// tearing down the campaign, and a seeded robust::FaultPlan can inject
// failures at registered sites. Every campaign — `cadapt mc`, `trace`,
// the benches and library callers — runs its trials through
// campaign::run_cell_trials — one claim of one cell on the sweep's trial
// loop, committed and resumed per chunk like a heavy sweep cell — which
// folds them in trial order with fold_trial.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "engine/exec.hpp"
#include "model/regular.hpp"
#include "obs/recorder.hpp"
#include "obs/span.hpp"
#include "profile/box_source.hpp"
#include "profile/distributions.hpp"
#include "robust/backoff.hpp"
#include "robust/cancel.hpp"
#include "robust/checkpoint.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "stats/streaming.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace cadapt::engine {

/// Builds a fresh profile stream for one trial from a trial-specific RNG.
/// Determinism: the RNG depends only on (seed, trial index, attempt),
/// never on scheduling, so results are reproducible across thread counts.
using TrialSourceFactory =
    std::function<std::unique_ptr<profile::BoxSource>(util::Rng&)>;

struct McOptions {
  std::uint64_t trials = 64;
  std::uint64_t seed = 42;
  ScanPlacement placement = ScanPlacement::kEnd;
  BoxSemantics semantics = BoxSemantics::kOptimistic;
  std::uint64_t max_boxes = UINT64_C(1) << 40;
  /// Force the per-box reference driver in every trial (docs/PERF.md);
  /// the default bulk path is bit-identical, so this exists for
  /// differential tests and debugging.
  bool per_box = false;
  util::ThreadPool* pool = nullptr;  ///< nullptr = util::default_pool()
  /// Optional observability hook: receives one obs::TrialObservation (or
  /// obs::TrialErrorObservation) per trial — in trial order, deterministic
  /// across pool sizes — plus the final "mc" aggregate event. Null =
  /// disabled, zero overhead.
  obs::McRecorder* recorder = nullptr;

  // ---- Robustness controls (docs/ROBUSTNESS.md) ----
  /// Attempts per trial before its failure is recorded as a TrialError.
  /// Attempt k reruns the trial with a reseeded derived seed; attempt 0
  /// uses the same derivation as always, so retries change nothing for
  /// campaigns that never fail.
  std::uint32_t max_attempts = 1;
  /// Seeded fault injection plan; null = no injection. run_single_trial
  /// visits FaultSite::kTrialBody at every attempt, and
  /// make_regular_trial_runner wraps each trial's profile stream so
  /// FaultSite::kBoxDraw is visited per drawn box. Must outlive the call.
  const robust::FaultPlan* faults = nullptr;
  /// Cooperative cancellation token polled at every attempt start and
  /// forwarded into the engine's box loops (docs/ROBUSTNESS.md). Null =
  /// disabled. Create the token (and any robust::Watchdog) BEFORE
  /// building runners: make_regular_trial_runner captures options by
  /// value. A fired token truncates the campaign: run_cell_trials
  /// stops claiming, discards the chunk in flight and keeps the chunks
  /// landed before it.
  const robust::CancelToken* cancel = nullptr;
  /// Seeded exponential backoff between retry attempts of a failed
  /// trial; disabled (base_ns == 0) by default. Attempt 0 never sleeps,
  /// so campaigns that do not retry are bit-compatible with pre-backoff
  /// artifacts. The realized delay lands in TrialRecord::backoff_ns.
  robust::BackoffPolicy backoff;
  /// Test seam for backoff sleeping; null = real sleep in <=10ms slices
  /// that poll `cancel` between slices (a cancelled campaign never waits
  /// out a long backoff schedule).
  void (*sleep_fn)(std::uint64_t ns) = nullptr;
};

struct McSummary {
  /// Ratio statistics cover COMPLETED trials only: a trial that hit the
  /// box cap has no meaningful ratio, so recording its partial value
  /// would bias the mean downward silently. Invariants (tested):
  ///   ratio.count() == ratio_samples.size()
  ///   ratio_samples.size() + incomplete + failed == trials_run
  /// `boxes` covers all non-failed trials (an incomplete trial spent
  /// max_boxes; a failed trial's spend is unknowable mid-exception).
  stats::Welford ratio;       ///< adaptivity ratio per completed trial
  stats::Welford unit_ratio;  ///< operation-based ratio per completed trial
  stats::Welford boxes;       ///< boxes consumed per non-failed trial
  std::uint64_t incomplete = 0;  ///< trials that hit the box cap / exhaustion
  /// Of the incomplete trials, how many stopped on the max_boxes cap
  /// (StopReason::kBoxCapHit); the rest exhausted their finite source.
  std::uint64_t capped = 0;
  /// Raw per-completed-trial samples, for tail statistics
  /// (beyond-expectation analysis: Definition 3 only bounds the mean).
  /// Use an obs::McRecorder to see which trials were dropped and why.
  std::vector<double> ratio_samples;
  std::vector<double> unit_ratio_samples;

  /// Contained trial failures, in trial order. A campaign only throws
  /// for *campaign-level* faults (unreadable checkpoint, bad options);
  /// per-trial exceptions land here instead.
  std::vector<robust::TrialError> errors;
  std::uint64_t failed = 0;  ///< == errors.size()
  /// True when a budget or cancellation stopped the campaign early. The
  /// mean over the prefix [0, trials_run) is still an unbiased estimate
  /// (trials are exchangeable), but it is never silently presented as
  /// the full run.
  bool truncated = false;
  /// Why the campaign truncated (kNone when truncated == false):
  /// kBudget for the box budget, kDeadline for the wall-clock deadline
  /// (tracker- or watchdog-detected), kExternal for an externally
  /// requested CancelToken.
  robust::CancelReason truncate_reason = robust::CancelReason::kNone;
  std::uint64_t trials_requested = 0;
  std::uint64_t trials_run = 0;  ///< prefix of trials actually aggregated
};

/// The trial body: receives a per-trial seed and the trial's fault
/// injector and returns the finished RunResult. Custom runners couple the
/// profile and the execution (e.g. the adversary-matched order
/// perturbation) and may visit registered fault sites (wrap sources in
/// robust::FaultyBoxSource, sinks in robust::FaultySink, ...).
using RobustTrialRunner =
    std::function<RunResult(std::uint64_t trial_seed,
                            robust::FaultInjector& faults)>;

/// Derived seed of (campaign seed, trial, attempt). Attempt 0 is the
/// historical derivation — recorded seeds from older traces reproduce.
std::uint64_t derive_trial_seed(std::uint64_t seed, std::uint64_t trial,
                                std::uint32_t attempt);

/// Run ONE trial with the full containment policy (bounded retry with
/// reseed, fault injection, categorized capture). Never throws: the
/// record of a trial that exhausts its attempts carries the last
/// attempt's category and message. Only `options`' seed, max_attempts and
/// faults fields participate (plus cancel, backoff and sleep_fn). This is
/// the unit the campaign layer's TrialScheduler (src/campaign) runs,
/// inline on its own threads.
robust::TrialRecord run_single_trial(const McOptions& options,
                                     const RobustTrialRunner& runner,
                                     std::uint64_t trial, bool timing = false);

/// Package the standard (params, n, source-factory) trial body as a
/// self-contained runner: draws a fresh profile per trial from
/// make_source and runs the regular execution against it, routing box
/// draws through the trial's fault injector when options.faults is armed. Captures everything by value except
/// options.faults (a borrowed pointer that must outlive the runner).
RobustTrialRunner make_regular_trial_runner(model::RegularParams params,
                                            std::uint64_t n,
                                            TrialSourceFactory make_source,
                                            const McOptions& options);

/// Fold one finished trial into `summary` (and `recorder`, when set):
/// callers fold in trial order, so the summary and the event stream never
/// depend on thread count or scheduling. Advances trials_run.
void fold_trial(McSummary& summary, const robust::TrialRecord& record,
                obs::McRecorder* recorder);

/// Close a folded summary: check its invariants and send the recorder's
/// final "mc" event.
void finish_summary(const McSummary& summary, obs::McRecorder* recorder);

}  // namespace cadapt::engine
