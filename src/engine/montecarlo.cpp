#include "engine/montecarlo.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace cadapt::engine {

namespace {

/// Sleep out a backoff delay in slices short enough that a cancellation
/// request interrupts the wait promptly — a cancelled campaign must not
/// wait out a multi-second retry schedule. `sleep_fn` is the test seam:
/// when set it receives the full delay once, unsliced.
void backoff_sleep(std::uint64_t ns, const robust::CancelToken* cancel,
                   void (*sleep_fn)(std::uint64_t)) {
  if (ns == 0) return;
  if (sleep_fn != nullptr) {
    sleep_fn(ns);
    return;
  }
  constexpr std::uint64_t kSliceNs = 10'000'000;  // 10ms
  while (ns > 0) {
    if (cancel != nullptr) cancel->poll();
    const std::uint64_t slice = std::min(ns, kSliceNs);
    std::this_thread::sleep_for(std::chrono::nanoseconds(slice));
    ns -= slice;
  }
}

}  // namespace

std::uint64_t derive_trial_seed(std::uint64_t seed, std::uint64_t trial,
                                std::uint32_t attempt) {
  // Attempt 0 must stay bit-compatible with the original derivation:
  // per-trial seeds are recorded in traces and checkpoints, and resumes
  // rely on reproducing them exactly.
  std::uint64_t mix = seed;
  (void)util::splitmix64(mix);
  mix ^= 0x9E3779B97F4A7C15ull * (trial + 1);
  if (attempt != 0) mix = util::hash_combine(mix, attempt);
  return mix;
}

robust::TrialRecord run_single_trial(const McOptions& options,
                                     const RobustTrialRunner& runner,
                                     std::uint64_t trial, bool timing) {
  robust::TrialRecord record;
  record.trial = trial;
  for (std::uint32_t attempt = 0; attempt < options.max_attempts; ++attempt) {
    if (options.cancel != nullptr) options.cancel->poll();
    if (attempt != 0 && options.backoff.enabled()) {
      const std::uint64_t delay =
          robust::backoff_delay_ns(options.backoff, trial, attempt);
      record.backoff_ns += delay;
      backoff_sleep(delay, options.cancel, options.sleep_fn);
    }
    const std::uint64_t seed = derive_trial_seed(options.seed, trial, attempt);
    record.seed = seed;
    record.attempts = attempt + 1;
    record.failed = false;
    robust::FaultInjector injector(options.faults, trial, attempt);
    const std::uint64_t t0 = timing ? obs::steady_now_ns() : 0;
    try {
      injector.step(robust::FaultSite::kTrialBody);
      const RunResult r = runner(seed, injector);
      record.completed = r.completed;
      record.capped = r.stop == StopReason::kBoxCapHit;
      record.boxes = r.boxes;
      record.ratio = r.ratio;
      record.unit_ratio = r.unit_ratio;
      record.duration_ns = timing ? obs::steady_now_ns() - t0 : 0;
      return record;
    } catch (const robust::CancelledError&) {
      // Cancellation is not a trial failure: never contained, never
      // retried, never persisted. It propagates to the campaign driver,
      // which discards the whole in-flight chunk or cell.
      throw;
    } catch (const std::exception& e) {
      record.failed = true;
      record.category = robust::categorize(e);
      record.what = e.what();
    } catch (...) {
      record.failed = true;
      record.category = robust::ErrorCategory::kOther;
      record.what = "non-std::exception thrown by trial body";
    }
  }
  return record;
}

RobustTrialRunner make_regular_trial_runner(model::RegularParams params,
                                            std::uint64_t n,
                                            TrialSourceFactory make_source,
                                            const McOptions& options) {
  CADAPT_CHECK(make_source != nullptr);
  return [params, n, make_source = std::move(make_source),
          placement = options.placement, semantics = options.semantics,
          max_boxes = options.max_boxes, per_box = options.per_box,
          faults = options.faults,
          cancel = options.cancel](std::uint64_t trial_seed,
                                   robust::FaultInjector& injector) {
    util::Rng rng(trial_seed);
    auto source = make_source(rng);
    CADAPT_CHECK(source != nullptr);
    RunOptions run_options;
    run_options.max_boxes = max_boxes;
    run_options.per_box = per_box;
    run_options.cancel = cancel;
    if (faults != nullptr) {
      // Route every draw through the injector so FaultSite::kBoxDraw
      // is exercised; unarmed plans never take this branch's cost.
      // FaultyBoxSource does not forward runs or blocks, so injection
      // stays per-box (see robust/fault.hpp).
      robust::FaultyBoxSource faulty(std::move(source), &injector);
      return run_regular(params, n, faulty, placement,
                         /*adversary_seed=*/0, semantics, run_options);
    }
    return run_regular(params, n, *source, placement,
                       /*adversary_seed=*/0, semantics, run_options);
  };
}

void fold_trial(McSummary& summary, const robust::TrialRecord& t,
                obs::McRecorder* recorder) {
  ++summary.trials_run;
  if (t.failed) {
    summary.errors.push_back({t.trial, t.seed, t.attempts, t.category, t.what});
    ++summary.failed;
    if (recorder != nullptr) {
      recorder->on_trial_error({t.trial, t.seed, t.attempts,
                                robust::error_category_name(t.category),
                                t.what});
    }
    return;
  }
  summary.boxes.add(static_cast<double>(t.boxes));
  if (recorder != nullptr) {
    recorder->on_trial({t.trial, t.seed, t.completed, t.capped, t.boxes,
                        t.ratio, t.unit_ratio, t.duration_ns});
  }
  if (!t.completed) {
    // No meaningful ratio: the run was cut off. Keep the sample vectors
    // aligned with completed trials only (see McSummary's invariants).
    ++summary.incomplete;
    if (t.capped) ++summary.capped;
    return;
  }
  summary.ratio.add(t.ratio);
  summary.unit_ratio.add(t.unit_ratio);
  summary.ratio_samples.push_back(t.ratio);
  summary.unit_ratio_samples.push_back(t.unit_ratio);
}

void finish_summary(const McSummary& summary, obs::McRecorder* recorder) {
  CADAPT_CHECK(summary.ratio_samples.size() + summary.incomplete +
                   summary.failed ==
               summary.trials_run);
  if (recorder != nullptr) {
    recorder->finish({summary.trials_requested, summary.truncated});
  }
}

}  // namespace cadapt::engine
