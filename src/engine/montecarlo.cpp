#include "engine/montecarlo.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "robust/checkpoint.hpp"
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
      // which discards the whole in-flight chunk.
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

RobustTrialRunner as_robust_runner(TrialRunner runner) {
  CADAPT_CHECK(runner != nullptr);
  return [runner = std::move(runner)](std::uint64_t trial_seed,
                                      robust::FaultInjector&) {
    return runner(trial_seed);
  };
}

namespace {

/// Fold one finished trial into the summary and the recorder — always on
/// the driver thread, always in trial order, so summary and event stream
/// are independent of the pool size and of chunk boundaries.
void aggregate_trial(McSummary& summary, const robust::TrialRecord& t,
                     obs::McRecorder* recorder) {
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

}  // namespace

McSummary run_monte_carlo_robust(const McOptions& options,
                                 const RobustTrialRunner& runner) {
  CADAPT_CHECK(options.trials >= 1);
  CADAPT_CHECK(runner != nullptr);
  CADAPT_CHECK(options.max_attempts >= 1);
  util::ThreadPool& the_pool =
      options.pool != nullptr ? *options.pool : util::default_pool();
  obs::McRecorder* recorder = options.recorder;
  const bool timing = recorder != nullptr && recorder->record_timing();

  // Resume: a missing file is a fresh start, anything else must parse and
  // must identify the same campaign.
  const robust::CheckpointHeader header{1, options.trials, options.seed,
                                        options.config};
  std::map<std::uint64_t, robust::TrialRecord> known;
  if (options.resume && !options.checkpoint_path.empty()) {
    std::ifstream probe(options.checkpoint_path);
    if (probe.good()) {
      robust::CheckpointData data = robust::load_checkpoint(probe);
      if (!(data.header == header)) {
        // Name every mismatched field: "different campaign" alone sends
        // the user diffing JSONL headers by hand.
        std::string detail;
        const auto note = [&detail](const char* field, const std::string& have,
                                    const std::string& want) {
          if (!detail.empty()) detail += ", ";
          detail += std::string(field) + " is " + have + " but campaign has " +
                    want;
        };
        if (data.header.version != header.version) {
          note("version", std::to_string(data.header.version),
               std::to_string(header.version));
        }
        if (data.header.trials != header.trials) {
          note("trials", std::to_string(data.header.trials),
               std::to_string(header.trials));
        }
        if (data.header.seed != header.seed) {
          note("seed", std::to_string(data.header.seed),
               std::to_string(header.seed));
        }
        if (data.header.config != header.config) {
          note("config_hash", "'" + data.header.config + "'",
               "'" + header.config + "'");
        }
        throw util::ParseError("checkpoint '" + options.checkpoint_path +
                               "' belongs to a different campaign (its " +
                               detail + ")");
      }
      known = std::move(data.records);
    }
  }
  robust::IoBackend& io =
      options.io != nullptr ? *options.io : robust::system_io();
  std::unique_ptr<robust::CheckpointWriter> writer;
  if (!options.checkpoint_path.empty()) {
    writer = std::make_unique<robust::CheckpointWriter>(
        options.checkpoint_path, header, /*append=*/options.resume, io);
  }

  robust::BudgetTracker tracker(options.budget, options.clock);

  // Chunk size only matters when something observes chunk boundaries
  // (checkpoint flushes, budget checks); otherwise run one big chunk.
  // Chunking never changes the summary: aggregation happens in trial
  // order either way.
  const std::uint64_t chunk_size =
      (writer != nullptr || options.budget.enabled())
          ? std::max<std::uint64_t>(1, options.checkpoint_every)
          : options.trials;

  McSummary summary;
  summary.trials_requested = options.trials;
  summary.ratio_samples.reserve(options.trials);
  summary.unit_ratio_samples.reserve(options.trials);
  for (std::uint64_t start = 0; start < options.trials; start += chunk_size) {
    if (options.cancel != nullptr && options.cancel->requested()) {
      summary.truncated = true;
      summary.truncate_reason = options.cancel->reason();
      break;
    }
    if (tracker.exceeded()) {
      summary.truncated = true;
      summary.truncate_reason = tracker.boxes_exceeded()
                                    ? robust::CancelReason::kBudget
                                    : robust::CancelReason::kDeadline;
      break;
    }
    const std::uint64_t end =
        std::min(options.trials, start + chunk_size);

    // Indices in this chunk that the checkpoint does not already cover.
    std::vector<std::uint64_t> todo;
    todo.reserve(end - start);
    for (std::uint64_t i = start; i < end; ++i) {
      if (known.find(i) == known.end()) todo.push_back(i);
    }
    std::vector<robust::TrialRecord> fresh(todo.size());
    try {
      util::parallel_for(the_pool, todo.size(), [&](std::size_t k) {
        fresh[k] = run_single_trial(options, runner, todo[k], timing);
      });
    } catch (const robust::CancelledError& e) {
      // Discard the whole in-flight chunk: aggregating a partially
      // filled `fresh` would make the reported prefix depend on which
      // trials happened to finish before the token fired. Committed
      // chunks are untouched, so a --resume re-runs exactly this chunk
      // and the merged summary stays bit-identical.
      summary.truncated = true;
      summary.truncate_reason = e.reason();
      break;
    }

    // Merge, account, aggregate, persist — single-threaded, trial order.
    std::size_t next_fresh = 0;
    for (std::uint64_t i = start; i < end; ++i) {
      const auto it = known.find(i);
      const robust::TrialRecord& t =
          it != known.end() ? it->second : fresh[next_fresh++];
      if (it == known.end() && !t.failed) tracker.add_boxes(t.boxes);
      aggregate_trial(summary, t, recorder);
    }
    if (writer != nullptr && !fresh.empty()) writer->append(fresh);
    summary.trials_run = end;
  }

  CADAPT_CHECK(summary.ratio_samples.size() + summary.incomplete +
                   summary.failed ==
               summary.trials_run);
  if (recorder != nullptr) {
    recorder->finish({summary.trials_requested, summary.truncated});
  }
  return summary;
}

McSummary run_monte_carlo(const model::RegularParams& params, std::uint64_t n,
                          const TrialSourceFactory& make_source,
                          const McOptions& options) {
  return run_monte_carlo_robust(
      options, make_regular_trial_runner(params, n, make_source, options));
}

McSummary run_monte_carlo_iid(const model::RegularParams& params,
                              std::uint64_t n,
                              const profile::BoxDistribution& dist,
                              const McOptions& options) {
  return run_monte_carlo(
      params, n,
      [&dist](util::Rng& rng) {
        return std::make_unique<profile::DistributionSource>(dist, rng.split());
      },
      options);
}

}  // namespace cadapt::engine
