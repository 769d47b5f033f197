// Determinism property tests for the Monte-Carlo campaign
// (campaign::run_cell_trials, the sweep's trial loop) with
// observability attached: the same seed must produce bit-identical
// summaries AND bit-identical trace event streams regardless of the
// thread-pool size, because every trial's RNG is derived from
// (seed, trial index) alone and trace emission happens single-threaded in
// trial order after the parallel phase.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/sweep.hpp"
#include "core/workloads.hpp"
#include "engine/montecarlo.hpp"
#include "obs/event.hpp"
#include "obs/recorder.hpp"
#include "obs/sink.hpp"
#include "profile/distributions.hpp"
#include "util/thread_pool.hpp"

namespace cadapt::engine {
namespace {

using model::RegularParams;

struct McRun {
  McSummary summary;
  std::vector<std::string> jsonl;  // one serialized line per trace event
};

McRun run_with_pool(std::size_t threads, bool record_timing,
                    std::uint64_t max_boxes = UINT64_C(1) << 40) {
  const RegularParams params{8, 4, 1.0};
  const auto dist = std::make_shared<profile::UniformPowers>(4, 0, 3);
  util::ThreadPool pool(threads);
  obs::MemorySink sink;
  obs::McRecorder recorder(&sink, record_timing);

  McOptions options;
  options.trials = 48;
  options.seed = 20260806;
  options.pool = &pool;
  options.recorder = &recorder;
  options.max_boxes = max_boxes;

  McRun run;
  run.summary = campaign::run_cell_trials(
      options, make_regular_trial_runner(params, 64, core::iid_source(dist),
                                         options));
  for (const obs::Event& event : sink.events())
    run.jsonl.push_back(obs::to_jsonl(event));
  return run;
}

void expect_bit_identical(const McRun& a, const McRun& b) {
  // Raw per-trial samples: exact double equality, element by element —
  // "close enough" would hide schedule-dependent reduction orders.
  ASSERT_EQ(a.summary.ratio_samples.size(), b.summary.ratio_samples.size());
  for (std::size_t i = 0; i < a.summary.ratio_samples.size(); ++i) {
    EXPECT_EQ(a.summary.ratio_samples[i], b.summary.ratio_samples[i]) << i;
    EXPECT_EQ(a.summary.unit_ratio_samples[i], b.summary.unit_ratio_samples[i])
        << i;
  }
  EXPECT_EQ(a.summary.incomplete, b.summary.incomplete);
  EXPECT_EQ(a.summary.ratio.mean(), b.summary.ratio.mean());
  EXPECT_EQ(a.summary.ratio.variance(), b.summary.ratio.variance());
  EXPECT_EQ(a.summary.unit_ratio.mean(), b.summary.unit_ratio.mean());
  EXPECT_EQ(a.summary.boxes.mean(), b.summary.boxes.mean());
  EXPECT_EQ(a.summary.boxes.max(), b.summary.boxes.max());

  // The emitted trace streams must be identical line for line.
  ASSERT_EQ(a.jsonl.size(), b.jsonl.size());
  for (std::size_t i = 0; i < a.jsonl.size(); ++i)
    EXPECT_EQ(a.jsonl[i], b.jsonl[i]) << "event " << i;
}

TEST(EngineDeterminism, BitIdenticalAcrossPoolSizes) {
  const McRun one = run_with_pool(1, /*record_timing=*/false);
  const McRun two = run_with_pool(2, /*record_timing=*/false);
  const McRun eight = run_with_pool(8, /*record_timing=*/false);
  expect_bit_identical(one, two);
  expect_bit_identical(one, eight);

  // Sanity: the runs did real work and emitted one "trial" event per
  // trial plus the final "mc" aggregate.
  EXPECT_EQ(one.summary.ratio_samples.size(), 48u);
  ASSERT_EQ(one.jsonl.size(), 49u);
  EXPECT_EQ(one.jsonl.back().rfind("{\"type\":\"mc\"", 0), 0u);
}

TEST(EngineDeterminism, TimingFieldsAreTheOnlyNondeterminism) {
  // With record_timing on, wall-clock durations differ run to run, but
  // stripping "duration_ns" must leave identical streams.
  const RegularParams params{8, 4, 1.0};
  const auto dist = std::make_shared<profile::UniformPowers>(4, 0, 3);
  std::vector<std::string> stripped[2];
  for (int round = 0; round < 2; ++round) {
    util::ThreadPool pool(round == 0 ? 1 : 8);
    obs::MemorySink sink;
    obs::McRecorder recorder(&sink, /*record_timing=*/true);
    McOptions options;
    options.trials = 16;
    options.seed = 7;
    options.pool = &pool;
    options.recorder = &recorder;
    campaign::run_cell_trials(
        options, make_regular_trial_runner(params, 64, core::iid_source(dist),
                                           options));
    for (obs::Event event : sink.events())
      stripped[round].push_back(obs::to_jsonl(event.without("duration_ns")));
  }
  ASSERT_EQ(stripped[0].size(), stripped[1].size());
  for (std::size_t i = 0; i < stripped[0].size(); ++i)
    EXPECT_EQ(stripped[0][i], stripped[1][i]) << "event " << i;
}

TEST(EngineDeterminism, IncompleteTrialsKeepInvariantAcrossPools) {
  // A tiny box cap forces incomplete trials; the accounting invariant
  // ratio_samples.size() + incomplete == trials must hold and the trace
  // must stay deterministic.
  const McRun one = run_with_pool(1, /*record_timing=*/false, /*max_boxes=*/5);
  const McRun eight =
      run_with_pool(8, /*record_timing=*/false, /*max_boxes=*/5);
  expect_bit_identical(one, eight);

  EXPECT_GT(one.summary.incomplete, 0u);
  EXPECT_EQ(one.summary.ratio_samples.size() + one.summary.incomplete, 48u);
  EXPECT_EQ(one.summary.ratio.count(), one.summary.ratio_samples.size());

  // Each incomplete trial is diagnosable from its "trial" event.
  std::size_t incomplete_events = 0;
  for (const std::string& line : one.jsonl) {
    obs::Event event;
    ASSERT_TRUE(obs::parse_jsonl(line, &event));
    if (event.type == "trial" && !event.flag_or("completed", true))
      ++incomplete_events;
  }
  EXPECT_EQ(incomplete_events, one.summary.incomplete);
}

}  // namespace
}  // namespace cadapt::engine
