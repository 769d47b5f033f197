// Micro-benchmarks (google-benchmark) for the simulator's hot paths:
// box consumption in the symbolic engine, lazy worst-case profile
// generation, LRU paging, the analytic solver, and the JSONL report
// codec. These guard the simulator's throughput — the experiment benches
// sweep tens of millions of boxes.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "algos/funnelsort.hpp"
#include "algos/sim_data.hpp"
#include "campaign/cell_runner.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "campaign/sweep.hpp"
#include "engine/analytic.hpp"
#include "engine/exec.hpp"
#include "engine/montecarlo.hpp"
#include "obs/recorder.hpp"
#include "obs/sink.hpp"
#include "paging/address_space.hpp"
#include "paging/block_run.hpp"
#include "paging/ca_machine.hpp"
#include "paging/lru_cache.hpp"
#include "paging/reference_lru.hpp"
#include "profile/box_source.hpp"
#include "profile/distributions.hpp"
#include "profile/worst_case.hpp"
#include "report/cell_store.hpp"
#include "report/jsonl_io.hpp"
#include "sched/deque.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace {

using namespace cadapt;

void BM_EngineUnitBoxes(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const std::uint64_t n = util::ipow(4, k);
  std::uint64_t boxes = 0;
  for (auto _ : state) {
    engine::RegularExecution exec({8, 4, 1.0}, n);
    while (!exec.done()) exec.consume_box(1);
    boxes += exec.boxes_consumed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(boxes));
}
BENCHMARK(BM_EngineUnitBoxes)->Arg(3)->Arg(5)->Arg(6);

// The same loop with the observability layer attached, aggregates only.
// Compare against BM_EngineUnitBoxes: the gap is the full cost of the
// instrumentation, and BM_EngineUnitBoxes itself (recorder pointer null)
// must stay within noise of the pre-observability baseline — the
// "disabled path costs one predictable branch" claim.
void BM_EngineUnitBoxesRecorded(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const std::uint64_t n = util::ipow(4, k);
  std::uint64_t boxes = 0;
  for (auto _ : state) {
    engine::RegularExecution exec({8, 4, 1.0}, n);
    obs::ExecRecorder recorder;  // aggregates only, no event stream
    exec.set_recorder(&recorder);
    while (!exec.done()) exec.consume_box(1);
    boxes += exec.boxes_consumed();
    benchmark::DoNotOptimize(recorder.total_progress());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(boxes));
}
BENCHMARK(BM_EngineUnitBoxesRecorded)->Arg(3)->Arg(5)->Arg(6);

// Full event stream into a NullSink: the cost ceiling of per-box tracing
// (event construction dominates; a JsonlSink adds only serialization).
void BM_EngineUnitBoxesTraced(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const std::uint64_t n = util::ipow(4, k);
  std::uint64_t boxes = 0;
  for (auto _ : state) {
    engine::RegularExecution exec({8, 4, 1.0}, n);
    obs::NullSink sink;
    obs::ExecRecorder recorder(&sink);
    exec.set_recorder(&recorder);
    while (!exec.done()) exec.consume_box(1);
    boxes += exec.boxes_consumed();
    benchmark::DoNotOptimize(sink.events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(boxes));
}
BENCHMARK(BM_EngineUnitBoxesTraced)->Arg(3)->Arg(5);

void BM_EngineWorstCaseProfile(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const std::uint64_t n = util::ipow(4, k);
  std::uint64_t boxes = 0;
  for (auto _ : state) {
    engine::RegularExecution exec({8, 4, 1.0}, n);
    profile::WorstCaseSource source(8, 4, n);
    while (!exec.done()) exec.consume_box(*source.next());
    boxes += exec.boxes_consumed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(boxes));
}
BENCHMARK(BM_EngineWorstCaseProfile)->Arg(4)->Arg(6)->Arg(7);

// The run-length bulk path (docs/PERF.md): the same worst-case replay as
// BM_EngineWorstCaseProfile, driven through run_to_completion's bulk
// driver (next_run + consume_run + closed-form block replay) instead of
// the per-box loop. Items processed counts boxes RETIRED, not calls, so
// items/sec is directly comparable against BM_EngineWorstCaseProfile —
// that before/after pair is what BENCH_engine_rle.json commits. The k=12
// arg covers the regime the per-box loop cannot reach at all (~7.9e10
// boxes per iteration).
void BM_EngineRunBoxes(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const std::uint64_t n = util::ipow(4, k);
  std::uint64_t boxes = 0;
  for (auto _ : state) {
    engine::RegularExecution exec({8, 4, 1.0}, n);
    profile::WorstCaseSource source(8, 4, n);
    engine::run_to_completion(exec, source);
    boxes += exec.boxes_consumed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(boxes));
}
BENCHMARK(BM_EngineRunBoxes)->Arg(4)->Arg(6)->Arg(7)->Arg(10)->Arg(12);

// A constant box stream (E4's iid:point:16): one run covers the whole
// trial, and consume_run's subtree probes retire every middle child in
// closed form. Items processed counts boxes retired, as above.
void BM_EnginePointMassRun(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const std::uint64_t n = util::ipow(4, k);
  const profile::PointMass dist(16);
  std::uint64_t boxes = 0;
  for (auto _ : state) {
    engine::RegularExecution exec({8, 4, 1.0}, n);
    profile::DistributionSource source(dist, util::Rng(1));
    benchmark::DoNotOptimize(engine::run_to_completion(exec, source));
    boxes += exec.boxes_consumed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(boxes));
}
BENCHMARK(BM_EnginePointMassRun)->Arg(8)->Arg(10)->Arg(12);

// Varied box sizes (docs/PERF.md, "Table-driven leaf levels"): one
// (8,4,1) trial on the shuffled census of M_{8,4}(n) (uniform = 0) or on
// iid:uniform-range:1:64 (uniform = 1), through the default driver
// (per_box = 0: batched draws, the leaf transition table, in-scan
// stretches) or the per-box reference loop (per_box = 1). Items
// processed counts boxes retired, so each pair shows the engine-layer
// gain apart from process and sweep overhead.
void BM_EngineVaried(benchmark::State& state) {
  const bool uniform = state.range(0) != 0;
  const auto k = static_cast<unsigned>(state.range(1));
  const model::RegularParams p{8, 4, 1.0};
  const std::uint64_t n = util::ipow(p.b, k);
  const profile::GeometricPowers census(p.b, static_cast<double>(p.a), 0, k);
  const profile::UniformRange range(1, 64);
  const profile::BoxDistribution& dist =
      uniform ? static_cast<const profile::BoxDistribution&>(range) : census;
  engine::RunOptions options;
  options.per_box = state.range(2) != 0;
  std::uint64_t boxes = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    engine::RegularExecution exec(p, n);
    profile::DistributionSource source(dist, util::Rng(seed++));
    benchmark::DoNotOptimize(engine::run_to_completion(exec, source, options));
    boxes += exec.boxes_consumed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(boxes));
}
BENCHMARK(BM_EngineVaried)
    ->ArgNames({"uniform", "k", "per_box"})
    ->ArgsProduct({{0, 1}, {6, 7}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// The draw alone (docs/PERF.md, "Table-driven leaf levels"): runs of
// BM_EngineVaried's census (k = 7, uniform = 0) or uniform-range:1:64
// (uniform = 1), drawn 64 a batch as run_to_completion draws them, with
// no engine behind them. Items processed counts boxes drawn, so its ns a
// box is the draw's share of BM_EngineVaried's.
void BM_DistributionDraw(benchmark::State& state) {
  const profile::GeometricPowers census(4, 8.0, 0, 7);
  const profile::UniformRange range(1, 64);
  const profile::BoxDistribution& dist =
      state.range(0) != 0 ? static_cast<const profile::BoxDistribution&>(range)
                          : census;
  profile::DistributionSource source(dist, util::Rng(1));
  std::array<profile::BoxRun, 64> batch;
  std::uint64_t boxes = 0;
  for (auto _ : state) {
    source.next_runs(batch);
    for (const profile::BoxRun& run : batch) boxes += run.count;
    benchmark::DoNotOptimize(batch.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(boxes));
}
BENCHMARK(BM_DistributionDraw)->ArgName("uniform")->Arg(0)->Arg(1);

// The bulk driver forced down the per-box fallback (RunOptions.per_box):
// the "before" side of the pair at the old toy scales. Any gap between
// this and BM_EngineWorstCaseProfile is dispatch overhead only.
void BM_EngineRunBoxesPerBox(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const std::uint64_t n = util::ipow(4, k);
  std::uint64_t boxes = 0;
  for (auto _ : state) {
    engine::RegularExecution exec({8, 4, 1.0}, n);
    profile::WorstCaseSource source(8, 4, n);
    engine::RunOptions options;
    options.per_box = true;
    engine::run_to_completion(exec, source, options);
    boxes += exec.boxes_consumed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(boxes));
}
BENCHMARK(BM_EngineRunBoxesPerBox)->Arg(4)->Arg(6)->Arg(7);

// Bulk path with a kRuns recorder attached: the aggregated-observation
// overhead (one RunObservation per run/replay instead of one per box).
void BM_EngineRunBoxesRecorded(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const std::uint64_t n = util::ipow(4, k);
  std::uint64_t boxes = 0;
  for (auto _ : state) {
    engine::RegularExecution exec({8, 4, 1.0}, n);
    profile::WorstCaseSource source(8, 4, n);
    obs::ExecRecorder recorder(nullptr, obs::BoxGranularity::kRuns);
    engine::RunOptions options;
    options.recorder = &recorder;
    engine::run_to_completion(exec, source, options);
    boxes += exec.boxes_consumed();
    benchmark::DoNotOptimize(recorder.total_progress());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(boxes));
}
BENCHMARK(BM_EngineRunBoxesRecorded)->Arg(6)->Arg(10);

void BM_WorstCaseGeneration(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const std::uint64_t n = util::ipow(4, k);
  std::uint64_t boxes = 0;
  for (auto _ : state) {
    profile::WorstCaseSource source(8, 4, n);
    while (auto box = source.next()) benchmark::DoNotOptimize(*box);
    boxes += profile::worst_case_box_count(8, 4, n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(boxes));
}
BENCHMARK(BM_WorstCaseGeneration)->Arg(5)->Arg(7);

void BM_IidSampling(benchmark::State& state) {
  profile::GeometricPowers dist(4, 8.0, 0, 8);
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(dist.sample(rng));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IidSampling);

void BM_LruAccess(benchmark::State& state) {
  paging::LruCache cache(static_cast<std::uint64_t>(state.range(0)));
  util::Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.access(rng.below(1 << 12)));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LruAccess)->Arg(64)->Arg(1024);

// ---- Paging fast path (docs/PERF.md, "Paging fast path") ----
// Before/after pairs for the three layers of the fast path; one run of
// this family is committed as BENCH_paging.json. The "before" side is
// the reference kept for the differential suite (ReferenceLruCache /
// set_per_access), proven bit-identical by tests/test_paging_fast.cpp.

// Data-structure layer: flat intrusive LRU (BM_LruAccess above) vs the
// old std::list + unordered_map implementation on the same block stream.
void BM_LruCacheReference(benchmark::State& state) {
  paging::ReferenceLruCache cache(static_cast<std::uint64_t>(state.range(0)));
  util::Rng rng(7);
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.access(rng.below(1 << 12)));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LruCacheReference)->Arg(64)->Arg(1024);

constexpr std::uint64_t kScanWords = 1 << 16;
constexpr std::uint64_t kScanBlock = 8;

std::unique_ptr<profile::BoxSource> make_const_boxes() {
  return std::make_unique<profile::CyclingSource>([] {
    return std::make_unique<profile::VectorSource>(
        std::vector<profile::BoxSize>(64, 64));
  });
}

paging::CaMachine make_scan_machine() {
  return paging::CaMachine(make_const_boxes(), kScanBlock,
                           /*record_boxes=*/false);
}

// Dispatch layer: a sequential word scan (the dominant pattern in the
// instrumented algorithms) through the pre-fast-path stack (per-word
// virtual dispatch into the list+map LRU — the "before" of the >= 10x
// per-access claim), the per-access path on the flat LRU, the default
// hot-block shortcut, and the access_run bulk interface.
void BM_PagingAccessReferenceStack(benchmark::State& state) {
  paging::ReferenceCaMachine machine(make_const_boxes(), kScanBlock);
  for (auto _ : state) {
    for (std::uint64_t w = 0; w < kScanWords; ++w) machine.access(w);
  }
  benchmark::DoNotOptimize(machine.misses());
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(kScanWords));
}
BENCHMARK(BM_PagingAccessReferenceStack);

void BM_PagingAccessPerWord(benchmark::State& state) {
  auto machine = make_scan_machine();
  machine.set_per_access(true);
  for (auto _ : state) {
    for (std::uint64_t w = 0; w < kScanWords; ++w) machine.access(w);
  }
  benchmark::DoNotOptimize(machine.misses());
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(kScanWords));
}
BENCHMARK(BM_PagingAccessPerWord);

void BM_PagingAccessFast(benchmark::State& state) {
  auto machine = make_scan_machine();
  for (auto _ : state) {
    for (std::uint64_t w = 0; w < kScanWords; ++w) machine.access(w);
  }
  benchmark::DoNotOptimize(machine.misses());
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(kScanWords));
}
BENCHMARK(BM_PagingAccessFast);

void BM_PagingAccessRun(benchmark::State& state) {
  auto machine = make_scan_machine();
  for (auto _ : state) {
    for (std::uint64_t w = 0; w < kScanWords; w += kScanBlock) {
      machine.access_run(w, kScanBlock);
    }
  }
  benchmark::DoNotOptimize(machine.misses());
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(kScanWords));
}
BENCHMARK(BM_PagingAccessRun);

// Replay layer: the same scan consumed from a recorded trace by
// CaMachine::replay_trace — previous-occurrence compares counted a chunk
// at a time, no hash probe, no LRU update. This is what every post-capture trial of a
// `--capture-trace` Monte-Carlo cell executes.
void BM_PagingReplayWalk(benchmark::State& state) {
  paging::BlockRunRecorder recorder(kScanBlock);
  for (std::uint64_t w = 0; w < kScanWords; w += kScanBlock) {
    recorder.access_run(w, kScanBlock);
  }
  const paging::BlockRunTrace trace = recorder.take();
  std::uint64_t misses = 0;
  for (auto _ : state) {
    auto machine = make_scan_machine();
    machine.replay_trace(trace);
    misses += machine.misses();
  }
  benchmark::DoNotOptimize(misses);
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(kScanWords));
}
BENCHMARK(BM_PagingReplayWalk);

// A 65536-key funnelsort run through a BlockRunRecorder, plus take(),
// which builds the replay index: the trace an E16 funnel cell replays.
paging::BlockRunTrace capture_funnelsort() {
  constexpr std::size_t kKeys = 65536;
  paging::BlockRunRecorder recorder(kScanBlock);
  paging::AddressSpace space(kScanBlock);
  algos::SimVector<std::int64_t> data(recorder, space, kKeys);
  util::Rng rng(42);
  for (std::size_t i = 0; i < kKeys; ++i) {
    data.raw(i) = static_cast<std::int64_t>(rng.below(1u << 24));
  }
  algos::funnelsort(recorder, space, data);
  return recorder.take();
}

// The replay walk on a real trace: funnelsort's runs hit far more often
// than the scan's, so most chunks of the walk fit in their box and
// retire with one add. Items are replayed runs.
void BM_PagingReplayWalkFunnel(benchmark::State& state) {
  const paging::BlockRunTrace trace = capture_funnelsort();
  std::uint64_t misses = 0;
  for (auto _ : state) {
    auto machine = make_scan_machine();
    machine.replay_trace(trace);
    misses += machine.misses();
  }
  benchmark::DoNotOptimize(misses);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.runs().size()));
}
BENCHMARK(BM_PagingReplayWalkFunnel);

// Capture layer: the record half of record-once/replay-many. This is
// what one trial of each `trace_replay` program pays per sweep. Items
// are captured runs.
void BM_PagingCapture(benchmark::State& state) {
  std::uint64_t runs = 0;
  for (auto _ : state) runs += capture_funnelsort().runs().size();
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_PagingCapture);

// End-to-end layer: one real-algorithm Monte-Carlo cell — funnelsort on
// 65536 keys under i.i.d. uniform boxes, 32 trials (the E16 scale in
// bench/manifests). The "before" runs each trial on the pre-fast-path
// reference stack (same trial seeding and input generation as the cell
// runner); "direct" and "replay" go through the campaign cell runner,
// i.e. the exact code path of `cadapt mc --sort funnel
// [--capture-trace]`. Replay pays one capture run per cell, so its
// advantage grows with the trial count (campaign default is 64).
constexpr std::uint64_t kCellKeys = 65536;
constexpr std::uint64_t kCellTrials = 32;

void BM_McCellFunnelReferenceStack(benchmark::State& state) {
  std::uint64_t misses = 0;
  for (auto _ : state) {
    for (std::uint64_t t = 0; t < kCellTrials; ++t) {
      const std::uint64_t trial_seed = engine::derive_trial_seed(42, t, 0);
      auto dist = std::make_shared<profile::UniformRange>(4, 128);
      util::Rng profile_rng(util::hash_combine(trial_seed, 0x50f17eull));
      paging::ReferenceCaMachine machine(
          std::make_unique<profile::CyclingSource>(
              [dist, profile_rng]() mutable {
                return std::make_unique<profile::DistributionSource>(
                    *dist, profile_rng.split());
              }),
          kScanBlock);
      paging::AddressSpace space(kScanBlock);
      algos::SimVector<std::int64_t> data(
          machine, space, static_cast<std::size_t>(kCellKeys));
      util::Rng rng(trial_seed);
      for (std::size_t i = 0; i < kCellKeys; ++i) {
        data.raw(i) = static_cast<std::int64_t>(rng.below(1u << 24));
      }
      algos::funnelsort(machine, space, data);
      misses += machine.misses();
    }
  }
  benchmark::DoNotOptimize(misses);
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(kCellTrials));
}
BENCHMARK(BM_McCellFunnelReferenceStack);

void run_mc_cell(benchmark::State& state, bool capture_trace) {
  campaign::Cell cell;
  cell.sort = "funnel";
  cell.profile =
      campaign::parse_profile_token("uniform:4:128", campaign::Workload::kSort);
  cell.seed = 42;
  campaign::CellRunOptions options;
  options.keys = kCellKeys;
  options.block = kScanBlock;
  options.timing = false;
  options.capture_trace = capture_trace;
  engine::McOptions trial_options;
  trial_options.seed = cell.seed;
  std::uint64_t boxes = 0;
  for (auto _ : state) {
    const auto runner = campaign::make_cell_runner(cell, options);
    for (std::uint64_t t = 0; t < kCellTrials; ++t) {
      boxes += engine::run_single_trial(trial_options, runner, t,
                                        /*timing=*/false)
                   .boxes;
    }
  }
  benchmark::DoNotOptimize(boxes);
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(kCellTrials));
}

void BM_McCellFunnelDirect(benchmark::State& state) {
  run_mc_cell(state, /*capture_trace=*/false);
}
BENCHMARK(BM_McCellFunnelDirect);

void BM_McCellFunnelReplay(benchmark::State& state) {
  run_mc_cell(state, /*capture_trace=*/true);
}
BENCHMARK(BM_McCellFunnelReplay);

// The work-stealing deque's serial hot path (docs/PARALLEL.md): the
// owner's push/pop pair, and push/steal — the two single-element
// round-trips every scheduling decision is built from. Contention costs
// are the tsan-lane stress test's concern; this guards the per-op floor
// the parallel engine pays even when no thief ever shows up.
void BM_StealDeque(benchmark::State& state) {
  const bool steal_side = state.range(0) != 0;
  sched::StealDeque<std::uint64_t> dq(1024);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    for (std::uint64_t i = 0; i < 512; ++i) dq.push(i);
    for (std::uint64_t i = 0; i < 512; ++i) {
      sum += steal_side ? *dq.steal() : *dq.pop();
    }
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_StealDeque)->Arg(0)->Arg(1);

// An adaptive-sort cell — the workload trace replay cannot cover — on
// the shared trial loop (campaign::run_cell_trials, the loop `cadapt
// sweep`, `cadapt serve` and `cadapt mc` run) at 1 vs 4 threads. Items =
// trials, so items/sec across the two args is the cell-level speedup
// BENCH_parallel.json reports as cell_wall_speedup. Records land at their
// trial index either way; the identity tests hold the summary equal to
// the sequential run_cell's.
void BM_ParallelCell(benchmark::State& state) {
  campaign::Cell cell;
  cell.sort = "adaptive";
  cell.profile =
      campaign::parse_profile_token("uniform:4:64", campaign::Workload::kSort);
  cell.seed = 42;
  cell.trials = 8;
  campaign::CellRunOptions options;
  options.keys = 4096;
  options.block = kScanBlock;
  options.timing = false;
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  engine::McOptions trial_options = campaign::trial_options_for(cell, options);
  trial_options.pool = &pool;
  double boxes = 0;
  for (auto _ : state) {
    boxes += campaign::run_cell_trials(
                 trial_options, campaign::make_cell_runner(cell, options))
                 .boxes.mean();
  }
  benchmark::DoNotOptimize(boxes);
  state.SetItemsProcessed(
      state.iterations() * static_cast<std::int64_t>(cell.trials));
}
BENCHMARK(BM_ParallelCell)->Arg(1)->Arg(4);

// The JSONL report codec (docs/REPORT.md) on a synthesized ratio
// campaign shaped like perfbench's `report` shards: 3 algos, 4 profiles,
// 4 samples per cell. Items = cells.
report::CellStore synth_report_store(std::uint64_t cells) {
  static const char* kAlgos[] = {"8:4:1", "7:4:1", "4:2:1"};
  static const char* kProfiles[] = {"worst", "shuffled", "iid:geometric:6",
                                    "iid:point:16"};
  report::CellStore store;
  store.name = "microbench_report";
  store.config_hash = cells;
  store.cells_total = cells;
  store.reserve(cells, cells * 4);
  util::Rng rng(cells);
  campaign::CellResult c;
  for (std::uint64_t i = 0; i < cells; ++i) {
    c.index = i;
    c.algo = kAlgos[i % 3];
    c.profile = kProfiles[(i / 3) % 4];
    c.k = static_cast<unsigned>(1 + (i / 12) % 12);
    c.n = std::uint64_t{1} << c.k;
    c.trials = c.completed = 4;
    c.samples.clear();
    for (int t = 0; t < 4; ++t) c.samples.push_back(1.0 + rng.uniform01());
    c.mean = c.ci_lo = c.ci_hi = c.samples[0];
    c.q50 = c.q90 = c.q95 = c.samples[1];
    c.boxes_mean = static_cast<double>(c.n) * (1.0 + rng.uniform01());
    store.append(c);
  }
  return store;
}

/// Load: report::load_store_jsonl over an in-memory report (the `sweep
/// --merge` / `report import` read path, without the disk).
void BM_ReportJsonlLoad(benchmark::State& state) {
  const auto cells = static_cast<std::uint64_t>(state.range(0));
  std::ostringstream os;
  synth_report_store(cells).export_report_stream(os);
  const std::string text = os.str();
  for (auto _ : state) {
    std::istringstream is(text);
    benchmark::DoNotOptimize(report::load_store_jsonl(is).cell_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ReportJsonlLoad)->Arg(10000)->Arg(100000);

/// Export: CellStore::export_report into a byte-counting sink (the JSONL
/// write path of `sweep --merge` and `report export`, without the disk).
void BM_ReportJsonlExport(benchmark::State& state) {
  const auto cells = static_cast<std::uint64_t>(state.range(0));
  const report::CellStore store = synth_report_store(cells);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    store.export_report([&bytes](std::string_view line) {
      bytes += line.size();
    });
  }
  benchmark::DoNotOptimize(bytes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells));
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ReportJsonlExport)->Arg(10000)->Arg(100000);

void BM_AnalyticSolve(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  profile::GeometricPowers dist(4, 8.0, 0, k);
  engine::AnalyticSolver solver({8, 4, 1.0}, dist);
  for (auto _ : state)
    benchmark::DoNotOptimize(solver.solve(util::ipow(4, k)).back().f);
}
BENCHMARK(BM_AnalyticSolve)->Arg(6)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
