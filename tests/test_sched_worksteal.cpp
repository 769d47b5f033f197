#include "sched/worksteal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/cell_runner.hpp"
#include "campaign/plan.hpp"
#include "campaign/sweep.hpp"
#include "engine/exec.hpp"
#include "model/regular.hpp"
#include "paging/lru_cache.hpp"
#include "profile/distributions.hpp"
#include "profile/square_approx.hpp"
#include "robust/checkpoint.hpp"
#include "sched/deque.hpp"
#include "util/random.hpp"

namespace cadapt::sched {
namespace {

// ---------------------------------------------------------------------------
// StealDeque

TEST(StealDeque, OwnerIsLifoThievesAreFifo) {
  StealDeque<std::uint64_t> dq(8);
  for (std::uint64_t i = 1; i <= 5; ++i) dq.push(i);
  EXPECT_EQ(dq.size(), 5u);
  EXPECT_EQ(dq.pop(), 5u);      // owner takes the newest
  EXPECT_EQ(dq.steal(), 1u);    // a thief takes the oldest
  EXPECT_EQ(dq.steal(), 2u);
  EXPECT_EQ(dq.pop(), 4u);
  EXPECT_EQ(dq.pop(), 3u);
  EXPECT_EQ(dq.pop(), std::nullopt);
  EXPECT_EQ(dq.steal(), std::nullopt);
  EXPECT_TRUE(dq.empty());
}

TEST(StealDeque, CapacityRoundsUpToPowerOfTwo) {
  StealDeque<std::uint32_t> dq(5);
  EXPECT_EQ(dq.capacity(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) dq.push(i);
  EXPECT_EQ(dq.size(), 8u);
}

// The tsan target: one owner pushing/popping while thieves hammer the
// top. Every element must be delivered exactly once, across owner pops
// and thief steals combined.
TEST(StealDeque, ConcurrentStealsDeliverEachElementOnce) {
  constexpr std::uint64_t kItems = 20000;
  constexpr int kThieves = 3;
  StealDeque<std::uint64_t> dq(kItems);
  std::vector<std::atomic<std::uint32_t>> claimed(kItems);
  std::atomic<std::uint64_t> remaining{kItems};
  const auto claim = [&](std::uint64_t item) {
    claimed[item].fetch_add(1, std::memory_order_relaxed);
    remaining.fetch_sub(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (remaining.load(std::memory_order_relaxed) > 0) {
        if (const auto item = dq.steal()) claim(*item);
      }
    });
  }
  // Owner: push everything, popping every fourth item along the way,
  // then drain — so pop races the thieves on both full and near-empty
  // deques.
  for (std::uint64_t i = 0; i < kItems; ++i) {
    dq.push(i);
    if (i % 4 == 0) {
      if (const auto item = dq.pop()) claim(*item);
    }
  }
  while (remaining.load(std::memory_order_relaxed) > 0) {
    if (const auto item = dq.pop()) claim(*item);
  }
  for (std::thread& thief : thieves) thief.join();

  for (std::uint64_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(claimed[i].load(), 1u) << "item " << i;
  }
  EXPECT_TRUE(dq.empty());
}

// ---------------------------------------------------------------------------
// slice_run — the closed form is pinned to the literal function.

TEST(SliceRun, MatchesInnerSquareProfileOnConstantSegments) {
  for (const std::uint64_t slice : {1u, 3u, 8u, 17u}) {
    for (const std::uint64_t length : {0u, 1u, 7u, 8u, 9u, 64u, 100u}) {
      const SliceRun run = slice_run(slice, length);
      std::vector<std::uint64_t> expanded;
      for (std::uint64_t i = 0; i < run.count; ++i)
        expanded.push_back(run.size);
      if (run.remainder != 0) expanded.push_back(run.remainder);
      const std::vector<std::uint64_t> segment(length, slice);
      EXPECT_EQ(expanded, profile::inner_square_profile(segment))
          << "slice=" << slice << " length=" << length;
    }
  }
}

// ---------------------------------------------------------------------------
// carve_slices

TEST(CarveSlices, StaticEqualSpreadsTheRemainderLowFirst) {
  const std::vector<std::uint64_t> weights(4, 1);
  const auto slices = carve_slices(Policy::kStaticEqual, 17, weights);
  EXPECT_EQ(slices, (std::vector<std::uint64_t>{5, 4, 4, 4}));
}

TEST(CarveSlices, ProportionalFollowsWeights) {
  const std::vector<std::uint64_t> weights{1, 3};
  const auto slices = carve_slices(Policy::kGlobalLru, 8, weights);
  EXPECT_EQ(slices, (std::vector<std::uint64_t>{2, 6}));
}

TEST(CarveSlices, EverySliceIsAtLeastOneBlock) {
  const std::vector<std::uint64_t> weights{0, 1000, 0, 1};
  for (const Policy policy :
       {Policy::kStaticEqual, Policy::kGlobalLru, Policy::kPeriodicFlush}) {
    for (const std::uint64_t box : {1u, 2u, 5u, 64u}) {
      const auto slices = carve_slices(policy, box, weights);
      ASSERT_EQ(slices.size(), weights.size());
      std::uint64_t sum = 0;
      for (const std::uint64_t s : slices) {
        EXPECT_GE(s, 1u);
        sum += s;
      }
      // The carve spends the whole box (clamping can only add blocks,
      // never drop them).
      EXPECT_GE(sum, box);
      EXPECT_LE(sum, box + weights.size());
      EXPECT_EQ(slices, carve_slices(policy, box, weights));  // deterministic
    }
  }
}

// ---------------------------------------------------------------------------
// parallel_run_to_completion

using engine::BoxSemantics;
using engine::ScanPlacement;

profile::DistributionSource fresh_source(const profile::UniformRange& dist,
                                         std::uint64_t seed) {
  return profile::DistributionSource(dist, util::Rng(seed));
}

void expect_identical(const ParallelResult& x, const ParallelResult& y) {
  EXPECT_EQ(x.merged.completed, y.merged.completed);
  EXPECT_EQ(x.merged.stop, y.merged.stop);
  EXPECT_EQ(x.merged.boxes, y.merged.boxes);
  EXPECT_EQ(x.merged.leaves, y.merged.leaves);
  EXPECT_EQ(x.merged.sum_bounded_potential, y.merged.sum_bounded_potential);
  EXPECT_EQ(x.merged.ratio, y.merged.ratio);
  EXPECT_EQ(x.merged.unit_ratio, y.merged.unit_ratio);
  EXPECT_EQ(x.rounds, y.rounds);
  EXPECT_EQ(x.epochs, y.epochs);
  EXPECT_EQ(x.steals, y.steals);
  EXPECT_EQ(x.failed_steals, y.failed_steals);
  EXPECT_EQ(x.splits, y.splits);
  EXPECT_EQ(x.split_depth, y.split_depth);
  EXPECT_EQ(x.tasks_spawned, y.tasks_spawned);
  ASSERT_EQ(x.workers.size(), y.workers.size());
  for (std::size_t w = 0; w < x.workers.size(); ++w) {
    EXPECT_EQ(x.workers[w].boxes, y.workers[w].boxes);
    EXPECT_EQ(x.workers[w].idle_boxes, y.workers[w].idle_boxes);
    EXPECT_EQ(x.workers[w].progress, y.workers[w].progress);
    EXPECT_EQ(x.workers[w].scan_advance, y.workers[w].scan_advance);
    EXPECT_EQ(x.workers[w].tasks_run, y.workers[w].tasks_run);
    EXPECT_EQ(x.workers[w].steals, y.workers[w].steals);
    EXPECT_EQ(x.workers[w].failed_steals, y.workers[w].failed_steals);
    EXPECT_EQ(x.workers[w].slice_blocks, y.workers[w].slice_blocks);
  }
}

// The acceptance matrix: P x placement x semantics. Each point must
// complete, conserve units exactly, and be bit-identical across repeated
// same-seed runs.
TEST(ParallelEngine, MatrixConservationAndBitIdentity) {
  const model::RegularParams params = model::mm_scan_params();
  const std::uint64_t n = 256;  // b^4
  const std::uint64_t units = model::problem_units(params, n);
  const profile::UniformRange dist(4, 64);
  for (const std::uint64_t workers : {1u, 2u, 4u, 8u}) {
    for (const ScanPlacement placement :
         {ScanPlacement::kEnd, ScanPlacement::kInterleaved,
          ScanPlacement::kAdversaryMatched}) {
      for (const BoxSemantics semantics :
           {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
        ParallelOptions options;
        options.workers = workers;
        options.seed = 7;
        options.placement = placement;
        options.semantics = semantics;
        options.adversary_seed = 11;
        auto s1 = fresh_source(dist, 21);
        const ParallelResult r1 =
            parallel_run_to_completion(params, n, s1, options);
        auto s2 = fresh_source(dist, 21);
        const ParallelResult r2 =
            parallel_run_to_completion(params, n, s2, options);
        SCOPED_TRACE("P=" + std::to_string(workers) + " placement=" +
                     std::to_string(static_cast<int>(placement)) +
                     " semantics=" +
                     std::to_string(static_cast<int>(semantics)));
        EXPECT_TRUE(r1.merged.completed);
        EXPECT_EQ(r1.units_done(), units);   // conservation
        std::uint64_t progress_sum = 0;
        for (const WorkerStats& w : r1.workers) progress_sum += w.progress;
        EXPECT_EQ(r1.merged.leaves, progress_sum);
        expect_identical(r1, r2);            // same seed => same bytes
        ASSERT_EQ(r1.workers.size(), workers);
      }
    }
  }
}

// Different carve policies stay deterministic and conservative too.
TEST(ParallelEngine, CarvePoliciesConserveUnits) {
  const model::RegularParams params = model::mm_scan_params();
  const std::uint64_t n = 256;
  const std::uint64_t units = model::problem_units(params, n);
  const profile::UniformRange dist(4, 64);
  for (const Policy carve :
       {Policy::kStaticEqual, Policy::kGlobalLru, Policy::kPeriodicFlush}) {
    ParallelOptions options;
    options.workers = 4;
    options.seed = 3;
    options.carve = carve;
    options.epoch_rounds = 16;
    auto s1 = fresh_source(dist, 5);
    const ParallelResult r1 = parallel_run_to_completion(params, n, s1,
                                                         options);
    auto s2 = fresh_source(dist, 5);
    const ParallelResult r2 = parallel_run_to_completion(params, n, s2,
                                                         options);
    EXPECT_TRUE(r1.merged.completed);
    EXPECT_EQ(r1.units_done(), units);
    expect_identical(r1, r2);
  }
}

// workers = 1 IS the sequential engine: merged equals run_to_completion
// field for field on the same source.
TEST(ParallelEngine, OneWorkerEqualsSequentialEngine) {
  const model::RegularParams params = model::mm_scan_params();
  const std::uint64_t n = 1024;  // b^5
  const profile::UniformRange dist(4, 64);
  for (const BoxSemantics semantics :
       {BoxSemantics::kOptimistic, BoxSemantics::kBudgeted}) {
    ParallelOptions options;
    options.workers = 1;
    options.semantics = semantics;
    auto par_source = fresh_source(dist, 9);
    const ParallelResult par =
        parallel_run_to_completion(params, n, par_source, options);

    engine::RegularExecution exec(params, n, ScanPlacement::kEnd, 0,
                                  semantics);
    auto seq_source = fresh_source(dist, 9);
    const engine::RunResult seq =
        engine::run_to_completion(exec, seq_source, engine::RunOptions{});

    EXPECT_EQ(par.merged.completed, seq.completed);
    EXPECT_EQ(par.merged.stop, seq.stop);
    EXPECT_EQ(par.merged.boxes, seq.boxes);
    EXPECT_EQ(par.merged.leaves, seq.leaves);
    EXPECT_EQ(par.merged.sum_bounded_potential, seq.sum_bounded_potential);
    EXPECT_EQ(par.merged.ratio, seq.ratio);
    EXPECT_EQ(par.merged.unit_ratio, seq.unit_ratio);
    EXPECT_EQ(par.steals, 0u);
    ASSERT_EQ(par.workers.size(), 1u);
  }
}

// ---------------------------------------------------------------------------
// The campaign surface: a sort cell run on the shared trial loop at 4
// threads produces records equal, field by field, to the sequential
// run_cell's (the report bit-identity contract). The shared loop's
// records are read back from its checkpoint, which holds every trial's
// seed, attempts, flags, boxes, ratios and backoff.

TEST(ParallelTrials, RunCellRecordsIdenticalAcrossWorkerCounts) {
  std::istringstream is(
      "name = ws_cell\n"
      "workload = sort\n"
      "sorts = adaptive\n"
      "profiles = uniform:4:64\n"
      "keys = 1024\n"
      "block = 8\n"
      "trials = 6\n"
      "seed = 9\n");
  const campaign::Plan plan =
      campaign::expand_plan(campaign::parse_manifest(is));
  ASSERT_EQ(plan.cells.size(), 1u);
  campaign::CellRunOptions options = campaign::cell_options_from(plan.manifest);
  options.timing = false;

  // The sequential reference, folded in trial order...
  const std::vector<robust::TrialRecord> records =
      campaign::run_cell(plan.cells[0], options);
  engine::McSummary sequential;
  for (const robust::TrialRecord& record : records) {
    engine::fold_trial(sequential, record, nullptr);
  }
  // ... equals the cell on 4 threads of the shared trial loop, in 2-trial
  // chunks that commit in landing order.
  util::ThreadPool pool(4);
  engine::McOptions trial_options =
      campaign::trial_options_for(plan.cells[0], options);
  trial_options.pool = &pool;
  campaign::CellTrials chunks;
  chunks.chunk = 2;
  chunks.checkpoint_path = ::testing::TempDir() + "ws_cell_records.jsonl";
  chunks.config = "ws_cell";
  const engine::McSummary shared = campaign::run_cell_trials(
      trial_options, campaign::make_cell_runner(plan.cells[0], options),
      chunks);

  std::ifstream file(chunks.checkpoint_path);
  const std::vector<robust::JsonlLine> lines =
      robust::load_jsonl_tolerant(file, "checkpoint");
  ASSERT_EQ(lines.size(), 1 + records.size());  // the header, then trials
  std::vector<robust::TrialRecord> committed(records.size());
  for (std::size_t i = 1; i < lines.size(); ++i) {
    robust::TrialRecord record = robust::trial_record_from(lines[i]);
    ASSERT_LT(record.trial, committed.size());
    committed[record.trial] = std::move(record);
  }
  EXPECT_EQ(committed, records);
  std::remove(chunks.checkpoint_path.c_str());

  EXPECT_EQ(shared.trials_run, sequential.trials_run);
  EXPECT_EQ(shared.ratio_samples, sequential.ratio_samples);
  EXPECT_EQ(shared.unit_ratio_samples, sequential.unit_ratio_samples);
  EXPECT_EQ(shared.errors, sequential.errors);
  EXPECT_EQ(shared.boxes.mean(), sequential.boxes.mean());
}

// ---------------------------------------------------------------------------
// LruCache::access_run — differential against the per-access reference.

TEST(AccessRun, MatchesPerAccessReferenceOverRandomTraces) {
  util::Rng rng(17);
  for (const std::uint64_t tag_or : {UINT64_C(0), UINT64_C(5) << 48}) {
    paging::LruCache fast(16);
    paging::LruCache ref(16);
    std::vector<paging::BlockId> trace;
    for (std::size_t i = 0; i < 6000; ++i) trace.push_back(rng.below(40));

    std::size_t pos = 0;
    while (pos < trace.size()) {
      paging::LruCache::AccessResult last;
      const std::uint64_t done = fast.access_run(
          trace.data() + pos, trace.size() - pos, tag_or, &last);
      ASSERT_GE(done, 1u);
      paging::LruCache::AccessResult expected;
      for (std::uint64_t i = 0; i < done; ++i) {
        expected = ref.access_tracking(tag_or | trace[pos + i]);
        if (i + 1 < done) {
          EXPECT_TRUE(expected.hit);
        }
      }
      EXPECT_EQ(last.hit, expected.hit);
      EXPECT_EQ(last.evicted, expected.evicted);
      EXPECT_EQ(last.victim, expected.victim);
      // Until-first-miss: every access but the final one hit.
      if (pos + done < trace.size()) {
        EXPECT_FALSE(last.hit);
      }
      pos += done;
    }
    EXPECT_EQ(fast.stats().hits, ref.stats().hits);
    EXPECT_EQ(fast.stats().misses, ref.stats().misses);
    EXPECT_EQ(fast.stats().evictions, ref.stats().evictions);
    EXPECT_EQ(fast.size(), ref.size());
    // Recency order: evict both down to empty and compare victims.
    fast.set_capacity(0);
    ref.set_capacity(0);
    EXPECT_EQ(fast.stats().evictions, ref.stats().evictions);
  }
}

TEST(AccessRun, ZeroCountIsANoOp) {
  paging::LruCache cache(4);
  paging::LruCache::AccessResult last;
  last.hit = true;
  EXPECT_EQ(cache.access_run(nullptr, 0, 0, &last), 0u);
  EXPECT_FALSE(last.hit);  // zeroed
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

// ---------------------------------------------------------------------------
// shared_cache on the batched walk — differential against a per-access
// reference simulator (the pre-fast-path implementation, inlined here).

paging::BlockId ref_tag(std::size_t pid, paging::BlockId block) {
  return (static_cast<paging::BlockId>(pid) << 48) | block;
}

SimResult reference_shared_cache(const std::vector<Process>& processes,
                                 const SimOptions& options) {
  const std::size_t k = processes.size();
  SimResult result;
  result.per_process.resize(k);
  std::vector<std::size_t> cursor(k, 0);
  std::vector<std::uint64_t> occupancy(k, 0);
  std::size_t unfinished = 0;
  for (std::size_t p = 0; p < k; ++p) {
    result.per_process[p].name = processes[p].name;
    if (!processes[p].blocks.empty()) ++unfinished;
  }
  std::unique_ptr<paging::LruCache> global;
  std::vector<std::unique_ptr<paging::LruCache>> partitions;
  if (options.policy == Policy::kStaticEqual) {
    const std::uint64_t share = options.total_cache_blocks / k;
    for (std::size_t p = 0; p < k; ++p)
      partitions.push_back(std::make_unique<paging::LruCache>(share));
  } else {
    global = std::make_unique<paging::LruCache>(options.total_cache_blocks);
  }
  const std::uint64_t flush_period = options.flush_period == 0
                                         ? options.total_cache_blocks
                                         : options.flush_period;
  std::uint64_t misses_since_flush = 0;
  std::size_t turn = 0;
  while (unfinished > 0) {
    const std::size_t p = turn % k;
    ++turn;
    const Process& proc = processes[p];
    ProcessStats& stats = result.per_process[p];
    if (cursor[p] >= proc.blocks.size()) continue;
    while (cursor[p] < proc.blocks.size()) {
      const paging::BlockId block = proc.blocks[cursor[p]];
      ++cursor[p];
      ++stats.accesses;
      paging::LruCache::AccessResult r;
      if (options.policy == Policy::kStaticEqual) {
        r = partitions[p]->access_tracking(block);
      } else {
        r = global->access_tracking(ref_tag(p, block));
      }
      if (r.hit) continue;
      if (options.policy == Policy::kStaticEqual) {
        occupancy[p] = partitions[p]->size();
      } else {
        ++occupancy[p];
        if (r.evicted) --occupancy[r.victim >> 48];
      }
      ++result.total_ios;
      ++stats.misses;
      stats.occupancy_profile.push_back(occupancy[p] > 0 ? occupancy[p] : 1);
      if (options.policy == Policy::kPeriodicFlush) {
        ++misses_since_flush;
        if (misses_since_flush >= flush_period) {
          misses_since_flush = 0;
          global->clear();
          for (std::uint64_t& occ : occupancy) occ = 0;
        }
      }
      break;  // yield on the first miss
    }
    if (cursor[p] >= proc.blocks.size()) {
      stats.completion_time = result.total_ios;
      --unfinished;
    }
  }
  return result;
}

void expect_same_sim(const SimResult& x, const SimResult& y) {
  EXPECT_EQ(x.total_ios, y.total_ios);
  ASSERT_EQ(x.per_process.size(), y.per_process.size());
  for (std::size_t p = 0; p < x.per_process.size(); ++p) {
    EXPECT_EQ(x.per_process[p].name, y.per_process[p].name);
    EXPECT_EQ(x.per_process[p].misses, y.per_process[p].misses);
    EXPECT_EQ(x.per_process[p].accesses, y.per_process[p].accesses);
    EXPECT_EQ(x.per_process[p].completion_time,
              y.per_process[p].completion_time);
    EXPECT_EQ(x.per_process[p].occupancy_profile,
              y.per_process[p].occupancy_profile);
  }
}

TEST(SharedCacheFastPath, MatchesPerAccessReferenceAcrossPolicies) {
  util::Rng rng(23);
  std::vector<Process> processes(3);
  processes[0].name = "a";
  processes[1].name = "b";
  processes[2].name = "c";
  for (std::size_t i = 0; i < 4000; ++i) {
    processes[0].blocks.push_back(rng.below(30));
    processes[1].blocks.push_back(i % 50);  // cache-hostile cycle
    if (i < 1500) processes[2].blocks.push_back(rng.below(10));
  }
  for (const Policy policy :
       {Policy::kStaticEqual, Policy::kGlobalLru, Policy::kPeriodicFlush}) {
    SimOptions options;
    options.total_cache_blocks = 24;
    options.policy = policy;
    expect_same_sim(simulate_shared_cache(processes, options),
                    reference_shared_cache(processes, options));
  }
}

}  // namespace
}  // namespace cadapt::sched
