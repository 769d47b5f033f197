// Differential suite for the paging fast path (docs/PERF.md, "Paging
// fast path"). The contract is bit-identity, not approximation: the
// flat intrusive LruCache, the hot-block/access_run dispatch layers,
// and the record-once/replay-many trace walk must be observable-
// behavior-identical to the reference stack kept in
// paging/reference_lru.hpp — access for access, counter for counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algos/funnelsort.hpp"
#include "algos/sim_data.hpp"

#include "campaign/cell_runner.hpp"
#include "campaign/manifest.hpp"
#include "campaign/sweep.hpp"
#include "core/report.hpp"
#include "engine/montecarlo.hpp"
#include "obs/recorder.hpp"
#include "paging/block_run.hpp"
#include "paging/ca_machine.hpp"
#include "paging/lru_cache.hpp"
#include "paging/machine.hpp"
#include "paging/address_space.hpp"
#include "paging/policy.hpp"
#include "paging/reference_lru.hpp"
#include "paging_test_util.hpp"
#include "profile/box_source.hpp"
#include "profile/generators.hpp"
#include "profile/square_approx.hpp"
#include "profile/worst_case.hpp"
#include "robust/cancel.hpp"
#include "util/check.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace cadapt {
namespace {

using paging::BlockId;
using paging::BlockRunRecorder;
using paging::BlockRunTrace;
using paging::CaConfig;
using paging::CaMachine;
using paging::LruCache;
using paging::ReferenceCaMachine;
using paging::ReferenceLruCache;
using paging::ReplayPath;

// ---- Layer 1: flat LruCache vs the node-based reference ----

// Randomized schedules of access/resize/clear, including capacity 0 and
// shrinks below the resident set: every AccessResult field, the size,
// membership, and the lifetime Stats must agree at every step.
TEST(LruDifferential, RandomizedSchedules) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng(seed);
    const std::uint64_t universe = 1 + rng.below(96);
    LruCache flat(seed % 3);  // also start the two at capacity 0, 1, 2
    ReferenceLruCache ref(seed % 3);
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 90) {
        const BlockId block = rng.below(universe);
        const auto a = flat.access_tracking(block);
        const auto b = ref.access_tracking(block);
        EXPECT_EQ(a.hit, b.hit) << "seed " << seed << " step " << step;
        EXPECT_EQ(a.evicted, b.evicted) << "seed " << seed << " step " << step;
        if (a.evicted && b.evicted) {
          EXPECT_EQ(a.victim, b.victim) << "seed " << seed << " step " << step;
        }
      } else if (op < 96) {
        const std::uint64_t cap = rng.below(48);  // 0 allowed; often shrinks
        flat.set_capacity(cap);
        ref.set_capacity(cap);
      } else {
        flat.clear();
        ref.clear();
      }
      ASSERT_EQ(flat.size(), ref.size()) << "seed " << seed << " step " << step;
      const BlockId probe = rng.below(universe);
      EXPECT_EQ(flat.contains(probe), ref.contains(probe));
      expect_stats_eq(flat.stats(), ref.stats());
    }
  }
}

// The shared-cache scheduler derives per-process occupancy counts from
// access_tracking victims (sched/shared_cache.cpp). Mirror that
// bookkeeping on both implementations: identical victims imply
// identical occupancy at every step.
TEST(LruDifferential, SchedOccupancyFromVictims) {
  constexpr std::size_t kProcs = 3;
  const auto tag = [](std::size_t p, BlockId b) {
    return (static_cast<BlockId>(p) << 48) | b;
  };
  const auto owner_of = [](BlockId tagged) {
    return static_cast<std::size_t>(tagged >> 48);
  };
  LruCache flat(24);
  ReferenceLruCache ref(24);
  std::vector<std::uint64_t> occ_flat(kProcs, 0), occ_ref(kProcs, 0);
  util::Rng rng(99);
  for (int step = 0; step < 20000; ++step) {
    const std::size_t p = static_cast<std::size_t>(rng.below(kProcs));
    const BlockId block = tag(p, rng.below(40));
    const auto a = flat.access_tracking(block);
    const auto b = ref.access_tracking(block);
    ASSERT_EQ(a.hit, b.hit);
    ASSERT_EQ(a.evicted, b.evicted);
    if (!a.hit) ++occ_flat[p];
    if (!b.hit) ++occ_ref[p];
    if (a.evicted) --occ_flat[owner_of(a.victim)];
    if (b.evicted) --occ_ref[owner_of(b.victim)];
    ASSERT_EQ(occ_flat, occ_ref) << "step " << step;
  }
}

// ---- Layer 2: CaMachine dispatch (hot-block + access_run) ----

std::unique_ptr<profile::BoxSource> random_boxes(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<profile::BoxSize> boxes;
  for (int i = 0; i < 37; ++i) boxes.push_back(1 + rng.below(40));
  return std::make_unique<profile::CyclingSource>([boxes] {
    return std::make_unique<profile::VectorSource>(boxes);
  });
}

// A word stream with realistic structure: sequential stretches, repeats,
// and random jumps — exercising the repeat shortcut, access_run, and the
// cold path.
template <typename Touch>
void drive_random_stream(std::uint64_t seed, Touch&& touch) {
  util::Rng rng(seed);
  std::uint64_t addr = 0;
  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t op = rng.below(10);
    if (op < 4) {
      addr = rng.below(1 << 12);  // jump
      touch(addr, 1);
    } else if (op < 8) {
      touch(addr, 1 + rng.below(6));  // dwell in place (repeat hits)
    } else {
      for (int i = 0; i < 8; ++i) touch(++addr, 1);  // sequential stretch
    }
  }
}

TEST(CaMachineDifferential, FastVsPerAccessVsReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    CaMachine fast(random_boxes(seed), 8, /*record_boxes=*/true);
    CaMachine per_access(random_boxes(seed), 8, /*record_boxes=*/true);
    per_access.set_per_access(true);
    ReferenceCaMachine reference(random_boxes(seed), 8);
    const auto touch = [&](std::uint64_t addr, std::uint64_t count) {
      fast.access_run(addr, count);
      for (std::uint64_t i = 0; i < count; ++i) per_access.access(addr);
      for (std::uint64_t i = 0; i < count; ++i) reference.access(addr);
    };
    drive_random_stream(seed, touch);
    EXPECT_GT(fast.fast_hits(), 0u);  // the shortcut actually engaged
    EXPECT_EQ(per_access.fast_hits(), 0u);
    EXPECT_EQ(fast.accesses(), per_access.accesses());
    EXPECT_EQ(fast.accesses(), reference.accesses());
    EXPECT_EQ(fast.misses(), per_access.misses());
    EXPECT_EQ(fast.misses(), reference.misses());
    EXPECT_EQ(fast.boxes_started(), per_access.boxes_started());
    EXPECT_EQ(fast.boxes_started(), reference.boxes_started());
    EXPECT_EQ(fast.misses_in_current_box(),
              per_access.misses_in_current_box());
    EXPECT_EQ(fast.current_box_size(), reference.current_box_size());
    expect_stats_eq(fast.cache_stats(), per_access.cache_stats());
    expect_stats_eq(fast.cache_stats(), reference.cache_stats());
    EXPECT_EQ(fast.box_log(), per_access.box_log());
  }
}

// ---- Layer 3: record-once/replay-many ----

BlockRunTrace random_trace(std::uint64_t seed, int runs) {
  BlockRunRecorder recorder(8);
  util::Rng rng(seed);
  for (int i = 0; i < runs; ++i) {
    recorder.access_run(rng.below(1 << 12) * 8, 1 + rng.below(12));
  }
  return recorder.take();
}

// replay_trace (fast walk), replay_into on a per-access machine, and a
// direct word-by-word run of the expanded stream must agree on every
// counter, including the box log.
TEST(TraceReplayDifferential, WalkVsGenericVsDirect) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const BlockRunTrace trace = random_trace(seed, 5000);
    ASSERT_TRUE(trace.has_replay_index());

    CaMachine walk(random_boxes(seed), 8, /*record_boxes=*/true);
    walk.replay_trace(trace);
    EXPECT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk);

    CaMachine generic(random_boxes(seed), 8, /*record_boxes=*/true);
    EXPECT_EQ(generic.last_replay_path(), ReplayPath::kNone);
    generic.set_per_access(true);
    generic.replay_trace(trace);  // per-access forces the generic path
    EXPECT_EQ(generic.last_replay_path(), ReplayPath::kGenericPerAccess);
    EXPECT_EQ(generic.fast_hits(), 0u);

    CaMachine direct(random_boxes(seed), 8, /*record_boxes=*/true);
    for (const BlockId block : trace.expand()) direct.access(block * 8);

    for (const CaMachine* m : {&generic, &direct}) {
      EXPECT_EQ(walk.accesses(), m->accesses());
      EXPECT_EQ(walk.misses(), m->misses());
      EXPECT_EQ(walk.boxes_started(), m->boxes_started());
      EXPECT_EQ(walk.misses_in_current_box(), m->misses_in_current_box());
      EXPECT_EQ(walk.current_box_size(), m->current_box_size());
      expect_stats_eq(walk.cache_stats(), m->cache_stats());
      EXPECT_EQ(walk.box_log(), m->box_log());
    }
  }
}

// The fast walk counts misses a chunk (CaMachine::kReplayChunk runs) at
// a time and steps run by run only through a chunk that crosses a box
// boundary. Against replay_into on a per-access machine: traces shorter
// than a chunk, exactly one, and not a multiple of it; boxes at and
// around the chunk length, plus the sawtooth and mworst profiles the
// sort campaigns use; a block span small enough that whole chunks hit,
// and one wide enough that they miss.
TEST(TraceReplayDifferential, ChunkedWalkMatchesPerAccessReplay) {
  constexpr std::uint64_t kChunk = CaMachine::kReplayChunk;
  using Factory = std::function<std::unique_ptr<profile::BoxSource>()>;
  const auto constant = [](std::uint64_t size) -> Factory {
    return [size] {
      return std::make_unique<profile::VectorSource>(
          std::vector<profile::BoxSize>(16, size));
    };
  };
  std::vector<std::pair<std::string, Factory>> profiles;
  for (const std::uint64_t size :
       {std::uint64_t{1}, std::uint64_t{2}, kChunk - 1, kChunk, kChunk + 1}) {
    profiles.emplace_back("const:" + std::to_string(size), constant(size));
  }
  const std::vector<profile::BoxSize> sawtooth =
      profile::inner_square_profile(profile::sawtooth_profile(128, 8));
  profiles.emplace_back("sawtooth:128:8", [sawtooth] {
    return std::make_unique<profile::VectorSource>(sawtooth);
  });
  profiles.emplace_back("mworst:2:2:512:2", [] {
    return std::make_unique<profile::WorstCaseSource>(2, 2, 512, 2);
  });

  std::uint64_t seed = 0;
  for (const std::uint64_t runs :
       {kChunk - 1, kChunk, 5 * kChunk + 7, 200 * kChunk + 3}) {
    for (const std::uint64_t span : {std::uint64_t{6}, std::uint64_t{4096}}) {
      BlockRunRecorder recorder(8);
      util::Rng rng(++seed);
      // Alternate blocks so every run stays a run (no coalescing).
      for (std::uint64_t i = 0; i < runs; ++i) {
        const std::uint64_t block = 2 * rng.below(span) + (i % 2);
        recorder.access_run(block * 8, 1 + rng.below(3));
      }
      const BlockRunTrace trace = recorder.take();
      ASSERT_EQ(trace.runs().size(), runs);
      for (const auto& [name, factory] : profiles) {
        SCOPED_TRACE(name + " runs=" + std::to_string(runs) +
                     " span=" + std::to_string(span));
        CaMachine walk(std::make_unique<profile::CyclingSource>(factory), 8);
        walk.replay_trace(trace);
        ASSERT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk);
        CaMachine per_access(std::make_unique<profile::CyclingSource>(factory),
                             8);
        per_access.set_per_access(true);
        trace.replay_into(per_access);
        EXPECT_EQ(walk.misses(), per_access.misses());
        EXPECT_EQ(walk.boxes_started(), per_access.boxes_started());
        EXPECT_EQ(walk.misses_in_current_box(),
                  per_access.misses_in_current_box());
        expect_stats_eq(walk.cache_stats(), per_access.cache_stats());
        EXPECT_EQ(walk.box_log(), per_access.box_log());
      }
    }
  }
}

TEST(TraceReplayDifferential, EmptyTraceIsNoop) {
  BlockRunTrace trace(8);
  EXPECT_FALSE(trace.has_replay_index());
  CaMachine machine(random_boxes(1), 8);
  machine.replay_trace(trace);
  EXPECT_EQ(machine.accesses(), 0u);
  EXPECT_EQ(machine.misses(), 0u);
  EXPECT_EQ(machine.boxes_started(), 1u);  // the box opened at construction
}

// A hand-pushed trace has no index (push invalidates it): replay_trace
// must fall back to the generic path and still be exact; after
// ensure_replay_index the fast walk must agree.
TEST(TraceReplayDifferential, UnindexedTraceFallsBack) {
  BlockRunTrace trace(8);
  util::Rng rng(17);
  for (int i = 0; i < 3000; ++i) trace.push(rng.below(200), 1 + rng.below(5));
  EXPECT_FALSE(trace.has_replay_index());

  CaMachine fallback(random_boxes(17), 8);
  fallback.replay_trace(trace);
  EXPECT_EQ(fallback.last_replay_path(), ReplayPath::kGenericUnindexed);

  trace.ensure_replay_index();
  ASSERT_TRUE(trace.has_replay_index());
  CaMachine walk(random_boxes(17), 8);
  walk.replay_trace(trace);
  EXPECT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk);

  EXPECT_EQ(walk.accesses(), fallback.accesses());
  EXPECT_EQ(walk.misses(), fallback.misses());
  EXPECT_EQ(walk.boxes_started(), fallback.boxes_started());
  expect_stats_eq(walk.cache_stats(), fallback.cache_stats());
}

// Sparse block ids (beyond the dense direct-mapped table) take the
// hash-map indexing path; the walk must stay exact.
TEST(TraceReplayDifferential, SparseBlockIdsIndexAndReplay) {
  BlockRunRecorder recorder(8);
  util::Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const BlockId block = rng.below(1u << 30);  // sparse id space
    recorder.access_run(block * 8, 1 + rng.below(4));
  }
  BlockRunTrace trace = recorder.take();
  ASSERT_TRUE(trace.has_replay_index());

  CaMachine walk(random_boxes(23), 8);
  walk.replay_trace(trace);
  CaMachine direct(random_boxes(23), 8);
  for (const BlockId block : trace.expand()) direct.access(block * 8);
  EXPECT_EQ(walk.misses(), direct.misses());
  EXPECT_EQ(walk.boxes_started(), direct.boxes_started());
  expect_stats_eq(walk.cache_stats(), direct.cache_stats());
}

// ---- The packed 12-byte layout: 32-bit ids and counts ----

constexpr std::uint64_t kMaxRun = BlockRunTrace::kMaxRunCount;

std::vector<paging::BlockRun> runs_of(const BlockRunTrace& trace) {
  std::vector<paging::BlockRun> runs;
  trace.for_each_run(
      [&runs](const paging::BlockRun& run) { runs.push_back(run); });
  return runs;
}

// A run of 2^32 + 5 accesses does not fit one 32-bit count: push splits
// it into a full run plus the remainder, and both replay paths must still
// match a direct access_run machine counter for counter. The pushed trace
// reaches the same runs through a partially filled tail.
TEST(PackedTrace, RunBeyond32BitCountSplitsExactly) {
  constexpr std::uint64_t kHuge = (std::uint64_t{1} << 32) + 5;
  const auto drive = [](auto&& touch) {
    touch(3, 7);
    touch(9, kHuge);
    touch(3, 1);
    touch(4, 2);
    touch(9, 4);
  };

  BlockRunTrace pushed(8);
  pushed.push(3, 7);
  pushed.push(9, kMaxRun - 1);
  pushed.push(9, 7);  // tops up the open run, then starts a new one
  pushed.push(3, 1);
  pushed.push(4, 2);
  pushed.push(9, 4);
  EXPECT_FALSE(pushed.has_replay_index());

  BlockRunRecorder recorder(8);
  drive([&](BlockId block, std::uint64_t count) {
    recorder.access_run(block * 8, count);
  });
  const BlockRunTrace recorded = recorder.take();
  ASSERT_TRUE(recorded.has_replay_index());

  const std::vector<paging::BlockRun> want = {
      {3, 7}, {9, static_cast<std::uint32_t>(kMaxRun)}, {9, 6}, {3, 1},
      {4, 2}, {9, 4}};
  EXPECT_EQ(runs_of(recorded), want);
  EXPECT_EQ(runs_of(pushed), want);
  EXPECT_EQ(recorded.accesses(), kHuge + 14);
  EXPECT_EQ(pushed.accesses(), recorded.accesses());
  // The second piece points at the first, so the walk counts it a hit.
  EXPECT_EQ(recorded.replay_steps()[2].prev1, 2u);

  CaMachine walk(random_boxes(5), 8, /*record_boxes=*/true);
  walk.replay_trace(recorded);
  EXPECT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk);

  CaMachine generic(random_boxes(5), 8, /*record_boxes=*/true);
  generic.replay_trace(pushed);
  EXPECT_EQ(generic.last_replay_path(), ReplayPath::kGenericUnindexed);

  CaMachine direct(random_boxes(5), 8, /*record_boxes=*/true);
  drive([&](BlockId block, std::uint64_t count) {
    direct.access_run(block * 8, count);
  });

  expect_ca_machines_eq(walk, direct);
  expect_ca_machines_eq(generic, direct);
  EXPECT_EQ(walk.accesses(), kHuge + 14);
}

// Runs are stored in chunks of kChunkRuns. A trace of several chunks
// whose 2^32 + 5 run splits across the first boundary (the full piece is
// chunk 0's last run, the remainder chunk 1's first; the pushed trace
// reaches them by topping up chunk 0's last run) replays exactly on the
// fast walk and the generic path, and its storage is at most 12 bytes per
// run plus one chunk.
TEST(PackedTrace, ChunkedRunsReplayExactlyAcrossChunkBoundaries) {
  constexpr std::uint64_t kChunkRuns = BlockRunTrace::kChunkRuns;
  constexpr std::uint64_t kHuge = (std::uint64_t{1} << 32) + 5;
  constexpr std::uint64_t kTailRuns = 2 * kChunkRuns + 11;
  // Blocks alternate parity, so each touch opens a run; the first tail
  // block is even, so it never merges with block 9.
  const auto drive = [](auto&& touch, auto&& touch_huge) {
    util::Rng rng(41);
    for (std::uint64_t i = 0; i + 1 < kChunkRuns; ++i) {
      touch(2 * rng.below(300) + (i % 2), 1 + rng.below(3));
    }
    touch_huge();
    for (std::uint64_t i = 0; i < kTailRuns; ++i) {
      touch(2 * rng.below(300) + (i % 2), 1 + rng.below(3));
    }
  };

  BlockRunRecorder recorder(8);
  const auto record = [&recorder](BlockId block, std::uint64_t count) {
    recorder.access_run(block * 8, count);
  };
  drive(record, [&] { record(9, kHuge); });
  const BlockRunTrace recorded = recorder.take();
  ASSERT_TRUE(recorded.has_replay_index());

  BlockRunTrace pushed(8);
  const auto push = [&pushed](BlockId block, std::uint64_t count) {
    pushed.push(block, count);
  };
  drive(push, [&] {
    push(9, kMaxRun - 1);
    push(9, 7);  // tops up chunk 0's last run, then opens chunk 1
  });
  EXPECT_FALSE(pushed.has_replay_index());

  const std::uint64_t runs = kChunkRuns + 1 + kTailRuns;
  ASSERT_EQ(recorded.runs().size(), runs);
  EXPECT_EQ(runs_of(pushed), runs_of(recorded));
  EXPECT_EQ(recorded.runs()[kChunkRuns - 1],
            (paging::BlockRun{9, static_cast<std::uint32_t>(kMaxRun)}));
  EXPECT_EQ(recorded.runs()[kChunkRuns], (paging::BlockRun{9, 6}));
  EXPECT_EQ(recorded.replay_steps()[kChunkRuns].prev1, kChunkRuns);
  EXPECT_EQ(pushed.accesses(), recorded.accesses());

  CaMachine walk(random_boxes(43), 8, /*record_boxes=*/true);
  walk.replay_trace(recorded);
  EXPECT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk);
  CaMachine generic(random_boxes(43), 8, /*record_boxes=*/true);
  generic.replay_trace(pushed);
  EXPECT_EQ(generic.last_replay_path(), ReplayPath::kGenericUnindexed);
  CaMachine direct(random_boxes(43), 8, /*record_boxes=*/true);
  drive([&direct](BlockId block,
                  std::uint64_t count) { direct.access_run(block * 8, count); },
        [&direct] { direct.access_run(9 * 8, kHuge); });
  expect_ca_machines_eq(walk, direct);
  expect_ca_machines_eq(generic, direct);

  const std::uint64_t chunk_bytes = kChunkRuns * sizeof(paging::BlockRun);
  EXPECT_LE(recorded.storage_bytes(), 12 * runs + chunk_bytes);
  EXPECT_GE(recorded.storage_bytes(), 12 * runs);
  EXPECT_LE(pushed.storage_bytes(), 8 * runs + chunk_bytes);
}

// Block ids are stored in 32 bits: the largest one round-trips, the
// next one is a CheckError naming the limit.
TEST(PackedTrace, BlockIdBeyond32BitsIsACheckError) {
  BlockRunTrace trace(8);
  trace.push(BlockRunTrace::kMaxBlock, 1);
  EXPECT_EQ(trace.runs()[0].block, BlockRunTrace::kMaxBlock);
  try {
    trace.push(BlockRunTrace::kMaxBlock + 1, 1);
    FAIL() << "pushing block 2^32 must throw";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("32-bit"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(trace.runs().size(), 1u);
  EXPECT_EQ(trace.accesses(), 1u);
}

// The replay index of a real capture equals a naive previous-occurrence
// oracle over the expanded access stream: coalesce expand() back into
// runs, then look each run's block up in a hash map of last positions.
TEST(PackedTrace, FunnelsortIndexMatchesNaiveOracle) {
  constexpr std::size_t kKeys = 4096;
  BlockRunRecorder recorder(8);
  paging::AddressSpace space(8);
  algos::SimVector<std::int64_t> data(recorder, space, kKeys);
  util::Rng rng(29);
  for (std::size_t i = 0; i < kKeys; ++i) {
    data.raw(i) = static_cast<std::int64_t>(rng.below(1u << 24));
  }
  algos::funnelsort(recorder, space, data);
  const BlockRunTrace trace = recorder.take();
  ASSERT_TRUE(trace.has_replay_index());

  std::vector<BlockId> run_blocks;
  for (const BlockId block : trace.expand()) {
    if (run_blocks.empty() || run_blocks.back() != block) {
      run_blocks.push_back(block);
    }
  }
  ASSERT_EQ(run_blocks.size(), trace.runs().size());
  ASSERT_EQ(trace.replay_steps().size(), run_blocks.size());
  std::unordered_map<BlockId, std::uint64_t> last;  // block -> 1 + run index
  for (std::uint64_t i = 0; i < run_blocks.size(); ++i) {
    EXPECT_EQ(trace.runs()[i].block, run_blocks[i]);
    std::uint64_t& slot = last[run_blocks[i]];
    ASSERT_EQ(trace.replay_steps()[i].prev1, slot) << "run " << i;
    slot = i + 1;
  }
  EXPECT_GT(trace.runs().size(), 4 * last.size());  // blocks do recur
}

// A machine that already served accesses cannot take the fast walk (its
// cache holds state the walk does not model): replay_trace must detect
// this and stay exact via the generic path.
TEST(TraceReplayDifferential, UsedMachineFallsBack) {
  const BlockRunTrace trace = random_trace(31, 2000);
  CaMachine replayed(random_boxes(31), 8);
  replayed.access(7 * 8);
  replayed.replay_trace(trace);
  EXPECT_EQ(replayed.last_replay_path(), ReplayPath::kGenericUsedMachine);

  CaMachine direct(random_boxes(31), 8);
  direct.access(7 * 8);
  for (const BlockId block : trace.expand()) direct.access(block * 8);

  EXPECT_EQ(replayed.accesses(), direct.accesses());
  EXPECT_EQ(replayed.misses(), direct.misses());
  EXPECT_EQ(replayed.boxes_started(), direct.boxes_started());
  expect_stats_eq(replayed.cache_stats(), direct.cache_stats());
}

// With a PagingRecorder attached the machine is pinned to the per-access
// path; replay_trace must route through it so the recorder's per-access
// tallies stay byte-identical to a direct run.
TEST(TraceReplayDifferential, RecorderForcesPerAccessReplay) {
  const BlockRunTrace trace = random_trace(43, 2000);

  obs::PagingRecorder rec_replay;
  CaMachine replayed(random_boxes(43), 8, /*record_boxes=*/false,
                     &rec_replay);
  replayed.replay_trace(trace);
  EXPECT_EQ(replayed.last_replay_path(), ReplayPath::kGenericRecorder);

  obs::PagingRecorder rec_direct;
  CaMachine direct(random_boxes(43), 8, /*record_boxes=*/false, &rec_direct);
  for (const BlockId block : trace.expand()) direct.access(block * 8);

  EXPECT_EQ(replayed.misses(), direct.misses());
  std::ostringstream a, b;
  core::print_paging_summary(a, rec_replay);
  core::print_paging_summary(b, rec_direct);
  EXPECT_EQ(a.str(), b.str());
}

// The box-log cap must not perturb anything the replay walk reports:
// same retained suffix, same drop count as the per-access path.
TEST(TraceReplayDifferential, BoxLogCapMatches) {
  const BlockRunTrace trace = random_trace(53, 8000);
  CaMachine walk(random_boxes(53), 8, /*record_boxes=*/true);
  walk.set_box_log_cap(16);
  walk.replay_trace(trace);

  CaMachine direct(random_boxes(53), 8, /*record_boxes=*/true);
  direct.set_box_log_cap(16);
  for (const BlockId block : trace.expand()) direct.access(block * 8);

  EXPECT_GT(walk.box_log_dropped(), 0u);
  EXPECT_EQ(walk.box_log_dropped(), direct.box_log_dropped());
  EXPECT_EQ(walk.box_log(), direct.box_log());
}

// A non-default machine config (docs/PAGING.md) invalidates the fast
// walk's never-evict argument: replay_trace must detect it, report
// kGenericConfig, and match a direct run of the expanded stream counter
// for counter — for a non-LRU policy, a scaled tier-1 share, and a
// two-tier machine.
TEST(TraceReplayDifferential, PolicyConfigFallsBack) {
  const BlockRunTrace trace = random_trace(61, 3000);
  ASSERT_TRUE(trace.has_replay_index());
  CaConfig clock_config;
  clock_config.policy = paging::parse_policy_token("clock");
  CaConfig scaled_config;
  scaled_config.tier1_num = 1;
  scaled_config.tier1_den = 2;
  CaConfig tiered_config;
  tiered_config.tier2_blocks = 64;
  for (const CaConfig& config : {clock_config, scaled_config, tiered_config}) {
    ASSERT_FALSE(config.plain_lru());
    CaMachine replayed(random_boxes(61), 8, /*record_boxes=*/true, nullptr,
                       config);
    replayed.replay_trace(trace);
    EXPECT_EQ(replayed.last_replay_path(), ReplayPath::kGenericConfig);

    CaMachine direct(random_boxes(61), 8, /*record_boxes=*/true, nullptr,
                     config);
    for (const BlockId block : trace.expand()) direct.access(block * 8);
    expect_ca_machines_eq(replayed, direct);
  }
}

// The default config must keep the fast walk — the config fallback
// check is first in precedence, so pin that it does not misfire.
TEST(TraceReplayDifferential, DefaultConfigKeepsFastWalk) {
  const BlockRunTrace trace = random_trace(67, 1000);
  CaMachine walk(random_boxes(67), 8, /*record_boxes=*/false, nullptr,
                 CaConfig{});
  walk.replay_trace(trace);
  EXPECT_EQ(walk.last_replay_path(), ReplayPath::kFastWalk);
}

// A box hook must see real cache state (fault injection), so it too
// refuses the walk.
TEST(TraceReplayDifferential, BoxHookFallsBack) {
  const BlockRunTrace trace = random_trace(71, 1000);
  CaMachine hooked(random_boxes(71), 8);
  hooked.set_box_hook([](std::uint64_t, std::uint64_t) {});
  hooked.replay_trace(trace);
  EXPECT_EQ(hooked.last_replay_path(), ReplayPath::kGenericBoxHook);

  CaMachine direct(random_boxes(71), 8);
  for (const BlockId block : trace.expand()) direct.access(block * 8);
  EXPECT_EQ(hooked.misses(), direct.misses());
  EXPECT_EQ(hooked.boxes_started(), direct.boxes_started());
}

// A cancel token, unlike a box hook, keeps the walk: an idle token
// changes no counter, and a requested one unwinds the walk at its first
// box rollover with CancelledError.
TEST(TraceReplayDifferential, CancelTokenKeepsFastWalk) {
  const BlockRunTrace trace = random_trace(73, 1000);
  robust::CancelToken token;
  CaMachine idle(random_boxes(73), 8);
  idle.set_cancel(&token);
  idle.replay_trace(trace);
  EXPECT_EQ(idle.last_replay_path(), ReplayPath::kFastWalk);
  CaMachine plain(random_boxes(73), 8);
  plain.replay_trace(trace);
  expect_ca_machines_eq(idle, plain);
  ASSERT_GT(plain.boxes_started(), 1u);  // the walk does roll over

  token.request(robust::CancelReason::kExternal);
  CaMachine cancelled(random_boxes(73), 8);
  cancelled.set_cancel(&token);
  EXPECT_THROW(cancelled.replay_trace(trace), robust::CancelledError);
  EXPECT_EQ(cancelled.last_replay_path(), ReplayPath::kFastWalk);
  EXPECT_EQ(cancelled.boxes_started(), 1u);
}

// replay_path_name backs the CLI's fallback-reason diagnostics; keep
// the strings stable.
TEST(TraceReplayDifferential, ReplayPathNames) {
  EXPECT_STREQ(paging::replay_path_name(ReplayPath::kNone), "none");
  EXPECT_STREQ(paging::replay_path_name(ReplayPath::kFastWalk), "fast-walk");
  EXPECT_STREQ(paging::replay_path_name(ReplayPath::kGenericConfig),
               "generic:config");
  EXPECT_STREQ(paging::replay_path_name(ReplayPath::kGenericUnindexed),
               "generic:unindexed");
}

// ---- Cell-level bit identity through the campaign runner ----

engine::McSummary run_cell_summary(bool capture, bool per_access,
                                   std::size_t threads,
                                   const std::string& sort = "funnel") {
  campaign::Cell cell;
  cell.sort = sort;
  cell.profile =
      campaign::parse_profile_token("uniform:4:64", campaign::Workload::kSort);
  cell.seed = 7;
  campaign::CellRunOptions options;
  options.keys = 2048;
  options.block = 8;
  options.timing = false;
  options.capture_trace = capture;
  options.per_access = per_access;
  engine::McOptions mc;
  mc.trials = 12;
  mc.seed = cell.seed;
  util::ThreadPool pool(threads);
  mc.pool = &pool;
  return campaign::run_cell_trials(mc,
                                   campaign::make_cell_runner(cell, options));
}

// Capture/replay is bit-identical to its per-access reference across
// thread-pool sizes 1/2/8: the trace is captured once, under a mutex, on
// whichever trial gets there first, and every trial (including the
// first) consumes the shared trace.
TEST(CellReplayDifferential, PoolSizesAndPerAccessAgree) {
  for (const std::string sort : {"funnel", "mm:32"}) {
    const auto base = run_cell_summary(/*capture=*/true, /*per_access=*/false,
                                       /*threads=*/1, sort);
    EXPECT_EQ(base.failed, 0u);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      expect_summaries_eq(base,
                          run_cell_summary(true, false, threads, sort));
    }
    // The per-access reference replay (generic run-by-run path).
    expect_summaries_eq(base, run_cell_summary(true, true, 1, sort));
  }
}

// Without capture the fast dispatch path must match the per-access
// reference across pool sizes too (per-trial inputs, not fixed ones).
TEST(CellReplayDifferential, DirectFastMatchesPerAccess) {
  const auto fast = run_cell_summary(/*capture=*/false, /*per_access=*/false,
                                     /*threads=*/8);
  expect_summaries_eq(fast, run_cell_summary(false, true, 2));
  expect_summaries_eq(fast, run_cell_summary(false, false, 1));
}

// adaptive queries current_box_size(), so its stream is profile-
// dependent and cannot be replayed; capture mode must fall back to
// per-trial direct runs (with the cell-fixed input) and still be
// deterministic across pools and dispatch modes.
TEST(CellReplayDifferential, AdaptiveCaptureFallsBackDeterministically) {
  const auto base =
      run_cell_summary(true, false, 1, "adaptive");
  EXPECT_EQ(base.failed, 0u);
  expect_summaries_eq(base, run_cell_summary(true, false, 8, "adaptive"));
  expect_summaries_eq(base, run_cell_summary(true, true, 2, "adaptive"));
}

}  // namespace
}  // namespace cadapt
