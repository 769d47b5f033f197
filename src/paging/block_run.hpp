// Compressed block-run traces: record once, replay many (docs/PERF.md,
// "Paging fast path").
//
// A deterministic algorithm whose access stream does not depend on the
// machine's paging state (every cache-oblivious kernel in src/algos —
// but NOT adaptive_merge_sort, which queries current_box_size()) touches
// the same block sequence on every trial of a Monte-Carlo cell. Running
// it once through a BlockRunRecorder captures that sequence as
// coalesced BlockRun{block, count} stretches; replay_into() then drives
// any number of machines (one per sampled profile) through
// Machine::access_run at O(runs) cost — no algorithm re-execution, no
// per-word dispatch.
//
// Stored layout: 12 bytes per run — an 8-byte BlockRun (32-bit block id
// and count) plus the 4-byte ReplayStep of the replay index. Block ids
// must fit 32 bits (AddressSpace hands them out densely from 0; a larger
// id is a CheckError), and push() splits a count of 2^32 or more into
// consecutive runs of the same block, which both replay paths treat
// exactly like one run. Runs live in fixed chunks of kChunkRuns, so
// appending never relocates them: a capture touches each run's bytes
// once, where a doubling vector touched about twice the final size (and
// its transients overlapped when two captures ran at once). The replay
// index is built once, at its exact size, as one contiguous array.
//
// Bit-identity contract: the replayed machine sees the exact block
// sequence of the original run, so every counter a block-granular
// machine exposes (misses, boxes, accesses, cache stats) matches a
// direct simulation exactly; tests/test_paging_fast.cpp proves this
// across thread pools 1/2/8. Replay addresses the first word of each
// block — only word-granular observers (TraceRecorder) can tell.
#pragma once

#include <cstdint>
#include <vector>

#include "paging/machine.hpp"
#include "robust/cancel.hpp"

namespace cadapt::paging {

/// `count` consecutive accesses, all inside block `block`.
struct BlockRun {
  std::uint32_t block = 0;
  std::uint32_t count = 0;

  friend bool operator==(const BlockRun&, const BlockRun&) = default;
};
static_assert(sizeof(BlockRun) == 8);

/// A coalesced block-access trace. push() merges adjacent runs of the
/// same block, so the stored form is canonical: every count is >= 1, and
/// two neighboring runs share a block only when the first is full
/// (count == kMaxRunCount).
class BlockRunTrace {
 public:
  /// Largest block id and largest single-run count the packed layout
  /// stores (2^32 - 1).
  static constexpr std::uint64_t kMaxBlock = 0xffffffffull;
  static constexpr std::uint64_t kMaxRunCount = 0xffffffffull;
  /// Runs per storage chunk (512 KiB).
  static constexpr std::uint64_t kChunkRuns = std::uint64_t{1} << 16;

  BlockRunTrace() = default;
  explicit BlockRunTrace(std::uint64_t block_size)
      : block_size_(block_size) {}

  /// Append `count` accesses of `block`. Throws util::CheckError when
  /// block > kMaxBlock.
  void push(BlockId block, std::uint64_t count);

  /// A read-only view of the stored runs, in order.
  class Runs {
   public:
    std::uint64_t size() const { return trace_->run_count_; }
    /// Run i, i < size().
    const BlockRun& operator[](std::uint64_t i) const {
      return trace_->chunks_[i / kChunkRuns][i % kChunkRuns];
    }

   private:
    friend class BlockRunTrace;
    explicit Runs(const BlockRunTrace* trace) : trace_(trace) {}
    const BlockRunTrace* trace_;
  };
  Runs runs() const { return Runs(this); }
  /// Call fn(run) for every run, in order.
  template <class Fn>
  void for_each_run(Fn&& fn) const {
    for (const std::vector<BlockRun>& chunk : chunks_) {
      for (const BlockRun& run : chunk) fn(run);
    }
  }
  /// Bytes the runs and the replay index hold allocated.
  std::uint64_t storage_bytes() const;
  std::uint64_t accesses() const { return accesses_; }
  /// Block size of the recording machine; 0 = unspecified.
  std::uint64_t block_size() const { return block_size_; }

  /// One entry per run of the replay index that CaMachine::replay_trace
  /// consumes: prev1 = 1 + index of the nearest earlier run touching the
  /// same block, or 0 if there is none — so run i touches a block unseen
  /// since run p began iff steps[i].prev1 <= p. The walk needs nothing
  /// else (access counts come from accesses()), and it is memory-bound:
  /// real traces coalesce poorly (block-alternating merge and matrix
  /// streams have mean run length < 2), so it streams the whole index
  /// once per trial — 4 bytes per run.
  struct ReplayStep {
    std::uint32_t prev1;
  };

  /// Build the replay index: one pass, done once per trace
  /// (BlockRunRecorder::take finalizes it); afterwards any number of
  /// threads replay off the shared read-only index. push() invalidates
  /// it. A trace of >= 2^32 - 1 runs does not fit prev1, so it is left
  /// unindexed and replays through the generic per-run path.
  void ensure_replay_index();
  bool has_replay_index() const {
    return run_count_ != 0 && steps_.size() == run_count_;
  }
  const std::vector<ReplayStep>& replay_steps() const { return steps_; }

  /// Drive `machine` through the trace: exactly equivalent (block-wise)
  /// to re-running the recorded algorithm against it. Checks the block
  /// sizes match when the trace carries one.
  void replay_into(Machine& machine) const;

  /// The expanded per-access block stream (tests, sched traces).
  std::vector<BlockId> expand() const;

 private:
  std::uint64_t block_size_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t run_count_ = 0;
  /// Every chunk but the last holds exactly kChunkRuns runs; each is
  /// reserved whole when it opens.
  std::vector<std::vector<BlockRun>> chunks_;
  std::vector<ReplayStep> steps_;
};
static_assert(sizeof(BlockRunTrace::ReplayStep) == 4);

/// A Machine that captures the coalesced block-run stream of whatever is
/// run against it (no paging simulated; misses() reports 0). Repeat
/// accesses ride the base-class shortcut, so capturing costs O(block
/// changes), and run lengths are recovered exactly from the access
/// counter — the recorder works identically on the per-access path.
class BlockRunRecorder final : public Machine {
 public:
  /// Runs started between two polls of the cancel token.
  static constexpr std::uint32_t kCancelPollRuns = 4096;

  explicit BlockRunRecorder(std::uint64_t block_size)
      : Machine(block_size), trace_(block_size) {}

  std::uint64_t misses() const override { return 0; }

  /// Poll `cancel` (null = disabled) every kCancelPollRuns new runs, so a
  /// capture unwinds with robust::CancelledError within a bounded number
  /// of block changes of a request. Must outlive the recording.
  void set_cancel(const robust::CancelToken* cancel) { cancel_ = cancel; }

  /// Finalize the pending run and move the trace out. The recorder is
  /// spent afterwards (recording into it again is undefined).
  BlockRunTrace take();

 protected:
  void access_cold(WordAddr, BlockId block) override;

 private:
  BlockRunTrace trace_;
  const robust::CancelToken* cancel_ = nullptr;
  BlockId run_block_ = 0;
  std::uint64_t run_start_ = 0;  ///< accesses() before the open run began
  std::uint32_t runs_to_poll_ = kCancelPollRuns;
  bool have_run_ = false;
};

}  // namespace cadapt::paging
