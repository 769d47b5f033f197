#include "paging/block_run.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/check.hpp"

namespace cadapt::paging {

void BlockRunTrace::push(BlockId block, std::uint64_t count) {
  if (count == 0) return;
  CADAPT_CHECK_MSG(block <= kMaxBlock,
                   "block id " << block
                               << " exceeds the 32-bit trace limit (2^32 - 1)");
  accesses_ += count;
  steps_.clear();  // appended runs invalidate the replay index
  const auto id = static_cast<std::uint32_t>(block);
  if (run_count_ != 0 && chunks_.back().back().block == id) {
    BlockRun& last = chunks_.back().back();
    const std::uint64_t fill = std::min(kMaxRunCount - last.count, count);
    last.count += static_cast<std::uint32_t>(fill);
    count -= fill;
  }
  // A count beyond one run's 32 bits continues as full runs of the same
  // block: the replay index points each piece at its predecessor, which
  // the fast walk counts as a hit, so the split is exact.
  while (count != 0) {
    const std::uint64_t piece = std::min(kMaxRunCount, count);
    if (run_count_ % kChunkRuns == 0) {
      chunks_.emplace_back().reserve(kChunkRuns);
    }
    chunks_.back().push_back(BlockRun{id, static_cast<std::uint32_t>(piece)});
    ++run_count_;
    count -= piece;
  }
}

std::uint64_t BlockRunTrace::storage_bytes() const {
  std::uint64_t bytes = steps_.capacity() * sizeof(ReplayStep);
  for (const std::vector<BlockRun>& chunk : chunks_) {
    bytes += chunk.capacity() * sizeof(BlockRun);
  }
  return bytes;
}

void BlockRunTrace::ensure_replay_index() {
  if (has_replay_index() || run_count_ == 0) return;
  // prev1 = 1 + run index must fit 32 bits.
  if (run_count_ >= 0xffffffffull) return;  // unindexable: generic replay
  steps_.assign(run_count_, ReplayStep{0});
  // AddressSpace hands out block ids densely from 0, so a direct-mapped
  // table covers the common case without any hashing; fall back to a
  // hash map only for genuinely sparse id spaces.
  std::uint64_t max_block = 0;
  for_each_run([&max_block](const BlockRun& run) {
    max_block = std::max<std::uint64_t>(max_block, run.block);
  });
  std::uint32_t i = 0;  // index of the run being indexed
  if (max_block <= 8 * run_count_ + 1024) {
    std::vector<std::uint32_t> last(max_block + 1, 0);  // block -> 1 + index
    for_each_run([&](const BlockRun& run) {
      std::uint32_t& slot = last[run.block];
      steps_[i].prev1 = slot;
      slot = ++i;
    });
    return;
  }
  std::unordered_map<std::uint32_t, std::uint32_t> last;  // -> 1 + run index
  for_each_run([&](const BlockRun& run) {
    auto [it, inserted] = last.try_emplace(run.block, i + 1);
    if (!inserted) {
      steps_[i].prev1 = it->second;
      it->second = i + 1;
    }
    ++i;
  });
}

void BlockRunTrace::replay_into(Machine& machine) const {
  if (block_size_ != 0) {
    CADAPT_CHECK_MSG(machine.block_size() == block_size_,
                     "trace recorded at block size "
                         << block_size_ << ", machine uses "
                         << machine.block_size());
  }
  const std::uint64_t b = machine.block_size();
  for_each_run([&machine, b](const BlockRun& run) {
    machine.access_run(BlockId{run.block} * b, run.count);
  });
}

std::vector<BlockId> BlockRunTrace::expand() const {
  std::vector<BlockId> blocks;
  blocks.reserve(accesses_);
  for_each_run([&blocks](const BlockRun& run) {
    blocks.insert(blocks.end(), run.count, BlockId{run.block});
  });
  return blocks;
}

void BlockRunRecorder::access_cold(WordAddr, BlockId block) {
  if (have_run_ && block == run_block_) return;  // per-access-path revisit
  if (--runs_to_poll_ == 0) {
    runs_to_poll_ = kCancelPollRuns;
    if (cancel_ != nullptr) cancel_->poll();
  }
  const std::uint64_t seen = accesses() - 1;  // this access already counted
  if (have_run_) trace_.push(run_block_, seen - run_start_);
  run_block_ = block;
  run_start_ = seen;
  have_run_ = true;
  mark_hot(block);
}

BlockRunTrace BlockRunRecorder::take() {
  if (have_run_) {
    trace_.push(run_block_, accesses() - run_start_);
    have_run_ = false;
  }
  trace_.ensure_replay_index();
  return std::move(trace_);
}

}  // namespace cadapt::paging
