// The one trial scheduler of `cadapt sweep` (run_sweep), `cadapt serve`
// (ServeCore) and `cadapt mc` (run_cell_trials, one claim of one cell);
// docs/SWEEPS.md, "Execution". It owns no threads: each caller runs
// work() on its own, and supplies the admit, finish and abandon steps.
//
// The loop: admit a cell and claim its trials one at a time. Once no cell
// can be admitted, help the admitted cell with the most unclaimed trials,
// so one heavy cell no longer holds a single thread while the rest idle.
// Every cell lands in chunks: the lander of a chunk's last trial runs
// land_chunk, and the lander of the last chunk finishes the cell. The
// first trial that throws abandons the cell whole, so a partially
// executed cell never reaches a report or a sweep_cell line. A thread
// holds its admitted cell until the cell's trials are all claimed, so at
// most one admitted cell per thread is unfinished. A thread that finds
// nothing to admit or help while another is still inside admit waits for
// that admission to end and looks again, so a slow admission of the last
// cell does not leave it to one thread. Restored trials count, never run.
//
// Every trial is a pure function of (cell seed, trial index, attempt) and
// lands at its index in records, so a cell's records never depend on which
// thread, how many threads, or which orchestrator ran it.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "campaign/plan.hpp"
#include "engine/montecarlo.hpp"
#include "robust/checkpoint.hpp"

namespace cadapt::campaign {

class CellLifecycle;

/// Trials per chunk of a checkpointed cell (`mc`: --checkpoint-every).
inline constexpr std::uint64_t kTrialChunk = 256;

/// An admitted cell's trial state.
struct CellClaim {
  /// What claimed it, held for the claim's life (null in run_cell_trials).
  std::shared_ptr<CellLifecycle> lifecycle;
  const Cell* cell = nullptr;
  engine::McOptions trial_options;  ///< trial_options_for(cell, ...)
  engine::RobustTrialRunner runner;  ///< make_cell_runner(cell, ...)
  std::vector<robust::TrialRecord> records;  ///< records[trial]
  /// Trials per chunk: `mc`'s --checkpoint-every, kTrialChunk for a
  /// checkpointed sweep or serve cell of more trials, else all of them.
  std::uint64_t chunk = 0;
  std::vector<bool> restored;  ///< records restored from the checkpoint
  std::vector<std::atomic<std::uint64_t>> landed;  ///< trials, per chunk
  std::atomic<std::uint64_t> next{0};        ///< next unclaimed trial
  std::atomic<std::uint64_t> done{0};        ///< trials of landed chunks
  std::atomic<bool> abandoned{false};

  std::uint64_t unclaimed() const {
    const std::uint64_t claimed = next.load(std::memory_order_relaxed);
    return claimed < cell->trials ? cell->trials - claimed : 0;
  }
  /// One past chunk c's last trial; it starts at c * chunk.
  std::uint64_t chunk_end(std::uint64_t c) const {
    return std::min(cell->trials, (c + 1) * chunk);
  }
};

/// An admitted cell. `Owner` is the caller's handle for it: run_sweep's
/// shard slot, ServeCore's job.
template <class Owner>
struct ClaimedCell : CellClaim {
  Owner owner{};
};

template <class Owner>
class TrialScheduler {
 public:
  using Claimed = ClaimedCell<Owner>;

  struct Steps {
    /// The next cell, ready to claim (runner, trial options, records
    /// sized); null when none can be admitted now. Called unlocked.
    std::function<std::shared_ptr<Claimed>()> admit;
    /// Optional: the admitted cell can now be helped (ServeCore wakes
    /// its idle threads here).
    std::function<void()> admitted = nullptr;
    /// Run once, by the lander of the last trial; a throw abandons.
    std::function<void(Claimed&)> finish;
    /// Run once, inside the catch of the cell's first throw:
    /// std::current_exception() is the error. Claims stop.
    std::function<void(Claimed&)> abandon;
    /// Chunk c, run once by the lander of its last trial (before the
    /// cell's finish); a throw abandons.
    std::function<void(Claimed&, std::uint64_t)> land_chunk;
  };

  /// timing = false zeroes every record's duration_ns.
  TrialScheduler(Steps steps, bool timing)
      : steps_(std::move(steps)), timing_(timing) {}

  /// Claim trials on the calling thread until nothing can be admitted or
  /// helped. A caller whose work arrives later calls it again.
  void work() {
    while (const std::shared_ptr<Claimed> cell = next_cell()) claim(*cell);
  }

 private:
  // Admit while the caller has cells, so whole cells are claimed while
  // there is work to spread; only then help at the tail. With nothing to
  // help while other admissions are in flight, wait until one lands a
  // cell or all of them end, then look again: an admission in flight may
  // bring trials to help with.
  std::shared_ptr<Claimed> next_cell() {
    for (;;) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++admitting_;
      }
      std::shared_ptr<Claimed> cell = steps_.admit();
      std::unique_lock<std::mutex> lock(mutex_);
      --admitting_;
      drop_claimed();
      if (cell != nullptr) {
        admitted_.push_back(cell);
        changed_.notify_all();
        lock.unlock();
        if (steps_.admitted) steps_.admitted();
        return cell;
      }
      if (admitting_ == 0) changed_.notify_all();
      if (std::shared_ptr<Claimed> most = most_unclaimed()) return most;
      if (admitting_ == 0) return nullptr;
      changed_.wait(lock, [this] {
        drop_claimed();
        return admitting_ == 0 || !admitted_.empty();
      });
    }
  }

  // The admitted cell with the most unclaimed trials, or null (caller
  // holds mutex_, after drop_claimed).
  std::shared_ptr<Claimed> most_unclaimed() const {
    const auto most = std::max_element(
        admitted_.begin(), admitted_.end(),
        [](const std::shared_ptr<Claimed>& a,
           const std::shared_ptr<Claimed>& b) {
          return a->unclaimed() < b->unclaimed();
        });
    return most == admitted_.end() ? nullptr : *most;
  }

  // Fully claimed cells need no help (caller holds mutex_).
  void drop_claimed() {
    std::erase_if(admitted_, [](const std::shared_ptr<Claimed>& cell) {
      return cell->unclaimed() == 0;
    });
  }

  // No lock and no allocation per trial.
  void claim(Claimed& cell) {
    const std::uint64_t trials = cell.cell->trials;
    for (;;) {
      const std::uint64_t trial =
          cell.next.fetch_add(1, std::memory_order_relaxed);
      if (trial >= trials) return;
      try {
        if (!cell.restored[trial]) {
          cell.records[trial] = engine::run_single_trial(
              cell.trial_options, cell.runner, trial, timing_);
        }
        const std::uint64_t c = trial / cell.chunk;
        const std::uint64_t size = cell.chunk_end(c) - c * cell.chunk;
        // acq_rel: the chunk's lander sees every helper's record of it.
        if (cell.landed[c].fetch_add(1, std::memory_order_acq_rel) + 1 !=
            size) {
          continue;
        }
        steps_.land_chunk(cell, c);
        if (cell.done.fetch_add(size, std::memory_order_acq_rel) + size ==
            trials) {
          steps_.finish(cell);
        }
      } catch (...) {
        // A failed trial never lands, so no helper can land its chunk nor
        // finish the cell: it is discarded whole.
        cell.next.store(trials, std::memory_order_relaxed);
        if (!cell.abandoned.exchange(true)) steps_.abandon(cell);
        return;
      }
    }
  }

  const Steps steps_;
  const bool timing_;
  std::mutex mutex_;
  std::condition_variable changed_;  // a cell admitted, or admitting_ 0
  std::size_t admitting_ = 0;        // threads inside steps_.admit()
  std::vector<std::shared_ptr<Claimed>> admitted_;
};

}  // namespace cadapt::campaign
