// Execute one planned cell: `trials` contained trials through
// engine::run_single_trial, so the campaign reuses the Monte-Carlo
// layer's containment/retry/fault machinery. run_cell runs them inline
// on the calling thread, the sequential reference; `cadapt sweep` and
// `cadapt serve` instead build the runner once with make_cell_runner and
// let their threads claim the trials one at a time through
// campaign::TrialScheduler (campaign/trial_scheduler.hpp).
//
// Determinism: every trial's outcome is a pure function of
// (cell.seed, trial index, attempt) — identical across --jobs, --shards,
// and resume boundaries. Only duration_ns varies; run with timing = false
// to zero it (the bit-identity tests do).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "campaign/plan.hpp"
#include "engine/montecarlo.hpp"
#include "obs/event.hpp"
#include "paging/block_run.hpp"
#include "paging/policy.hpp"
#include "profile/distributions.hpp"
#include "robust/backoff.hpp"
#include "robust/cancel.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault.hpp"

namespace cadapt::campaign {

class TraceCache;

struct CellRunOptions {
  engine::BoxSemantics semantics = engine::BoxSemantics::kOptimistic;
  /// Scan placement for ratio cells built on a profile source (the
  /// order/randscan runners fix their own).
  engine::ScanPlacement placement = engine::ScanPlacement::kEnd;
  std::uint64_t max_boxes = UINT64_C(1) << 40;
  /// Force the per-box reference driver in every trial (docs/PERF.md);
  /// the default bulk path is bit-identical, so this exists for
  /// differential tests (`cadapt sweep --per-box`) and debugging.
  bool per_box = false;
  std::uint32_t max_attempts = 1;
  /// Seeded fault plan shared by every cell; null = no injection. Must
  /// outlive the call.
  const robust::FaultPlan* faults = nullptr;
  /// Cooperative cancellation token (docs/ROBUSTNESS.md); null =
  /// disabled. Polled at every attempt start, inside ratio trials' box
  /// loops, at every sort-cell machine box boundary
  /// (CaMachine::set_cancel — the replay fast walk stays live), and every
  /// 4096 runs of a trace capture (BlockRunRecorder::set_cancel), so a
  /// stuck cell terminates within one box or one poll interval of the
  /// request. Must outlive the call.
  const robust::CancelToken* cancel = nullptr;
  /// Seeded retry backoff shared by every cell; disabled by default
  /// (attempt 0 never sleeps — bit-compatible with pre-backoff runs).
  robust::BackoffPolicy backoff;
  bool timing = true;  ///< false zeroes duration_ns (bit-identical runs)
  // Sort workload:
  std::uint64_t keys = 16384;
  std::uint64_t block = 8;
  /// Force per-word Machine dispatch (disable the hot-block shortcut and
  /// access_run batching). The fast path is bit-identical, so this exists
  /// for differential tests (`cadapt sweep --per-access`) and debugging.
  bool per_access = false;
  /// Record-once/replay-many (docs/PERF.md): capture the program's
  /// block-run trace once and replay it for every trial. Inputs are then
  /// fixed (seeded by the cell seed, which a trace_replay plan gives
  /// every cell of a program alike), and profile-dependent programs
  /// (adaptive) fall back to direct runs with that same fixed input.
  /// Non-default machine configs (policy/tiers) replay through the
  /// generic per-run path — same counters, no fast walk (docs/PAGING.md).
  bool capture_trace = false;
  /// Where capture_trace cells find their trace: null = each runner
  /// captures its own (`mc`, run_cell); a CellLifecycle passes its own,
  /// so a program's cells share one capture. Must outlive the runners.
  TraceCache* traces = nullptr;
  /// Two-tier machine shape shared by every cell (docs/PAGING.md);
  /// default = the historical single-tier machine.
  TiersSpec tiers;
};

/// Options derived from the manifest the plan came from.
CellRunOptions cell_options_from(const Manifest& manifest);

/// A CellLifecycle's block-run traces, shared by every cell that replays
/// the same input (docs/PERF.md, "Paging fast path"). Keyed by (program,
/// seed): a trace_replay plan gives a program's cells one seed, so one
/// capture serves its whole row of profiles and policies. An entry
/// counts the unfinished cells that replay it, and the last release
/// drops the trace. Capture keeps the per-cell rule: the first trial
/// captures under the entry's mutex while the others wait, and a
/// cancelled capture is never stored, so a later trial retries it.
/// Thread-safe.
class TraceCache {
 public:
  /// One (program, seed)'s trace, as make_cell_runner captures it.
  struct Capture {
    std::mutex mutex;
    bool captured = false;  ///< guarded by mutex; trace read-only once set
    paging::BlockRunTrace trace;
    bool verified = false;  ///< the capture run's output check
  };
  /// Receives a `trace_capture` event (program, seed, runs, bytes, the
  /// unfinished cells that will replay it, and the capture's wall time,
  /// capture_ns, 0 when untimed) after each capture, and a
  /// `trace_release` event (program, seed) when its last cell lets go.
  /// Called on the capturing or releasing thread, no cache lock held.
  using EventFn = std::function<void(const obs::Event&)>;

  /// `options.capture_trace` says which cells replay; the rest are
  /// ignored by add_user and release.
  TraceCache(const CellRunOptions& options, EventFn on_event);

  /// Count `cell` as an unfinished user of its trace. Every cell that
  /// make_cell_runner builds with this cache must be counted first.
  void add_user(const Cell& cell);
  /// Drop `cell`'s count (its cell finished, was abandoned or skipped);
  /// the last release frees the trace once no runner holds it.
  void release(const Cell& cell);
  /// The entry `cell` replays.
  std::shared_ptr<Capture> capture_for(const Cell& cell);
  /// Report a completed capture of `cell`'s trace, which took
  /// `capture_ns` of wall time (0 = untimed).
  void captured(const Cell& cell, const paging::BlockRunTrace& trace,
                std::uint64_t capture_ns);

 private:
  struct Entry {
    std::shared_ptr<Capture> capture = std::make_shared<Capture>();
    std::uint64_t users = 0;
    bool captured = false;  ///< captured() ran: release reports the free
  };
  using Key = std::pair<std::string, std::uint64_t>;  // program, seed

  bool replays(const Cell& cell) const;

  const bool capture_;
  const EventFn on_event_;
  std::mutex mutex_;
  std::map<Key, Entry> entries_;
};

/// The paging::CaConfig a cell's machine runs under: cell.policy (or
/// plain LRU when the cell has no policy axis) + options.tiers. Throws
/// util::ParseError on a malformed policy token.
paging::CaConfig ca_config_for(const Cell& cell,
                               const CellRunOptions& options);

/// The box distribution a profile token samples: the census of
/// M_{a,b}(n) for `shuffled` (n a power of params.b), the named
/// distribution for `iid:*`. Throws util::ParseError for any other kind.
std::shared_ptr<const profile::BoxDistribution> make_distribution(
    const ProfileSpec& spec, const model::RegularParams& params,
    std::uint64_t n);

/// The trial runner for one cell — the dispatch run_cell uses, exposed so
/// the TrialScheduler's callers and the CLI's `mc` drive the exact same
/// trial. A ratio cell
/// (cell.sort empty) runs cell.algo at cell.n on cell.profile; a
/// sort/program cell runs adaptive|funnel|merge2 on options.keys keys, or
/// mm:N|fw:N on an N x N matrix. The runner may be called from several
/// threads at once: every ratio runner builds a fresh profile source from
/// its trial seed, and a program runner's only shared state is its
/// once-captured trace (captured under a mutex; options.traces shares
/// it across cells).
engine::RobustTrialRunner make_cell_runner(const Cell& cell,
                                           const CellRunOptions& options);

/// The engine::run_single_trial options of the cell's trials: the cell's
/// trials and seed plus options' attempts, faults, cancel token and
/// backoff.
engine::McOptions trial_options_for(const Cell& cell,
                                    const CellRunOptions& options);

/// One direct program trial with an obs::PagingRecorder attached (which
/// forces the per-access reference path, so the recorder's tallies are
/// byte-identical to the pre-fast-path behavior) — backs the
/// `cadapt trace --sort` paging summary.
engine::RunResult run_program_traced(const Cell& cell,
                                     const CellRunOptions& options,
                                     std::uint64_t trial_seed,
                                     obs::PagingRecorder& recorder);

/// Run the cell's trials; records come back in trial order. Never throws
/// for per-trial faults (contained in the records); throws only for
/// malformed cells and for robust::CancelledError when options.cancel
/// fires (the caller discards the interrupted cell wholesale). The
/// sequential reference the scheduled runs are tested against.
std::vector<robust::TrialRecord> run_cell(const Cell& cell,
                                          const CellRunOptions& options);

}  // namespace cadapt::campaign
