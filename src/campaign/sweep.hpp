// The sweep orchestrator: execute a Plan's cells on a thread pool and
// aggregate a Report (docs/SWEEPS.md).
//
// The --jobs threads drive campaign::TrialScheduler over the shard's
// cells (after the budget and cancel checks) and run each cell through
// a CellLifecycle; `cadapt serve` runs both too. Because every trial is
// a pure function of (cell seed, trial index, attempt) and records land
// at their trial index, the report is bit-identical across --jobs
// values, across a --shards split merged back together, and across a
// kill + --resume (wall clocks excepted; pass timing = false to zero
// them, as the bit-identity tests do).
//
// Checkpoint format: the header, then src/robust/checkpoint.hpp's record
// grammar — one sweep_cell line per finished cell in completion order
// (the report re-sorts by index), and for a cell of more than
// kTrialChunk trials its trial lines, one commit per kTrialChunk landed
// trials, before its sweep_cell line:
//
//   {"type":"sweep_checkpoint","version":1,"config_hash":...,
//    "shards":...,"shard_index":...,"cells":...[,"run":...]}
//
// A killed sweep loses at most the cells and chunks in flight; --resume
// runs exactly the trials no line holds, and writes none of them twice.
//
// `cadapt mc` runs on the same loop (run_cell_trials) as one claim of one
// cell, committed per --checkpoint-every chunk under its own header.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/cell_runner.hpp"
#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "campaign/trial_scheduler.hpp"
#include "engine/montecarlo.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "robust/backoff.hpp"
#include "robust/budget.hpp"
#include "robust/cancel.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault.hpp"
#include "robust/io.hpp"

namespace cadapt::campaign {

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency. Idle threads split a
  /// cell's trials; the manifest's `workers` key is a no-op.
  std::uint64_t jobs = 0;
  std::uint64_t shards = 1;
  std::uint64_t shard_index = 0;
  /// false zeroes wall_ms and every cell's wall_ns — bit-identical runs.
  bool timing = true;
  /// Force the per-box reference driver in every trial (docs/PERF.md).
  /// The default bulk path produces a bit-identical report, so this
  /// exists for differential tests (`cadapt sweep --per-box`).
  bool per_box = false;
  /// Force per-word Machine dispatch in sort-workload trials (disable the
  /// hot-block shortcut). Also bit-identical by contract; exists for
  /// differential tests (`cadapt sweep --per-access`).
  bool per_access = false;
  std::uint32_t max_attempts = 1;  ///< per-trial attempts before containment
  /// Seeded fault plan shared by every trial; null = no injection. Must
  /// outlive the call.
  const robust::FaultPlan* faults = nullptr;
  /// Wall-clock / total-box budget, checked at cell admission. A tripped
  /// budget skips the remaining cells and marks the report truncated.
  /// When deadline_ns is set and no external `cancel` token is supplied,
  /// run_sweep arms an internal robust::Watchdog so a stuck cell is also
  /// cancelled MID-cell (boxes budgets stay boundary-checked only — the
  /// truncation point must be a deterministic function of the work done).
  robust::Budget budget;
  /// External cooperative cancellation; null = none. A non-null token is
  /// polled at cell and box boundaries and suppresses the internal
  /// deadline watchdog (the caller owns the token's lifecycle). Must
  /// outlive the call.
  const robust::CancelToken* cancel = nullptr;
  /// Seeded retry backoff for failed trials (docs/ROBUSTNESS.md);
  /// disabled by default — attempt 0 never sleeps, so reports stay
  /// byte-identical for campaigns that never retry.
  robust::BackoffPolicy backoff;
  /// Durable I/O backend for checkpoint writes; null = system_io().
  /// Tests substitute robust::FaultyIo for ENOSPC/short-write drills.
  robust::IoBackend* io = nullptr;
  std::string checkpoint_path;  ///< empty = no checkpointing
  /// Load checkpoint_path (header must match this plan + sharding) and
  /// skip the cells it records; new cells append to the same file.
  bool resume = false;
  /// Optional observability stream: one sweep_cell event per newly
  /// executed cell in COMPLETION order (scheduling-dependent — this is
  /// telemetry, the report is the deterministic artifact) plus a
  /// sweep_trial_error event per contained failure, and a trace_capture
  /// and a trace_release event per trace the shard captures and frees
  /// (campaign::TraceCache). Null = disabled.
  obs::TraceSink* trace = nullptr;
  obs::ClockFn clock = &obs::steady_now_ns;  ///< test seam
};

/// Run this shard of the plan. Throws util::ParseError for a mismatched
/// resume checkpoint, util::UsageError for bad sharding, and
/// util::IoError when a checkpoint commit fails (no later cell is then
/// admitted or committed, so a torn record stays the file's final line,
/// which a resume repairs); per-trial failures never throw (contained in the
/// cells' failed counts). Cancellation (deadline watchdog or external
/// token) discards the in-flight cells and returns a truncated report
/// carrying the reason — committed checkpoint cells survive for resume.
Report run_sweep(const Plan& plan, const SweepOptions& options = {});

/// The controls of run_cell_trials beyond the trial options (`cadapt mc`).
struct CellTrials {
  /// Trials per chunk (`--checkpoint-every`): the grain of admission,
  /// budget checks and checkpoint commits; never changes the summary.
  std::uint64_t chunk = kTrialChunk;
  robust::Budget budget;  ///< where each stops the fold: run_cell_trials
  obs::ClockFn clock = &obs::steady_now_ns;  ///< test seam for the deadline
  std::string checkpoint_path;  ///< empty = no checkpointing
  bool resume = false;  ///< restore the trials checkpoint_path holds
  /// The header's config_hash: what shapes a trial besides (trials, seed).
  std::string config;
  robust::IoBackend* io = nullptr;  ///< null = robust::system_io()
};

/// Run trial_options.trials trials of `runner` on the sweep's trial loop
/// (TrialScheduler), with trial_options.pool's threads (null =
/// util::default_pool()), as one claim of one cell in `chunk`-trial
/// chunks. The lander of a chunk's last trial commits the trials it ran
/// (chunks land in any order), and once the budget is spent or the
/// deadline passed, or on a cancel, no further trial is claimed; a
/// cancelled chunk is discarded whole. Once the pool drains, the landed
/// chunks fold into the summary in trial order, stopping at the first
/// chunk that did not land, after the first chunk that takes the box
/// spend of this run to the budget, or after the first chunk that landed
/// past the deadline — so the summary is the same at every thread count.
/// Durations are recorded when trial_options.recorder asks for timing.
/// Throws util::ParseError for a foreign checkpoint and util::IoError for
/// a failed commit.
engine::McSummary run_cell_trials(const engine::McOptions& trial_options,
                                  const engine::RobustTrialRunner& runner,
                                  const CellTrials& options = {});

/// Restored trial records by cell index, each cell's in file order.
using TrialLines = std::map<std::uint64_t, std::vector<robust::TrialRecord>>;

// The pieces run_sweep is made of that `cadapt serve` reuses: a served
// job's cells run through the same CellLifecycle, its file holds the same
// sweep_cell lines and renders through the same report assembly, so
// "daemon report == one-shot sweep report" is a byte-for-byte identity
// rather than a convention.

/// The one writer of every driver's checkpoint records: one appender, one
/// mutex, one line buffer. Thread-safe; a null or closed file makes every
/// commit a no-op.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::unique_ptr<robust::DurableAppender> file)
      : file_(std::move(file)) {}

  bool enabled() const { return file_ != nullptr; }
  /// One durable commit of chunk c's trials of `claimed` that were not
  /// restored (none: no commit), each line keyed by "cell".
  void commit_chunk(const CellClaim& claimed, std::uint64_t c);
  /// One durable commit of `events`, then the file closes when `close`;
  /// returns the last line.
  std::string commit(const std::vector<obs::Event>& events,
                     bool close = false);

 private:
  void append(const obs::Event& event);  // encode into line_ and write

  std::mutex mutex_;
  std::unique_ptr<robust::DurableAppender> file_;  ///< mutex_
  std::string line_;                               ///< mutex_
};

/// One plan's cell lifecycle (a sweep shard's, a served job's); the
/// drivers only pick the next cell. It owns the cell options, the
/// TraceCache (one capture per replayed (program, seed)), the restored
/// trial lines and the CheckpointWriter. A claimed cell holds it, so a
/// helper still running a trial after its driver let go keeps the plan,
/// the cache and the file alive. Thread-safe; lives in a shared_ptr.
class CellLifecycle : public std::enable_shared_from_this<CellLifecycle> {
 public:
  struct Landed {
    CellResult result;
    std::string line;  ///< its committed sweep_cell line (or empty)
    std::uint64_t boxes = 0;  ///< summed over its trials
  };

  /// `checkpoint` null = none. `trace` gets the sweep_cell,
  /// sweep_trial_error and TraceCache events; it must outlive the claims.
  CellLifecycle(std::shared_ptr<const Plan> plan, CellRunOptions options,
                std::unique_ptr<robust::DurableAppender> checkpoint,
                TrialLines restored, obs::SharedSink& trace);

  const Plan& plan() const { return *plan_; }
  /// Count a cell still to run, before the first claim.
  void expect(const Cell& cell) { traces_.add_user(cell); }
  /// Trial options, sized records, chunks and the runner (none for a cell
  /// restored whole). A checkpointed cell of more than kTrialChunk trials
  /// lands in kTrialChunk-trial chunks, its restored trials in place; any
  /// other cell is one chunk. A failure skips the cell and rethrows.
  void claim(CellClaim& claimed, const Cell& cell);
  /// TrialScheduler's land_chunk step: commit chunk c's trial lines, if
  /// the cell has more than one chunk.
  void commit(const CellClaim& claimed, std::uint64_t c) {
    if (claimed.chunk < claimed.cell->trials) writer_.commit_chunk(claimed, c);
  }
  /// Once every trial landed: aggregate, commit the sweep_cell line, emit
  /// its events, drop the runner and records, skip. A failed commit
  /// throws util::IoError before the skip.
  Landed land(CellClaim& claimed);
  /// Release the trace of a cell never admitted, or abandoned.
  void skip(const Cell& cell) { traces_.release(cell); }
  /// Commit `events` as the checkpoint's last records and close it.
  void close(const std::vector<obs::Event>& events) {
    writer_.commit(events, true);
  }

 private:
  const std::shared_ptr<const Plan> plan_;
  obs::SharedSink& trace_;
  CellRunOptions options_;
  TraceCache traces_;
  TrialLines restored_;  ///< each moved into its cell's claim
  CheckpointWriter writer_;
};

/// The robust settings a trial's records depend on besides the plan:
/// "retries=R fault=SPEC fault_seed=S backoff_ms=B". `cadapt mc` ends
/// its checkpoint fingerprint with it; sweep checkpoint and serve job
/// headers carry it as `run`.
std::string run_fingerprint(std::uint32_t max_attempts,
                            const robust::FaultPlan* faults,
                            std::uint64_t backoff_base_ns);

/// What a checkpoint's records restore.
struct Restored {
  std::map<std::uint64_t, CellResult> cells;  ///< finished, by cell index
  TrialLines trials;  ///< the other cells' trial records
};

/// The robust::open_checkpoint record callback of every driver's file:
/// decodes each sweep_cell line into `into.cells` (a cell recorded twice
/// keeps its last line) and each trial_result/trial_error line into
/// `into.trials` (cell 0 without a "cell" key). A cell's sweep_cell line
/// supersedes its trial lines, in either order. Throws util::ParseError
/// for any other line type.
robust::RecordFn restore_cells(Restored& into);

/// Assemble the deterministic report exactly as run_sweep does: cells
/// sorted by index, fits only at full grid coverage, this binary's build
/// provenance. `wall_ms` is stored verbatim (pass 0 for timing-free
/// artifacts).
Report assemble_report(const Plan& plan, std::vector<CellResult> cells,
                       std::uint64_t shards, std::uint64_t shard_index,
                       bool truncated, robust::CancelReason truncate_reason,
                       std::uint64_t wall_ms);

}  // namespace cadapt::campaign
