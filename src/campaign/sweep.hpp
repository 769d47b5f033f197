// The sweep orchestrator: execute a Plan's cells on a thread pool and
// aggregate a Report (docs/SWEEPS.md).
//
// The --jobs threads drive campaign::TrialScheduler, the loop `cadapt
// serve` runs too: a thread admits the next cell of its shard (after the
// budget and cancel checks) and claims its trials one at a time through
// engine::run_single_trial, which brings the Monte-Carlo layer's
// containment/retry/fault machinery; idle threads help at the tail, and
// whoever lands a cell's last trial aggregates and commits it. Because
// every trial is a pure function of (cell seed, trial index, attempt)
// and records land at their trial index, the report is bit-identical
// across --jobs values, across a --shards split merged back together,
// and across a kill + --resume (wall clocks excepted; pass timing =
// false to zero them, as the bit-identity tests do).
//
// Checkpoint format (JSONL, shared cell encoding with the report):
//
//   {"type":"sweep_checkpoint","version":1,"config_hash":...,
//    "shards":...,"shard_index":...,"cells":...[,"run":...]}
//   {"type":"sweep_cell",...}   — one line per FINISHED cell, completion
//                                 order (the report re-sorts by index)
//
// Cells are the checkpoint grain: a killed sweep loses at most the cells
// in flight, and --resume re-derives exactly the missing ones.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "campaign/cell_runner.hpp"
#include "campaign/plan.hpp"
#include "campaign/report.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "robust/backoff.hpp"
#include "robust/budget.hpp"
#include "robust/cancel.hpp"
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
  /// sweep_trial_error event per contained failure. Null = disabled.
  obs::TraceSink* trace = nullptr;
  obs::ClockFn clock = &obs::steady_now_ns;  ///< test seam
};

/// Run this shard of the plan. Throws util::ParseError for a mismatched
/// resume checkpoint, util::UsageError for bad sharding, and
/// util::IoError when a checkpoint commit fails (a failed commit never
/// leaves a torn line: the appender either durably commits a whole cell
/// record or reports); per-trial failures never throw (contained in the
/// cells' failed counts). Cancellation (deadline watchdog or external
/// token) discards the in-flight cells and returns a truncated report
/// carrying the reason — committed checkpoint cells survive for resume.
Report run_sweep(const Plan& plan, const SweepOptions& options = {});

/// run_cell's records, claimed by `threads` threads (0 = hardware)
/// through run_sweep's loop: byte-identical at every thread count. The
/// first thrown trial is rethrown.
std::vector<robust::TrialRecord> run_cell_shared(const Cell& cell,
                                                 const CellRunOptions& options,
                                                 std::size_t threads);

// The pieces run_sweep is made of, exposed so other drivers of the same
// checkpoint/report formats — the `cadapt serve` daemon foremost — reuse
// them instead of re-deriving the encoding. A serve job IS a shards=1
// sweep of its manifest: same header, same loader, same report assembly,
// which is what makes "daemon report == one-shot sweep report" a
// byte-for-byte identity rather than a convention.

/// The robust settings a trial's records depend on besides the plan:
/// "retries=R fault=SPEC fault_seed=S backoff_ms=B". `cadapt mc` ends
/// its checkpoint fingerprint with it; a sweep checkpoint header carries
/// it as `run`.
std::string run_fingerprint(std::uint32_t max_attempts,
                            const robust::FaultPlan* faults,
                            std::uint64_t backoff_base_ns);

/// The checkpoint's header line: version, config_hash, sharding, grid
/// size, and the run fingerprint — emitted only when it differs from the
/// default run (no retries, faults or backoff), so default checkpoints
/// keep their bytes. A resume refuses any mismatch (see
/// load_sweep_checkpoint).
obs::Event sweep_checkpoint_header(const Plan& plan, std::uint64_t shards,
                                   std::uint64_t shard_index,
                                   const std::string& run);

/// Finished cells recorded by a previous run of this exact shard and
/// run fingerprint, keyed by cell index. A missing file is an empty map
/// (fresh start). Throws util::ParseError when the header does not match
/// — every divergent field is NAMED with both values.
std::map<std::uint64_t, CellResult> load_sweep_checkpoint(
    const std::string& path, const Plan& plan, std::uint64_t shards,
    std::uint64_t shard_index, const std::string& run);

/// Assemble the deterministic report exactly as run_sweep does: cells
/// sorted by index, fits only at full grid coverage, this binary's build
/// provenance. `wall_ms` is stored verbatim (pass 0 for timing-free
/// artifacts).
Report assemble_report(const Plan& plan, std::vector<CellResult> cells,
                       std::uint64_t shards, std::uint64_t shard_index,
                       bool truncated, robust::CancelReason truncate_reason,
                       std::uint64_t wall_ms);

}  // namespace cadapt::campaign
