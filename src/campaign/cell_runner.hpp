// Execute one planned cell: `trials` contained trials through
// engine::run_single_trial, so the campaign reuses the Monte-Carlo
// layer's containment/retry/fault machinery. run_cell runs them inline
// on the calling thread (or on a `workers` pool for sort cells); the
// sweep orchestrator instead builds the runner once with
// make_cell_runner and lets its --jobs threads claim the trials one at a
// time (campaign/sweep.hpp).
//
// Determinism: every trial's outcome is a pure function of
// (cell.seed, trial index, attempt) — identical across --jobs, --shards,
// and resume boundaries. Only duration_ns varies; run with timing = false
// to zero it (the bit-identity tests do).
#pragma once

#include <memory>
#include <vector>

#include "campaign/plan.hpp"
#include "engine/montecarlo.hpp"
#include "paging/policy.hpp"
#include "profile/distributions.hpp"
#include "robust/backoff.hpp"
#include "robust/cancel.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault.hpp"

namespace cadapt::campaign {

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
  /// loops, and at every sort-cell machine box boundary
  /// (CaMachine::set_cancel — the replay fast walk stays live), so a
  /// stuck cell terminates within one box of the request. Must outlive
  /// the call.
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
  /// Record-once/replay-many (docs/PERF.md): capture the cell's block-run
  /// trace once and replay it for every trial. Inputs are then fixed per
  /// cell (seeded by the cell seed), and profile-dependent programs
  /// (adaptive) fall back to direct runs with that same fixed input.
  /// Non-default machine configs (policy/tiers) replay through the
  /// generic per-run path — same counters, no fast walk (docs/PAGING.md).
  bool capture_trace = false;
  /// Two-tier machine shape shared by every cell (docs/PAGING.md);
  /// default = the historical single-tier machine.
  TiersSpec tiers;
  /// Intra-cell trial parallelism for run_cell (docs/PARALLEL.md): >= 2
  /// runs a sort cell's trials on a seeded work-stealing pool instead of
  /// the sequential loop. Records land at their trial index, so reports
  /// are byte-identical to workers = 1 (the tests hold the two together).
  /// Ratio cells and single-trial cells ignore it. `cadapt serve` uses it
  /// for adaptive-sort cells, which trace replay cannot cover;
  /// run_sweep never calls run_cell, so it has no effect there.
  std::uint64_t workers = 1;
};

/// Options derived from the manifest the plan came from.
CellRunOptions cell_options_from(const Manifest& manifest);

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
/// run_sweep and the CLI's `mc` drive the exact same trial. A ratio cell
/// (cell.sort empty) runs cell.algo at cell.n on cell.profile; a
/// sort/program cell runs adaptive|funnel|merge2 on options.keys keys, or
/// mm:N|fw:N on an N x N matrix. The runner may be called from several
/// threads at once: every ratio runner builds a fresh profile source from
/// its trial seed, and a program runner's only shared state is its
/// once-captured trace (std::call_once).
engine::RobustTrialRunner make_cell_runner(const Cell& cell,
                                           const CellRunOptions& options);

/// The engine::run_single_trial options of the cell's trials: the cell
/// seed plus options' attempts, faults, cancel token and backoff.
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
/// fires (the caller discards the interrupted cell wholesale). Used by
/// `cadapt serve`'s per-cell dispatch and `cadapt parallel --scale`.
std::vector<robust::TrialRecord> run_cell(const Cell& cell,
                                          const CellRunOptions& options);

}  // namespace cadapt::campaign
