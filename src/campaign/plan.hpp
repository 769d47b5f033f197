// The planner: expand a Manifest into its deterministic cell grid.
//
// A cell is one (algorithm × profile × problem size) point with its trial
// count and base seed — the atom of sweep execution, checkpointing, and
// sharding. Expansion order is fixed (algo-major, then profile, then k;
// sort-major, then profile, then policy for sort workloads — the policy
// axis only exists when the manifest names one), so cell indices are
// stable across runs,
// shards, and resumes; every artifact addresses cells by this index.
//
// Sharding is round-robin by index (cell i belongs to shard i % shards):
// contiguous slicing would give shard 0 all the small-n cells and the
// last shard all the big ones, so round-robin is both balanced and
// deterministic.
//
// Admission runs capture-first (capture_first): a replayed program's
// one-time trace capture is the longest serial step of a sort sweep, so
// each program's first pending cell is admitted before everything else.
// Reports never see the order: results are keyed by cell index.
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/manifest.hpp"

namespace cadapt::campaign {

struct Cell {
  std::uint64_t index = 0;  ///< position in the full expanded grid
  AlgoSpec algo;            ///< ratio workload (token empty for sort)
  ProfileSpec profile;
  unsigned k = 0;       ///< ratio: n = b^k
  std::uint64_t n = 0;  ///< ratio: problem blocks; sort: keys
  std::string sort;     ///< sort workload: adaptive|funnel|merge2
  /// Sort workload: canonical replacement-policy token, or "" when the
  /// manifest has no policy axis (the historical LRU machine).
  std::string policy;
  std::uint64_t trials = 1;
  std::uint64_t seed = 0;  ///< base seed for derive_trial_seed
};

struct Plan {
  Manifest manifest;
  std::uint64_t config_hash = 0;  ///< manifest_hash(manifest)
  std::vector<Cell> cells;        ///< full grid, index order
};

/// Expand the manifest. Ratio cells use seed = manifest.seed + k (the
/// same per-point decorrelation as core's sweep drivers) and force
/// trials = 1 on deterministic `worst` cells; sort cells use
/// seed = manifest.seed + index, except that under trace_replay every
/// cell of a program takes its first cell's seed (one input per
/// program).
Plan expand_plan(const Manifest& manifest);

/// Indices into plan.cells owned by one shard (round-robin). Throws
/// util::UsageError unless shard_index < shards and shards >= 1.
std::vector<std::size_t> shard_cells(const Plan& plan, std::uint64_t shards,
                                     std::uint64_t shard_index);

/// Whether `cell` replays a captured block-run trace: a program cell
/// under capture_trace (a manifest's trace_replay, `mc --capture-trace`),
/// except the adaptive sort, whose stream depends on the live box
/// profile.
bool replays_trace(const Cell& cell, bool capture);

/// The admission order of `pending` (indices into plan.cells, ascending:
/// a shard's unfinished cells): the first pending cell of each replayed
/// (program, seed) — the one whose first trial captures the trace — in
/// index order, then every other cell in index order. The same order at
/// every --jobs, so idle threads never queue behind a capture that could
/// have started earlier; the identity on a plan that replays nothing.
std::vector<std::size_t> capture_first(
    const Plan& plan, const std::vector<std::size_t>& pending);

}  // namespace cadapt::campaign
