// Seeded work-stealing parallel execution of the (a,b,c) recursion tree
// across P workers sharing one adaptive machine (docs/PARALLEL.md).
//
// parallel_run_to_completion is the SYMBOLIC engine: the recursion tree
// is pre-split into subtree + scan tasks on per-worker Chase–Lev deques;
// each global machine box is carved into per-worker cache slices by an
// E15 allocation policy (sched::Policy), and each worker feeds its
// emergent constant-height profile segment through the inner-square
// decomposition (profile::inner_square_profile restarted at box
// boundaries — the closed form below, pinned to the literal function by
// tests) into its local engine::RegularExecution. Steals resolve SERIALLY
// at epoch barriers with victims drawn from hash(seed, worker,
// steal_index), so the entire result — including every steal count — is
// a pure function of (params, n, source, options): same seed + same P ⇒
// bit-identical ParallelResult, and workers = 1 delegates verbatim to
// engine::run_to_completion. Real threads running a campaign's trials
// are campaign::TrialScheduler's job, not this engine's.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/exec.hpp"
#include "model/regular.hpp"
#include "profile/box_source.hpp"
#include "sched/shared_cache.hpp"

namespace cadapt::robust {
class CancelToken;
}  // namespace cadapt::robust

namespace cadapt::sched {

struct ParallelOptions {
  std::uint64_t workers = 1;  ///< P; 1 = the sequential engine, verbatim
  std::uint64_t seed = 0;     ///< steal-schedule seed (victim choice)
  /// How each global box is carved into per-worker cache slices — the
  /// same allocation policies the shared-cache simulator models.
  Policy carve = Policy::kStaticEqual;
  /// kPeriodicFlush only: every flush_period global boxes all slices
  /// crash to 1 block for that box. 0 means "equal to the epoch": one
  /// crash per epoch_rounds boxes (the parallel analog of SimOptions'
  /// "0 means equal to total_cache_blocks").
  std::uint64_t flush_period = 0;
  /// Boxes between steal barriers; steals only happen at barriers.
  std::uint64_t epoch_rounds = 64;
  /// Pre-split depth d: the tree is cut into a^d subtree tasks (plus the
  /// a^j scan tasks above them, j < d). 0 = auto: the smallest d with
  /// a^d >= 4 * workers, capped at log_b n.
  std::uint64_t split_depth = 0;
  std::uint64_t max_boxes = UINT64_C(1) << 40;  ///< global box cap
  engine::ScanPlacement placement = engine::ScanPlacement::kEnd;
  engine::BoxSemantics semantics = engine::BoxSemantics::kOptimistic;
  std::uint64_t adversary_seed = 0;  ///< for kAdversaryMatched subtrees
  const robust::CancelToken* cancel = nullptr;  ///< polled once per box
};

struct WorkerStats {
  std::uint64_t boxes = 0;        ///< slice boxes consumed into tasks
  std::uint64_t idle_boxes = 0;   ///< slice boxes with no task to run
  std::uint64_t progress = 0;     ///< base cases completed
  std::uint64_t scan_advance = 0; ///< scan units completed
  std::uint64_t tasks_run = 0;    ///< tasks activated (incl. split children)
  std::uint64_t steals = 0;       ///< successful steals by this worker
  std::uint64_t failed_steals = 0;
  std::uint64_t slice_blocks = 0; ///< Σ slice sizes — this worker's share
};

struct ParallelResult {
  /// Merged outcome in the sequential engine's vocabulary: boxes = global
  /// machine boxes (rounds), leaves = Σ progress, potential sums taken
  /// over the global box stream — directly comparable to a sequential
  /// RunResult on the same source. For workers = 1 this IS the
  /// sequential result, field for field.
  engine::RunResult merged;
  std::vector<WorkerStats> workers;  ///< per-worker, index order
  std::uint64_t rounds = 0;     ///< global boxes drawn (== merged.boxes)
  std::uint64_t epochs = 0;     ///< steal barriers reached
  std::uint64_t steals = 0;     ///< Σ workers[i].steals
  std::uint64_t failed_steals = 0;
  std::uint64_t splits = 0;     ///< steals that split the stolen subtree
  std::uint64_t split_depth = 0;   ///< effective pre-split depth d
  std::uint64_t tasks_spawned = 0; ///< pre-split tasks + split children

  /// Σ progress + Σ scan_advance over workers — equals
  /// model::problem_units(params, n) exactly iff merged.completed (the
  /// conservation invariant the parallel tests assert).
  std::uint64_t units_done() const {
    std::uint64_t u = 0;
    for (const WorkerStats& w : workers) u += w.progress + w.scan_advance;
    return u;
  }
};

/// Run one (params, n) execution over `source` on P =
/// ParallelOptions::workers simulated workers. Deterministic: bit-identical across repeated calls
/// with equal inputs. workers = 1 delegates to engine::run_to_completion
/// (byte-identical merged result).
ParallelResult parallel_run_to_completion(const model::RegularParams& params,
                                          std::uint64_t n,
                                          profile::BoxSource& source,
                                          const ParallelOptions& options);

/// Carve one global box of `box` blocks into weights.size() slices under
/// `policy` (exposed for tests and the CLI). kStaticEqual: floor + the
/// remainder spread over the lowest indices. kGlobalLru / kPeriodicFlush:
/// proportional to weights by the deterministic largest-remainder method
/// (ties to the lower index). Every slice is clamped to >= 1 block, so
/// Σ slices may exceed `box` when box < workers — the minimum viable
/// allocation of the shared-cache simulator.
std::vector<std::uint64_t> carve_slices(Policy policy, std::uint64_t box,
                                        std::span<const std::uint64_t> weights);

/// The inner-square decomposition of one constant-height profile segment
/// (height `slice` for `length` steps), in closed form:
/// floor(length/slice) boxes of `slice` plus one box of length % slice.
/// Exactly profile::inner_square_profile(std::vector(length, slice)) —
/// pinned by tests — without materializing the segment.
struct SliceRun {
  std::uint64_t size = 0;       ///< full box size (== slice)
  std::uint64_t count = 0;      ///< full boxes
  std::uint64_t remainder = 0;  ///< final short box, 0 if none
};
SliceRun slice_run(std::uint64_t slice, std::uint64_t length);

}  // namespace cadapt::sched
