// Execution of an (a,b,c)-regular algorithm over a square profile, under
// the simplified caching semantics of Section 4 of the paper (proved
// there to be w.l.o.g. for cache-adaptive analysis):
//
//   * a box of size s that begins inside a problem of size <= s completes
//     the largest enclosing problem of size <= s, and goes no further;
//   * a box of size s that begins in the scan of a problem larger than s
//     advances min(s, remaining scan) accesses of that scan.
//
// The execution is symbolic: no data is touched, only the position within
// the recursion tree is tracked, so profiles with tens of millions of
// boxes run in seconds. (The paging + algos modules provide the
// complementary *concrete* machine that runs real algorithms.)
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "model/potential.hpp"
#include "model/regular.hpp"
#include "profile/box_source.hpp"

namespace cadapt::obs {
class ExecRecorder;
enum class ExecBranch : std::uint8_t;
}  // namespace cadapt::obs

namespace cadapt::robust {
class CancelToken;
}  // namespace cadapt::robust

namespace cadapt::engine {

/// Where the linear scan of each problem is placed.
///
/// kEnd is the paper's canonical form (w.l.o.g. for its worst-case
/// constructions): the whole scan follows the last recursive call.
/// kInterleaved splits the scan into a equal chunks, one after each
/// recursive call — a lightweight form of the scan-hiding idea of
/// Lincoln et al. [40] that de-synchronizes the scan from profiles
/// engineered against trailing scans.
/// kAdversaryMatched places each problem's whole scan after child number
/// profile::OrderPerturbedWorstCaseSource::own_after(node_hash, a): with
/// the same seed it mirrors the order-perturbed worst-case profile — the
/// witness algorithm for the paper's third negative result.
enum class ScanPlacement { kEnd, kInterleaved, kAdversaryMatched };

/// How much work one box can complete.
///
/// kOptimistic is the paper's §4 simplified model: a box of size s
/// beginning inside a problem of size <= s completes the largest
/// enclosing problem of size <= s, regardless of how much of that problem
/// already ran. This is the semantics under which the paper proves its
/// positive theorem (it only over-credits boxes, which is safe for an
/// upper bound).
///
/// kBudgeted is a conservative model of the underlying machine when the
/// algorithm's scans and sibling subproblems occupy disjoint blocks: the
/// box has a budget of s block loads; completing a whole problem of size
/// m (from its start) costs m, and each scan access costs 1. A box never
/// jumps out of a scan it lands in — exactly the accounting behind the
/// paper's worst-case profiles and its negative (robustness) results.
enum class BoxSemantics { kOptimistic, kBudgeted };

/// Result of consuming one box.
struct BoxReport {
  /// Base-case subproblems completed within this box (the paper's
  /// "progress").
  std::uint64_t progress = 0;
  /// Size of the problem this box completed in full, or 0 if the box only
  /// advanced a scan.
  std::uint64_t completed_problem = 0;
  // Note: the per-box scan advance (non-base-case unit accesses) is NOT a
  // field here — keeping this struct register-returnable (16 bytes on the
  // SysV ABI) is what keeps the uninstrumented hot loop at seed speed. An
  // attached obs::ExecRecorder receives it per box, derived from the
  // identity scan = units_done() - leaves_done(); per run,
  // Σ progress + Σ scan_advance == total_units() — the conservation
  // invariant the observability layer checks traces against.
};

/// Result of consuming a run of equal-size boxes (consume_run).
struct RunReport {
  /// Base-case subproblems completed within the run.
  std::uint64_t progress = 0;
  /// Largest problem completed in full by any box of the run, or 0.
  std::uint64_t completed_problem = 0;
};

/// Position snapshot for periodicity probing (docs/PERF.md): the
/// (size, phase, scan_offset) triple of every stack frame, root first.
/// node_hash is deliberately excluded — it only influences execution
/// under ScanPlacement::kAdversaryMatched, where probing is disabled.
using StackSignature = std::vector<std::array<std::uint64_t, 3>>;

/// A certified periodic advance: starting from the probed signature, each
/// further repeat of the same box subsequence moves only stack frame
/// `frame`, by `dphase`/`doffset`, for up to `max_repeats` repeats.
struct PeriodicDelta {
  std::size_t frame = 0;
  std::uint64_t dphase = 0;
  std::uint64_t doffset = 0;
  std::uint64_t max_repeats = 0;
};

/// State machine for one execution of an (a,b,c)-regular algorithm on a
/// problem of n blocks (n a power of b).
class RegularExecution {
 public:
  /// adversary_seed is only consulted for ScanPlacement::kAdversaryMatched;
  /// pass the seed of the OrderPerturbedWorstCaseSource being matched.
  RegularExecution(const model::RegularParams& params, std::uint64_t n,
                   ScanPlacement placement = ScanPlacement::kEnd,
                   std::uint64_t adversary_seed = 0,
                   BoxSemantics semantics = BoxSemantics::kOptimistic);

  /// Feed the next box of the profile to the algorithm. Must not be
  /// called once done().
  BoxReport consume_box(profile::BoxSize s);

  /// Bulk path (docs/PERF.md): consume `count` consecutive boxes of size
  /// s, bit-identical in every observable to `count` consume_box(s) calls
  /// but O(1) per arithmetic scan stretch / certified subtree period
  /// instead of O(count). Stops early when the execution completes;
  /// returns the number of boxes actually consumed via boxes_consumed().
  /// Falls back to literal per-box stepping whenever a per-box recorder
  /// is attached (ExecRecorder in kBoxes granularity) or no closed form
  /// applies. Polls the attached cancel token every kCancelPollBoxes
  /// literal boxes.
  RunReport consume_run(profile::BoxSize s, std::uint64_t count);

  /// Literal boxes consume_run steps between two cancel-token polls.
  static constexpr std::uint64_t kCancelPollBoxes = UINT64_C(1) << 12;

  /// Snapshot of the stack for periodicity probing. O(depth).
  StackSignature signature() const;

  /// Decide whether the state change since `before` (one consumed repeat
  /// of some box subsequence) is a certified periodic advance that can be
  /// replayed, and for how many further repeats (capped at `want`).
  /// Returns std::nullopt when the change is not provably periodic —
  /// always, under ScanPlacement::kAdversaryMatched, where node hashes
  /// (excluded from signatures) influence chunk placement.
  std::optional<PeriodicDelta> classify_period(const StackSignature& before,
                                               std::uint64_t want) const;

  /// Replay `m <= delta.max_repeats` further repeats in closed form:
  /// advances the delta frame arithmetically and credits
  /// m * boxes_per_repeat boxes and m * leaves_per_repeat base cases.
  /// The caller certifies (via classify_period) that literal re-execution
  /// would reach exactly this state.
  void apply_period(const PeriodicDelta& delta, std::uint64_t m,
                    std::uint64_t boxes_per_repeat,
                    std::uint64_t leaves_per_repeat);

  bool done() const { return stack_.empty(); }
  std::uint64_t problem_size() const { return n_; }
  std::uint64_t boxes_consumed() const { return boxes_consumed_; }
  /// Base cases completed so far; total_leaves() when done.
  std::uint64_t leaves_done() const { return leaves_done_; }
  std::uint64_t total_leaves() const { return total_leaves_; }
  const model::RegularParams& params() const { return params_; }

  /// Position in the flattened execution: unit accesses (base cases plus
  /// individual scan blocks) completed so far. This is the reference
  /// position r_i of the No-Catch-up Lemma (Lemma 2): a run that is ahead
  /// in units can never fall behind one that is behind, given the same
  /// remaining boxes.
  std::uint64_t units_done() const;
  /// Total unit accesses of the whole problem.
  std::uint64_t total_units() const { return units_by_level_.back(); }

  /// Attach (or detach, with nullptr) an observability recorder: every
  /// subsequent consume_box emits one obs::BoxObservation. The disabled
  /// path (no recorder) costs a single predictable branch per box —
  /// guarded by bench_microbench's BM_EngineUnitBoxes family.
  void set_recorder(obs::ExecRecorder* recorder) { recorder_ = recorder; }
  obs::ExecRecorder* recorder() const { return recorder_; }

  /// Attach (or detach, with nullptr) a cooperative cancellation token:
  /// consume_run polls it every kCancelPollBoxes literal boxes, so one
  /// enormous run that no closed form retires (e.g. under
  /// ScanPlacement::kAdversaryMatched) still stops within bounded work.
  void set_cancel(const robust::CancelToken* cancel) { cancel_ = cancel; }

 private:
  struct Frame {
    std::uint64_t size;         // problem size in blocks (power of b)
    std::uint64_t phase;        // 0..2a-1: even 2i = in child i, odd 2i+1 = in scan chunk i
    std::uint64_t scan_offset;  // progress within the current scan chunk
    std::uint64_t node_hash;    // path hash (used by kAdversaryMatched)
  };

  /// Scan chunk i (0-based) of the problem in frame f.
  std::uint64_t chunk_size(const Frame& f, std::uint64_t chunk) const;
  /// Children of the frame that are fully complete: (phase + 1) / 2.
  static std::uint64_t completed_children(const Frame& f) {
    return (f.phase + 1) / 2;
  }
  /// Base cases already completed strictly within stack_[idx].
  std::uint64_t leaves_done_within(std::size_t idx) const;

  /// An open subtree probe of consume_run (docs/PERF.md): stack frame
  /// `frame` rested at the even child boundary `phase0` with a fresh
  /// descent below it when probe_openings_[opening] was taken.
  struct SubtreeProbe {
    std::size_t frame = 0;
    std::uint64_t phase0 = 0;
    std::size_t opening = 0;
  };
  /// State shared by every probe opened at the same fresh descent.
  struct ProbeOpening {
    StackSignature sig;
    std::uint64_t boxes_before = 0;
    std::uint64_t leaves_before = 0;
  };

  /// signature(), written into `sig` so its capacity is reused.
  void write_signature(StackSignature& sig) const;
  /// Restore the invariant: the deepest frame is a pending base case or a
  /// scan chunk with work remaining; completed frames are retired.
  /// Returns the size of the largest problem retired, or 0.
  std::uint64_t normalize();

  BoxReport consume_box_optimistic(profile::BoxSize s);
  BoxReport consume_box_budgeted(profile::BoxSize s);
  /// Recording path, kept cold and out of line: classifies the branch the
  /// box is about to take, samples the scan position
  /// (units_done() - leaves_done()) around the box, consumes it, and
  /// emits the BoxObservation — so the hot disabled path pays only the
  /// recorder_ null test and is otherwise instruction-identical to the
  /// uninstrumented engine.
  BoxReport consume_box_recorded(profile::BoxSize s);

  model::RegularParams params_;
  std::uint64_t n_;
  ScanPlacement placement_;
  std::uint64_t adversary_seed_;
  BoxSemantics semantics_;
  std::uint64_t total_leaves_;
  std::uint64_t leaves_done_ = 0;
  std::uint64_t boxes_consumed_ = 0;
  obs::ExecRecorder* recorder_ = nullptr;
  const robust::CancelToken* cancel_ = nullptr;
  std::vector<Frame> stack_;
  /// units_by_level_[k] = unit accesses of a problem of size b^k.
  std::vector<std::uint64_t> units_by_level_;
  /// consume_run's probe scratch, kept across calls so that the bulk
  /// path does not allocate per run: openings past the ones in use keep
  /// their signature capacity for the next probe.
  std::vector<SubtreeProbe> probes_;
  std::vector<ProbeOpening> probe_openings_;
};

/// Why run_to_completion stopped.
enum class StopReason : std::uint8_t {
  kCompleted = 0,        ///< the algorithm finished
  kSourceExhausted = 1,  ///< finite profile ran out of boxes first
  kBoxCapHit = 2,        ///< the max_boxes cap was reached first
};

/// Outcome of running an execution to completion over a box stream.
struct RunResult {
  bool completed = false;           ///< == (stop == StopReason::kCompleted)
  StopReason stop = StopReason::kSourceExhausted;  ///< why the run ended
  std::uint64_t boxes = 0;          ///< boxes consumed (the paper's S_n)
  std::uint64_t leaves = 0;         ///< base cases completed
  double sum_bounded_potential = 0; ///< Σ min(n,|□_i|)^{log_b a}
  double ratio = 0;                 ///< sum_bounded_potential / n^{log_b a}
  /// Same criterion under the operation-based progress function (paper
  /// footnote 4): Σ ρ_U(min(n,|□_i|)) / U(n). Use for a <= b, where base
  /// cases under-count the algorithm's work.
  double unit_ratio = 0;
};

/// Knobs for run_to_completion.
struct RunOptions {
  std::uint64_t max_boxes = UINT64_C(1) << 40;
  /// Attached to the execution for the duration of the run; receives one
  /// observation per box (kBoxes granularity) or aggregated run/bulk
  /// observations (kRuns), plus the final "run" summary event.
  obs::ExecRecorder* recorder = nullptr;
  /// Force the literal per-box reference loop (source.next() +
  /// consume_box), disabling runs and block replay. The bulk path is
  /// bit-identical to this; the flag exists so differential tests and
  /// debugging can compare the two.
  bool per_box = false;
  /// Cooperative cancellation (docs/ROBUSTNESS.md): polled at every loop
  /// head (per box on the reference path, per run on the bulk path) and
  /// every kCancelPollBoxes literal boxes inside a run, so a deadline
  /// interrupts even a single enormous trial. Throws
  /// robust::CancelledError out of run_to_completion; the campaign
  /// drivers discard the interrupted work (never aggregate it). Null =
  /// disabled, one never-taken branch of overhead.
  const robust::CancelToken* cancel = nullptr;
};

/// Drive an execution over a box stream until the algorithm finishes, the
/// stream is exhausted, or max_boxes boxes have been consumed.
///
/// By default this is the O(runs) bulk driver of docs/PERF.md: boxes are
/// pulled via source.next_run(), consumed via consume_run, and — when the
/// source announces repeated blocks (peek_block) — whole repeats are
/// retired in closed form after one probed repeat certifies periodicity
/// (classify_period) and the floating-point accumulators certify exact
/// replayability. Every RunResult field is bit-identical to the per-box
/// reference loop (options.per_box = true). A recorder in kBoxes
/// granularity forces the reference loop so per-box traces stay intact.
RunResult run_to_completion(RegularExecution& exec, profile::BoxSource& source,
                            const RunOptions& options);

/// Legacy signature; delegates to the options overload.
RunResult run_to_completion(RegularExecution& exec, profile::BoxSource& source,
                            std::uint64_t max_boxes = UINT64_C(1) << 40,
                            obs::ExecRecorder* recorder = nullptr);

/// Convenience: build the execution and run it.
RunResult run_regular(const model::RegularParams& params, std::uint64_t n,
                      profile::BoxSource& source,
                      ScanPlacement placement = ScanPlacement::kEnd,
                      std::uint64_t max_boxes = UINT64_C(1) << 40,
                      std::uint64_t adversary_seed = 0,
                      BoxSemantics semantics = BoxSemantics::kOptimistic,
                      obs::ExecRecorder* recorder = nullptr);

/// Convenience: build the execution and run it with full options.
RunResult run_regular(const model::RegularParams& params, std::uint64_t n,
                      profile::BoxSource& source, ScanPlacement placement,
                      std::uint64_t adversary_seed, BoxSemantics semantics,
                      const RunOptions& options);

}  // namespace cadapt::engine
