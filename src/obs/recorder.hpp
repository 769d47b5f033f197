// Recorders: the hooks the execution layers call when observability is
// attached. Each layer takes a nullable recorder pointer; a null pointer
// is the disabled path and must cost nothing but one predictable branch
// (verified by bench_microbench's BM_EngineUnitBoxes* family).
//
// Layer map (docs/OBSERVABILITY.md):
//   ExecRecorder   — engine::RegularExecution, one observation per box
//   McRecorder     — campaign::run_cell_trials, one per trial (its
//                    trial-order fold, engine::fold_trial)
//   PagingRecorder — paging::CaMachine, per-access tallies by box class
#pragma once

// Deliberately light on includes: the symbolic engine's hot translation
// unit includes this header, and pulling in the event/counter machinery
// (std::variant, std::unordered_map) there measurably degrades the
// compiler's inlining of the box-consumption fast path.
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace cadapt::obs {

class CounterSet;
class TraceSink;

/// The semantics branch consume_box took for a given box (ISSUE: "which
/// code path explains where this box went").
enum class ExecBranch : std::uint8_t {
  kCompleteJump = 0,  ///< §4 optimistic: box swallowed an enclosing problem
  kScanAdvance = 1,   ///< optimistic: box advanced the current scan
  kBudgeted = 2,      ///< budgeted semantics: budget spent incrementally
};

const char* exec_branch_name(ExecBranch branch);

/// Size class of a box: floor(log2 s), the "recursion level" axis every
/// per-class tally is bucketed by. s must be >= 1.
inline std::uint32_t size_class(std::uint64_t s) {
  return static_cast<std::uint32_t>(std::bit_width(s) - 1);
}

/// One observation per consumed box, emitted by the symbolic engine.
struct BoxObservation {
  std::uint64_t index = 0;   ///< 0-based box index within the run
  std::uint64_t size = 0;    ///< box size |□|
  std::uint64_t progress = 0;          ///< base cases completed in this box
  std::uint64_t scan_advance = 0;      ///< scan blocks completed in this box
  std::uint64_t completed_problem = 0; ///< largest problem retired, or 0
  ExecBranch branch = ExecBranch::kScanAdvance;
};

/// Aggregated observation for a bulk-consumed run of `count` equal boxes
/// (docs/PERF.md): totals over the run, not per box.
struct RunObservation {
  std::uint64_t first_index = 0;  ///< index of the run's first box
  std::uint64_t size = 0;         ///< common box size
  std::uint64_t count = 0;        ///< boxes in the run
  std::uint64_t progress = 0;     ///< Σ base cases over the run
  std::uint64_t scan_advance = 0; ///< Σ scan blocks over the run
  std::uint64_t completions = 0;  ///< boxes that retired a problem
  ExecBranch branch = ExecBranch::kScanAdvance;
};

/// Trace granularity of an ExecRecorder. kBoxes (the default) receives
/// one BoxObservation per box and forces the engine onto the literal
/// per-box path — existing traces stay byte-identical. kRuns opts into
/// the bulk path: literal boxes still arrive via on_box, bulk stretches
/// arrive aggregated via on_run / replay, and all *counters* remain
/// exactly equal to what per-box recording would have produced.
enum class BoxGranularity : std::uint8_t { kBoxes = 0, kRuns = 1 };

/// Per-run aggregation of box observations, with optional write-through
/// of one "box" event per observation to a sink.
///
/// Conservation invariants (asserted by tests/test_engine_conservation):
///   total_progress() == RunResult::leaves
///   total_progress() + total_scan_advance() == model::problem_units(n)
///   boxes() == RunResult::boxes            (for a completed run)
class ExecRecorder {
 public:
  /// sink == nullptr keeps aggregates only (no per-box event stream).
  explicit ExecRecorder(TraceSink* sink = nullptr,
                        BoxGranularity granularity = BoxGranularity::kBoxes)
      : sink_(sink), granularity_(granularity) {}

  /// True iff this recorder accepts aggregated run/bulk observations —
  /// the engine keeps its bulk path enabled only then (or when no
  /// recorder is attached at all).
  bool aggregates_runs() const {
    return granularity_ == BoxGranularity::kRuns;
  }

  /// Called by the engine for every consumed box.
  void on_box(const BoxObservation& box);

  /// Called by the engine for an arithmetically bulk-consumed run
  /// (kRuns granularity only): counters advance by the run's exact
  /// totals; the sink (if any) receives one "runs" event.
  void on_run(const RunObservation& run);

  struct SizeClassTally {
    std::uint64_t boxes = 0;
    std::uint64_t sum_box = 0;       ///< Σ |□| over boxes in this class
    std::uint64_t progress = 0;
    std::uint64_t scan_advance = 0;
    std::uint64_t completions = 0;   ///< boxes that retired a problem
  };

  /// Opaque counter snapshot for periodic replay (docs/PERF.md).
  struct Mark {
    std::uint64_t boxes = 0;
    std::uint64_t sum_box = 0;
    std::uint64_t progress = 0;
    std::uint64_t scan_advance = 0;
    std::uint64_t completions = 0;
    std::array<std::uint64_t, 3> branch_counts{};
    std::array<SizeClassTally, 64> classes{};
  };

  /// Snapshot all counters (taken just before a probe repeat is consumed).
  Mark mark() const;

  /// Replay the window since `mark` m more times: every counter advances
  /// by m * (current - mark), exactly — integer arithmetic throughout.
  /// The sink (if any) receives one "bulk" event with the multiplied
  /// totals.
  void replay(const Mark& mark, std::uint64_t m);

  std::uint64_t boxes() const { return boxes_; }
  std::uint64_t sum_box_sizes() const { return sum_box_; }
  std::uint64_t total_progress() const { return progress_; }
  std::uint64_t total_scan_advance() const { return scan_advance_; }
  std::uint64_t completions() const { return completions_; }
  std::uint64_t branch_count(ExecBranch branch) const {
    return branch_counts_[static_cast<std::size_t>(branch)];
  }

  /// Tallies bucketed by size_class(|□|); index = floor(log2 |□|).
  const std::array<SizeClassTally, 64>& size_classes() const {
    return classes_;
  }

  /// Aggregates as a CounterSet (for merging and the "counters" event).
  CounterSet counters() const;

  /// Emit the aggregate "run" event to the given sink.
  void emit_run_summary(TraceSink& sink, bool completed) const;

  /// Emit the "run" event to the attached sink, if any (called by
  /// engine::run_to_completion when the run ends).
  void finish(bool completed) const {
    if (sink_ != nullptr) emit_run_summary(*sink_, completed);
  }

  TraceSink* sink() const { return sink_; }

 private:
  TraceSink* sink_;
  BoxGranularity granularity_;
  std::uint64_t boxes_ = 0;
  std::uint64_t sum_box_ = 0;
  std::uint64_t progress_ = 0;
  std::uint64_t scan_advance_ = 0;
  std::uint64_t completions_ = 0;
  std::array<std::uint64_t, 3> branch_counts_{};
  std::array<SizeClassTally, 64> classes_{};
};

/// One record per Monte-Carlo trial — makes an `incomplete` count
/// diagnosable (which trial, which seed, how far it got) instead of bare.
struct TrialObservation {
  std::uint64_t trial = 0;
  std::uint64_t seed = 0;   ///< derived per-trial seed (reproduces the trial)
  bool completed = false;
  /// Incomplete because the max_boxes cap fired (vs. source exhaustion);
  /// always false when completed.
  bool capped = false;
  std::uint64_t boxes = 0;
  double ratio = 0;
  double unit_ratio = 0;
  std::uint64_t duration_ns = 0;  ///< wall clock; 0 when timing is off
};

/// One record per *contained* trial failure (robust::TrialError, flattened
/// to strings so obs stays independent of the robust module). The driver
/// emits these interleaved with TrialObservations, in trial order.
struct TrialErrorObservation {
  std::uint64_t trial = 0;
  std::uint64_t seed = 0;       ///< derived seed of the last failing attempt
  std::uint32_t attempts = 1;   ///< attempts burned (retries + 1)
  std::string category;         ///< robust::error_category_name
  std::string what;
};

/// Campaign-level facts for the final "mc" aggregate event.
struct McFinish {
  std::uint64_t trials_requested = 0;  ///< 0 = same as trials observed
  bool truncated = false;              ///< a budget stopped the campaign
};

/// Collects trial records. The Monte-Carlo driver feeds trials in index
/// order from one thread after the parallel phase, so the emitted stream
/// is deterministic across pool sizes — bit-identical when record_timing
/// is false (the determinism property test relies on this).
class McRecorder {
 public:
  /// sink == nullptr buffers records only. record_timing == false zeroes
  /// duration_ns, making the whole trace deterministic.
  explicit McRecorder(TraceSink* sink = nullptr, bool record_timing = true)
      : sink_(sink), record_timing_(record_timing) {}

  bool record_timing() const { return record_timing_; }

  /// Called once per non-failed trial, in increasing trial order.
  void on_trial(const TrialObservation& trial);

  /// Called once per contained trial failure (interleaved with on_trial,
  /// still in increasing trial order); emits a "trial_error" event.
  void on_trial_error(const TrialErrorObservation& error);

  /// Called once after all trials; emits the "mc" aggregate event.
  void finish(const McFinish& info = {});

  const std::vector<TrialObservation>& trials() const { return trials_; }
  const std::vector<TrialErrorObservation>& errors() const { return errors_; }

 private:
  TraceSink* sink_;
  bool record_timing_;
  std::vector<TrialObservation> trials_;
  std::vector<TrialErrorObservation> errors_;
};

/// Per-box-size-class paging tallies from the concrete CA machine.
class PagingRecorder {
 public:
  struct LevelTally {
    std::uint64_t boxes = 0;
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  void on_box_start(std::uint64_t box_size) {
    ++levels_[size_class(box_size)].boxes;
  }

  void on_access(std::uint64_t box_size, bool hit, bool evicted) {
    LevelTally& tally = levels_[size_class(box_size)];
    ++tally.accesses;
    if (hit) ++tally.hits; else ++tally.misses;
    if (evicted) ++tally.evictions;
  }

  /// Tier-2 demand fetches of a two-tier CaMachine (docs/PAGING.md):
  /// one call per tier-1 miss, after any rollover. Spill inserts are
  /// not reported — they are write-backs, not demand traffic.
  struct Tier2Tally {
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  void on_tier2(bool hit) {
    ++tier2_.accesses;
    if (hit) ++tier2_.hits; else ++tier2_.misses;
  }

  const std::array<LevelTally, 64>& levels() const { return levels_; }
  const Tier2Tally& tier2() const { return tier2_; }

  std::uint64_t total_hits() const;
  std::uint64_t total_misses() const;

  /// One "paging" event per non-empty size class, ascending; plus one
  /// "paging_tier2" event iff any tier-2 demand fetch was recorded.
  void emit(TraceSink& sink) const;

 private:
  std::array<LevelTally, 64> levels_{};
  Tier2Tally tier2_;
};

}  // namespace cadapt::obs
