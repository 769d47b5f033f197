#include "obs/recorder.hpp"

#include "obs/counters.hpp"
#include "obs/event.hpp"
#include "obs/sink.hpp"
#include "stats/streaming.hpp"
#include "util/check.hpp"

namespace cadapt::obs {

const char* exec_branch_name(ExecBranch branch) {
  switch (branch) {
    case ExecBranch::kCompleteJump: return "jump";
    case ExecBranch::kScanAdvance: return "scan";
    case ExecBranch::kBudgeted: return "budgeted";
  }
  return "?";
}

void ExecRecorder::on_box(const BoxObservation& box) {
  ++boxes_;
  sum_box_ += box.size;
  progress_ += box.progress;
  scan_advance_ += box.scan_advance;
  if (box.completed_problem > 0) ++completions_;
  ++branch_counts_[static_cast<std::size_t>(box.branch)];

  SizeClassTally& tally = classes_[size_class(box.size)];
  ++tally.boxes;
  tally.sum_box += box.size;
  tally.progress += box.progress;
  tally.scan_advance += box.scan_advance;
  if (box.completed_problem > 0) ++tally.completions;

  if (sink_ != nullptr) {
    Event event("box");
    event.u64("i", box.index)
        .u64("s", box.size)
        .u64("progress", box.progress)
        .u64("scan", box.scan_advance)
        .u64("completed", box.completed_problem)
        .str("branch", exec_branch_name(box.branch));
    sink_->write(event);
  }
}

void ExecRecorder::on_run(const RunObservation& run) {
  boxes_ += run.count;
  sum_box_ += run.count * run.size;
  progress_ += run.progress;
  scan_advance_ += run.scan_advance;
  completions_ += run.completions;
  branch_counts_[static_cast<std::size_t>(run.branch)] += run.count;

  SizeClassTally& tally = classes_[size_class(run.size)];
  tally.boxes += run.count;
  tally.sum_box += run.count * run.size;
  tally.progress += run.progress;
  tally.scan_advance += run.scan_advance;
  tally.completions += run.completions;

  if (sink_ != nullptr) {
    Event event("runs");
    event.u64("i", run.first_index)
        .u64("s", run.size)
        .u64("count", run.count)
        .u64("progress", run.progress)
        .u64("scan", run.scan_advance)
        .u64("completions", run.completions)
        .str("branch", exec_branch_name(run.branch));
    sink_->write(event);
  }
}

ExecRecorder::Mark ExecRecorder::mark() const {
  return Mark{boxes_,       sum_box_,       progress_, scan_advance_,
              completions_, branch_counts_, classes_};
}

void ExecRecorder::replay(const Mark& mark, std::uint64_t m) {
  const std::uint64_t d_boxes = boxes_ - mark.boxes;
  const std::uint64_t d_progress = progress_ - mark.progress;
  const std::uint64_t d_scan = scan_advance_ - mark.scan_advance;
  boxes_ += m * d_boxes;
  sum_box_ += m * (sum_box_ - mark.sum_box);
  progress_ += m * d_progress;
  scan_advance_ += m * d_scan;
  completions_ += m * (completions_ - mark.completions);
  for (std::size_t i = 0; i < branch_counts_.size(); ++i) {
    branch_counts_[i] += m * (branch_counts_[i] - mark.branch_counts[i]);
  }
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    SizeClassTally& cur = classes_[i];
    const SizeClassTally& snap = mark.classes[i];
    cur.boxes += m * (cur.boxes - snap.boxes);
    cur.sum_box += m * (cur.sum_box - snap.sum_box);
    cur.progress += m * (cur.progress - snap.progress);
    cur.scan_advance += m * (cur.scan_advance - snap.scan_advance);
    cur.completions += m * (cur.completions - snap.completions);
  }
  if (sink_ != nullptr) {
    Event event("bulk");
    event.u64("repeats", m)
        .u64("boxes", m * d_boxes)
        .u64("progress", m * d_progress)
        .u64("scan", m * d_scan);
    sink_->write(event);
  }
}

CounterSet ExecRecorder::counters() const {
  CounterSet set;
  set.add("boxes", boxes_);
  set.add("sum_box", sum_box_);
  set.add("progress", progress_);
  set.add("scan_advance", scan_advance_);
  set.add("completions", completions_);
  set.add("branch_jump", branch_count(ExecBranch::kCompleteJump));
  set.add("branch_scan", branch_count(ExecBranch::kScanAdvance));
  set.add("branch_budgeted", branch_count(ExecBranch::kBudgeted));
  return set;
}

void ExecRecorder::emit_run_summary(TraceSink& sink, bool completed) const {
  Event event = counters().to_event("run");
  event.flag("completed", completed);
  sink.write(event);
}

void McRecorder::on_trial(const TrialObservation& trial) {
  CADAPT_CHECK_MSG(trials_.empty() || trials_.back().trial < trial.trial,
                   "trials must arrive in increasing order");
  TrialObservation record = trial;
  if (!record_timing_) record.duration_ns = 0;
  trials_.push_back(record);
  if (sink_ != nullptr) {
    Event event("trial");
    event.u64("trial", record.trial)
        .u64("seed", record.seed)
        .flag("completed", record.completed)
        .u64("boxes", record.boxes)
        .f64("ratio", record.ratio)
        .f64("unit_ratio", record.unit_ratio);
    // Emitted only when set, so traces of completed / source-exhausted
    // trials keep their pre-StopReason bytes.
    if (record.capped) event.flag("capped", true);
    if (record_timing_) event.u64("duration_ns", record.duration_ns);
    sink_->write(event);
  }
}

void McRecorder::on_trial_error(const TrialErrorObservation& error) {
  errors_.push_back(error);
  if (sink_ != nullptr) {
    Event event("trial_error");
    event.u64("trial", error.trial)
        .u64("seed", error.seed)
        .u64("attempts", error.attempts)
        .str("category", error.category)
        .str("what", error.what);
    sink_->write(event);
  }
}

void McRecorder::finish(const McFinish& info) {
  if (sink_ == nullptr) return;
  stats::Welford ratio;
  std::uint64_t incomplete = 0;
  std::uint64_t capped = 0;
  for (const TrialObservation& t : trials_) {
    if (t.completed) ratio.add(t.ratio); else ++incomplete;
    if (t.capped) ++capped;
  }
  const std::uint64_t observed = trials_.size() + errors_.size();
  Event event("mc");
  event.u64("trials", observed)
      .u64("incomplete", incomplete)
      .f64("mean_ratio", ratio.count() > 0 ? ratio.mean() : 0.0)
      .u64("failed", errors_.size())
      .u64("trials_requested",
           info.trials_requested != 0 ? info.trials_requested : observed)
      .flag("truncated", info.truncated);
  // Only when present, so pre-StopReason traces keep their bytes.
  if (capped > 0) event.u64("capped", capped);
  sink_->write(event);
}

std::uint64_t PagingRecorder::total_hits() const {
  std::uint64_t total = 0;
  for (const LevelTally& tally : levels_) total += tally.hits;
  return total;
}

std::uint64_t PagingRecorder::total_misses() const {
  std::uint64_t total = 0;
  for (const LevelTally& tally : levels_) total += tally.misses;
  return total;
}

void PagingRecorder::emit(TraceSink& sink) const {
  for (std::size_t cls = 0; cls < levels_.size(); ++cls) {
    const LevelTally& tally = levels_[cls];
    if (tally.boxes == 0 && tally.accesses == 0) continue;
    Event event("paging");
    event.u64("size_class", cls)
        .u64("boxes", tally.boxes)
        .u64("accesses", tally.accesses)
        .u64("hits", tally.hits)
        .u64("misses", tally.misses)
        .u64("evictions", tally.evictions);
    sink.write(event);
  }
  if (tier2_.accesses != 0) {
    Event event("paging_tier2");
    event.u64("accesses", tier2_.accesses)
        .u64("hits", tier2_.hits)
        .u64("misses", tier2_.misses);
    sink.write(event);
  }
}

}  // namespace cadapt::obs
