#include "engine/exec.hpp"

#include <algorithm>

#include "obs/recorder.hpp"
#include "profile/worst_case.hpp"
#include "robust/cancel.hpp"
#include "util/check.hpp"
#include "util/math.hpp"
#include "util/random.hpp"

namespace cadapt::engine {

RegularExecution::RegularExecution(const model::RegularParams& params,
                                   std::uint64_t n, ScanPlacement placement,
                                   std::uint64_t adversary_seed,
                                   BoxSemantics semantics)
    : params_(params), n_(n), placement_(placement),
      adversary_seed_(adversary_seed), semantics_(semantics) {
  params_.validate();
  CADAPT_CHECK_MSG(util::is_power_of(n, params_.b),
                   "problem size must be a power of b; n=" << n);
  total_leaves_ = params_.leaves(n);
  // U(b^0) = 1; U(b^k) = a·U(b^{k-1}) + scan_size(b^k).
  const unsigned levels = util::ilog(n, params_.b);
  units_by_level_.resize(levels + 1);
  units_by_level_[0] = 1;
  std::uint64_t size = 1;
  for (unsigned k = 1; k <= levels; ++k) {
    size *= params_.b;
    units_by_level_[k] =
        params_.a * units_by_level_[k - 1] + params_.scan_size(size);
  }
  stack_.push_back(
      {n, 0, 0, profile::OrderPerturbedWorstCaseSource::root_hash(adversary_seed_)});
  normalize();
  CADAPT_CHECK(!stack_.empty());  // a fresh problem always has work
}

std::uint64_t RegularExecution::units_done() const {
  if (stack_.empty()) return total_units();
  std::uint64_t total = 0;
  for (const Frame& f : stack_) {
    if (f.size == 1) break;  // pending base case contributes nothing
    const unsigned child_level = util::ilog(f.size / params_.b, params_.b);
    total += completed_children(f) * units_by_level_[child_level];
    const std::uint64_t chunks_complete = f.phase / 2;
    for (std::uint64_t j = 0; j < chunks_complete; ++j)
      total += chunk_size(f, j);
    if (f.phase % 2 == 1) total += f.scan_offset;
  }
  return total;
}

std::uint64_t RegularExecution::chunk_size(const Frame& f,
                                           std::uint64_t chunk) const {
  const std::uint64_t scan = params_.scan_size(f.size);
  const std::uint64_t a = params_.a;
  CADAPT_CHECK(chunk < a);
  switch (placement_) {
    case ScanPlacement::kEnd:
      return chunk + 1 == a ? scan : 0;
    case ScanPlacement::kAdversaryMatched: {
      // The whole scan goes right after child own_after (1-based); chunk
      // i follows child i+1, so the scan lands in chunk own_after - 1.
      const std::uint64_t after = profile::OrderPerturbedWorstCaseSource::
          own_after(f.node_hash, a);
      return chunk + 1 == after ? scan : 0;
    }
    case ScanPlacement::kInterleaved:
      break;
  }
  // kInterleaved: distribute as evenly as possible; earlier chunks take
  // the remainder.
  const std::uint64_t base = scan / a;
  const std::uint64_t extra = chunk < scan % a ? 1 : 0;
  return base + extra;
}

std::uint64_t RegularExecution::leaves_done_within(std::size_t idx) const {
  std::uint64_t total = 0;
  for (std::size_t i = idx; i < stack_.size(); ++i) {
    if (stack_[i].size == 1) break;  // a pending base case contributes 0
    total += completed_children(stack_[i]) * params_.leaves(stack_[i].size / params_.b);
  }
  return total;
}

std::uint64_t RegularExecution::normalize() {
  const std::uint64_t a = params_.a;
  std::uint64_t largest_retired = 0;
  while (!stack_.empty()) {
    Frame& f = stack_.back();
    if (f.size == 1) break;  // pending base case
    if (f.phase % 2 == 0) {
      // Descend into child phase/2.
      const std::uint64_t child_index = f.phase / 2;
      stack_.push_back({f.size / params_.b, 0, 0,
                        util::hash_combine(f.node_hash, child_index)});
      continue;
    }
    // Odd phase: scan chunk (phase - 1) / 2.
    if (f.scan_offset < chunk_size(f, (f.phase - 1) / 2)) break;
    f.phase += 1;
    f.scan_offset = 0;
    if (f.phase == 2 * a) {
      largest_retired = std::max(largest_retired, f.size);
      stack_.pop_back();
      if (!stack_.empty()) {
        // The parent's current (even) child phase just completed.
        stack_.back().phase += 1;
        stack_.back().scan_offset = 0;
      }
    }
  }
  return largest_retired;
}

BoxReport RegularExecution::consume_box(profile::BoxSize s) {
  CADAPT_CHECK_MSG(s >= 1, "box size must be >= 1");
  CADAPT_CHECK_MSG(!done(), "consume_box on a finished execution");
  ++boxes_consumed_;
  // Disabled path (no recorder): one predictable never-taken branch, then
  // the same tail-call dispatch as the uninstrumented engine — guarded by
  // bench_microbench's BM_EngineUnitBoxes staying within noise of the
  // seed engine.
  if (recorder_ != nullptr) [[unlikely]] return consume_box_recorded(s);
  return semantics_ == BoxSemantics::kOptimistic ? consume_box_optimistic(s)
                                                 : consume_box_budgeted(s);
}

[[gnu::cold, gnu::noinline]] BoxReport RegularExecution::consume_box_recorded(
    profile::BoxSize s) {
  // Classify the branch before consuming: frame sizes strictly decrease
  // with depth, so the box jump-completes iff the deepest frame — the
  // smallest enclosing problem — has size <= s.
  const obs::ExecBranch branch =
      semantics_ == BoxSemantics::kBudgeted ? obs::ExecBranch::kBudgeted
      : stack_.back().size <= s             ? obs::ExecBranch::kCompleteJump
                                            : obs::ExecBranch::kScanAdvance;
  // Per-box scan advance is the delta of the identity
  // scan position = units_done() - leaves_done() around the box; the two
  // O(depth) units_done() walks are paid only here, on the recording path.
  const std::uint64_t scan_before = units_done() - leaves_done_;
  const BoxReport report = semantics_ == BoxSemantics::kOptimistic
                               ? consume_box_optimistic(s)
                               : consume_box_budgeted(s);
  recorder_->on_box({boxes_consumed_ - 1, s, report.progress,
                     units_done() - leaves_done_ - scan_before,
                     report.completed_problem, branch});
  return report;
}

BoxReport RegularExecution::consume_box_optimistic(profile::BoxSize s) {
  BoxReport report;

  // Frame sizes strictly decrease with depth, so the frames of size <= s
  // form a suffix of the stack; find the topmost one.
  std::size_t idx = stack_.size();
  while (idx > 0 && stack_[idx - 1].size <= s) --idx;

  if (idx < stack_.size()) {
    // The box begins inside the problem stack_[idx] of size <= s: it
    // completes that problem in full and goes no further (§4 semantics).
    const std::uint64_t completed_size = stack_[idx].size;
    const std::uint64_t remaining =
        params_.leaves(completed_size) - leaves_done_within(idx);
    leaves_done_ += remaining;
    report.progress = remaining;
    report.completed_problem = completed_size;
    stack_.resize(idx);
    if (!stack_.empty()) {
      stack_.back().phase += 1;
      stack_.back().scan_offset = 0;
      // The jump may cascade: completing the last child of a problem with
      // no (remaining) scan completes that problem too.
      report.completed_problem =
          std::max(report.completed_problem, normalize());
    }
    return report;
  }

  // Every enclosing problem is larger than s, so the current position is
  // inside a scan (a pending base case has size 1 <= s and would have been
  // caught above).
  Frame& f = stack_.back();
  CADAPT_CHECK(f.phase % 2 == 1);
  const std::uint64_t chunk = chunk_size(f, (f.phase - 1) / 2);
  CADAPT_CHECK(f.scan_offset < chunk);
  const std::uint64_t advance = std::min<std::uint64_t>(s, chunk - f.scan_offset);
  f.scan_offset += advance;
  // Finishing the last scan chunk retires the problem (and possibly its
  // ancestors); report the largest problem retired.
  report.completed_problem = normalize();
  return report;
}

BoxReport RegularExecution::consume_box_budgeted(profile::BoxSize s) {
  BoxReport report;
  std::uint64_t budget = s;
  while (budget > 0 && !stack_.empty()) {
    Frame& f = stack_.back();
    if (f.phase % 2 == 1) {
      // In a scan: each scan access loads one (fresh) block.
      const std::uint64_t chunk = chunk_size(f, (f.phase - 1) / 2);
      CADAPT_CHECK(f.scan_offset < chunk);
      const std::uint64_t advance =
          std::min<std::uint64_t>(budget, chunk - f.scan_offset);
      f.scan_offset += advance;
      budget -= advance;
      report.completed_problem =
          std::max(report.completed_problem, normalize());
      continue;
    }
    // Pending base case. The position is at the *start* of every ancestor
    // frame reachable upward through phase-0 frames; completing one of
    // them wholesale costs its size in block loads. Take the largest that
    // fits in the remaining budget.
    CADAPT_CHECK(f.size == 1);
    std::size_t idx = stack_.size() - 1;  // the leaf frame itself
    while (idx > 0 && stack_[idx - 1].phase == 0 &&
           stack_[idx - 1].scan_offset == 0 && stack_[idx - 1].size <= budget) {
      --idx;
    }
    if (stack_[idx].size > budget) break;  // cannot even afford the leaf
    const std::uint64_t completed_size = stack_[idx].size;
    const std::uint64_t remaining =
        params_.leaves(completed_size) - leaves_done_within(idx);
    CADAPT_CHECK(remaining == params_.leaves(completed_size));  // at start
    leaves_done_ += remaining;
    report.progress += remaining;
    report.completed_problem = std::max(report.completed_problem, completed_size);
    budget -= completed_size;
    stack_.resize(idx);
    if (!stack_.empty()) {
      stack_.back().phase += 1;
      stack_.back().scan_offset = 0;
      report.completed_problem =
          std::max(report.completed_problem, normalize());
    }
  }
  return report;
}

RunReport RegularExecution::consume_run(profile::BoxSize s,
                                        std::uint64_t count) {
  CADAPT_CHECK_MSG(count >= 1, "run count must be >= 1");
  CADAPT_CHECK_MSG(!done(), "consume_run on a finished execution");
  RunReport report;
  std::uint64_t consumed = 0;
  std::uint64_t until_poll = kCancelPollBoxes;
  const auto literal_box = [&] {
    const BoxReport r = consume_box(s);
    ++consumed;
    report.progress += r.progress;
    report.completed_problem =
        std::max(report.completed_problem, r.completed_problem);
    if (cancel_ != nullptr && --until_poll == 0) {
      until_poll = kCancelPollBoxes;
      cancel_->poll();
    }
  };
  // A per-box recorder must observe every box: literal reference loop.
  if (recorder_ != nullptr && !recorder_->aggregates_runs()) {
    while (consumed < count && !done()) literal_box();
    return report;
  }
  CADAPT_CHECK_MSG(s >= 1, "box size must be >= 1");
  // Node hashes (excluded from signatures) place scans under
  // kAdversaryMatched, so nothing certifies there: no probes.
  const bool probing = placement_ != ScanPlacement::kAdversaryMatched;
  // Open probes, outermost frame first. Both stacks are sorted by frame
  // and by opening, so an opening dies with the last probe that uses it;
  // marks[i] belongs to probe_openings_[i] when a recorder is attached.
  probes_.clear();
  std::size_t live = 0;
  std::vector<obs::ExecRecorder::Mark> marks;
  while (consumed < count && !done()) {
    // (1) Arithmetic in-scan stretch: the position is inside a scan chunk
    // and each box advances it by exactly s, strictly within the chunk —
    // q boxes collapse to one addition. (Optimistic boxes land in the
    // scan only when every enclosing problem is larger; budgeted boxes
    // always spend their budget from inside a pending scan.)
    {
      Frame& f = stack_.back();
      if (f.phase % 2 == 1 &&
          (semantics_ == BoxSemantics::kBudgeted || f.size > s)) {
        const std::uint64_t chunk = chunk_size(f, (f.phase - 1) / 2);
        const std::uint64_t remaining = chunk - f.scan_offset;
        if (remaining > s) {
          const std::uint64_t q =
              std::min<std::uint64_t>(count - consumed, (remaining - 1) / s);
          if (q >= 1) {
            f.scan_offset += q * s;
            boxes_consumed_ += q;
            consumed += q;
            if (recorder_ != nullptr) {
              recorder_->on_run(
                  {boxes_consumed_ - q, s, q, 0, q * s, 0,
                   semantics_ == BoxSemantics::kBudgeted
                       ? obs::ExecBranch::kBudgeted
                       : obs::ExecBranch::kScanAdvance});
            }
            continue;
          }
        }
      }
    }
    // (2) Subtree probes, at a pending base case: every frame from `top`
    // down rests at an even child boundary with a fresh descent below it
    // (frames below `top` sit at phase 0).
    const std::size_t leaf = stack_.size() - 1;
    if (probing && leaf > 0 && stack_[leaf].size == 1 &&
        (!probes_.empty() || count - consumed >= 2)) {
      std::size_t top = leaf - 1;
      while (top > 0 && stack_[top].phase == 0) --top;
      // Close: a probe on frame `top` whose phase moved on spans whole
      // children (plus their scan chunks) — certify that window as one
      // period and replay the equal siblings after it in closed form.
      // Probes below `top`, or on `top` without progress, belong to
      // frames that have since been retired.
      while (!probes_.empty() && probes_.back().frame >= top) {
        const SubtreeProbe probe = probes_.back();
        probes_.pop_back();
        if (probe.frame != top || stack_[top].phase <= probe.phase0) continue;
        const ProbeOpening& open = probe_openings_[probe.opening];
        const std::uint64_t boxes_per_repeat =
            boxes_consumed_ - open.boxes_before;
        const auto delta = classify_period(
            open.sig, (count - consumed) / boxes_per_repeat);
        if (!delta) continue;
        const std::uint64_t m = delta->max_repeats;
        const std::uint64_t leaves_per_repeat =
            leaves_done_ - open.leaves_before;
        apply_period(*delta, m, boxes_per_repeat, leaves_per_repeat);
        consumed += m * boxes_per_repeat;
        report.progress += m * leaves_per_repeat;
        if (recorder_ != nullptr) recorder_->replay(marks[probe.opening], m);
      }
      live = probes_.empty() ? 0 : probes_.back().opening + 1;
      // Open: one probe per frame larger than s (a box never completes
      // it whole) with a sibling left after the child it just entered.
      if (count - consumed >= 2) {
        const std::size_t first = probes_.size();
        for (std::size_t i = top; i < leaf && stack_[i].size > s; ++i) {
          if (stack_[i].phase / 2 + 1 < params_.a) {
            probes_.push_back({i, stack_[i].phase, live});
          }
        }
        if (probes_.size() > first) {
          if (live == probe_openings_.size()) probe_openings_.emplace_back();
          ProbeOpening& open = probe_openings_[live];
          write_signature(open.sig);
          open.boxes_before = boxes_consumed_;
          open.leaves_before = leaves_done_;
          if (recorder_ != nullptr) {
            marks.resize(live + 1);
            marks[live] = recorder_->mark();
          }
          ++live;
        }
      }
      if (consumed == count) break;
    }
    literal_box();
  }
  return report;
}

StackSignature RegularExecution::signature() const {
  StackSignature sig;
  write_signature(sig);
  return sig;
}

void RegularExecution::write_signature(StackSignature& sig) const {
  sig.clear();
  sig.reserve(stack_.size());
  for (const Frame& f : stack_) {
    sig.push_back({f.size, f.phase, f.scan_offset});
  }
}

std::optional<PeriodicDelta> RegularExecution::classify_period(
    const StackSignature& before, std::uint64_t want) const {
  if (want == 0) return std::nullopt;
  // Node hashes are excluded from signatures; under kAdversaryMatched
  // they choose chunk placements, so nothing is certifiable there.
  if (placement_ == ScanPlacement::kAdversaryMatched) return std::nullopt;
  if (stack_.empty() || stack_.size() != before.size()) return std::nullopt;
  const std::size_t len = stack_.size();
  // Exactly one frame may have moved; sizes must agree everywhere (the
  // frames deeper than the moved one are the recreated descent into the
  // next child — identical triples mean identical future behavior, since
  // chunk sizes depend only on (size, placement) here).
  std::size_t p = len;
  for (std::size_t i = 0; i < len; ++i) {
    const Frame& f = stack_[i];
    if (f.size != before[i][0]) return std::nullopt;
    if (f.phase != before[i][1] || f.scan_offset != before[i][2]) {
      if (p != len) return std::nullopt;
      p = i;
    }
  }
  if (p == len) return std::nullopt;  // nothing visibly moved
  const Frame& f = stack_[p];
  const std::uint64_t phase0 = before[p][1];
  const std::uint64_t off0 = before[p][2];
  PeriodicDelta delta;
  delta.frame = p;
  if (f.phase == phase0) {
    // Same odd phase, offset advanced: in-chunk scan periodicity. Only
    // certifiable when p is the deepest frame (no suffix to re-create).
    if (p + 1 != len || f.phase % 2 != 1) return std::nullopt;
    if (f.scan_offset <= off0) return std::nullopt;
    delta.doffset = f.scan_offset - off0;
    const std::uint64_t chunk = chunk_size(f, (f.phase - 1) / 2);
    CADAPT_CHECK(f.scan_offset < chunk);  // normalized resting state
    // Stay strictly inside the chunk so every replayed state is exactly
    // the normalized state literal execution would rest in.
    delta.max_repeats = std::min<std::uint64_t>(
        want, (chunk - 1 - f.scan_offset) / delta.doffset);
  } else {
    // Phase advanced by whole children: repeated subtree completions.
    if (f.phase < phase0 || phase0 % 2 != 0 || f.phase % 2 != 0)
      return std::nullopt;
    if (off0 != 0 || f.scan_offset != 0) return std::nullopt;
    delta.dphase = f.phase - phase0;
    const std::uint64_t a = params_.a;
    const std::uint64_t di = delta.dphase / 2;
    const std::uint64_t i0 = phase0 / 2;
    const std::uint64_t i1 = f.phase / 2;
    // Each further repeat r traverses scan chunks i1+(r-1)·di .. and must
    // see the same chunk sizes the probed repeat saw at i0 .., and must
    // end still "about to descend a child" (phase < 2a) so the stack
    // shape is preserved.
    std::uint64_t m = 0;
    while (m < want) {
      const std::uint64_t r = m + 1;
      if (i1 + r * di > a - 1) break;
      bool same = true;
      for (std::uint64_t j = 0; j < di && same; ++j) {
        same = chunk_size(f, i1 + (r - 1) * di + j) == chunk_size(f, i0 + j);
      }
      if (!same) break;
      m = r;
    }
    delta.max_repeats = m;
  }
  if (delta.max_repeats == 0) return std::nullopt;
  return delta;
}

void RegularExecution::apply_period(const PeriodicDelta& delta, std::uint64_t m,
                                    std::uint64_t boxes_per_repeat,
                                    std::uint64_t leaves_per_repeat) {
  CADAPT_CHECK(m >= 1 && m <= delta.max_repeats);
  CADAPT_CHECK(delta.frame < stack_.size());
  Frame& f = stack_[delta.frame];
  f.phase += m * delta.dphase;
  f.scan_offset += m * delta.doffset;
  leaves_done_ += m * leaves_per_repeat;
  boxes_consumed_ += m * boxes_per_repeat;
}

namespace {

/// In-flight block probe of the bulk driver (docs/PERF.md): opened at a
/// source repeat boundary, closed when the execution reaches the end of
/// the first repeat — at which point the remaining repeats may be retired
/// in closed form (engine state via apply_period, source position via
/// skip_repeats, potential sums via exact replay, recorder via replay).
struct BlockProbe {
  StackSignature sig;
  std::uint64_t target = 0;        ///< boxes_consumed() ending the repeat
  std::uint64_t boxes_per_repeat = 0;
  std::uint64_t repeats_left = 0;  ///< repeats after the probed one
  std::uint64_t leaves_before = 0;
  double acc_sum_before = 0;
  std::uint64_t acc_boxes_before = 0;
  double unit_sum_before = 0;
  obs::ExecRecorder::Mark mark;
};

}  // namespace

RunResult run_to_completion(RegularExecution& exec, profile::BoxSource& source,
                            const RunOptions& options) {
  obs::ExecRecorder* recorder = options.recorder;
  if (recorder != nullptr) exec.set_recorder(recorder);
  model::AdaptivityAccumulator acc(exec.params(), exec.problem_size());
  double sum_unit_potential = 0.0;
  RunResult result;
  const std::uint64_t max_boxes = options.max_boxes;
  // The bulk path is disabled by the per_box flag and by a per-box-trace
  // recorder; either way the loop below is the seed driver, byte for byte.
  const bool bulk = !options.per_box &&
                    (recorder == nullptr || recorder->aggregates_runs());
  const robust::CancelToken* cancel = options.cancel;
  if (cancel != nullptr) exec.set_cancel(cancel);
  if (!bulk) {
    while (!exec.done()) {
      if (cancel != nullptr) cancel->poll();
      if (exec.boxes_consumed() >= max_boxes) {
        result.stop = StopReason::kBoxCapHit;
        break;
      }
      const auto box = source.next();
      if (!box) {  // finite profile exhausted before completion
        result.stop = StopReason::kSourceExhausted;
        break;
      }
      acc.add_box(*box);
      sum_unit_potential +=
          model::bounded_rho_units(exec.params(), exec.problem_size(), *box);
      exec.consume_box(*box);
    }
  } else {
    std::vector<BlockProbe> probes;
    const bool blocks = source.provides_blocks();
    while (!exec.done()) {
      // Per-run, not per-box: the bulk path retires millions of boxes per
      // iteration, so this is the bounded-interval poll point.
      if (cancel != nullptr) cancel->poll();
      if (exec.boxes_consumed() >= max_boxes) {
        result.stop = StopReason::kBoxCapHit;
        break;
      }
      if (blocks) {
        if (const auto blk = source.peek_block()) {
          // One-box repeats gain nothing over runs; a repeat that cannot
          // finish under the cap can never be replayed.
          if (blk->repeats >= 2 && blk->boxes_per_repeat >= 2 &&
              exec.boxes_consumed() + blk->boxes_per_repeat <= max_boxes) {
            BlockProbe probe;
            probe.sig = exec.signature();
            probe.target = exec.boxes_consumed() + blk->boxes_per_repeat;
            probe.boxes_per_repeat = blk->boxes_per_repeat;
            probe.repeats_left = blk->repeats - 1;
            probe.leaves_before = exec.leaves_done();
            probe.acc_sum_before = acc.sum_bounded_potential();
            probe.acc_boxes_before = acc.boxes();
            probe.unit_sum_before = sum_unit_potential;
            if (recorder != nullptr) probe.mark = recorder->mark();
            probes.push_back(std::move(probe));
          }
        }
      }
      const auto run = source.next_run();
      if (!run) {
        result.stop = StopReason::kSourceExhausted;
        break;
      }
      const std::uint64_t take = std::min<std::uint64_t>(
          run->count, max_boxes - exec.boxes_consumed());
      const std::uint64_t before_boxes = exec.boxes_consumed();
      exec.consume_run(run->size, take);
      // Only the boxes actually consumed are charged (the run may end
      // early when the execution completes) — same count, same values,
      // same addition sequence as the per-box loop.
      const std::uint64_t used = exec.boxes_consumed() - before_boxes;
      acc.add_boxes(run->size, used);
      sum_unit_potential = model::bulk_add(
          sum_unit_potential,
          model::bounded_rho_units(exec.params(), exec.problem_size(),
                                   run->size),
          used);
      // Close every probe whose first repeat just ended.
      while (!probes.empty() &&
             exec.boxes_consumed() >= probes.back().target) {
        const BlockProbe probe = std::move(probes.back());
        probes.pop_back();
        // Overshot the boundary (a run straddled it) or finished: the
        // probe cannot certify anything — drop it, keep consuming.
        if (exec.boxes_consumed() != probe.target || exec.done()) continue;
        // Defensive re-peek: the source must still be at a boundary of
        // the same block, one repeat in.
        const auto cur = source.peek_block();
        if (!cur || cur->boxes_per_repeat != probe.boxes_per_repeat ||
            cur->repeats < 1) {
          continue;
        }
        const auto delta = exec.classify_period(
            probe.sig, std::min(probe.repeats_left, cur->repeats));
        if (!delta) continue;
        const std::uint64_t m = std::min(
            delta->max_repeats,
            (max_boxes - exec.boxes_consumed()) / probe.boxes_per_repeat);
        if (m == 0) continue;
        // Commit only if BOTH potential sums replay exactly (all-integer
        // window below 2^53); otherwise fall back to literal consumption.
        if (!acc.all_integer() ||
            !model::exactly_replayable(probe.acc_sum_before,
                                       acc.sum_bounded_potential(), m) ||
            !model::exactly_replayable(probe.unit_sum_before,
                                       sum_unit_potential, m)) {
          continue;
        }
        source.skip_repeats(m);
        exec.apply_period(*delta, m, probe.boxes_per_repeat,
                          exec.leaves_done() - probe.leaves_before);
        acc.apply_replay(probe.acc_sum_before, probe.acc_boxes_before, m);
        sum_unit_potential =
            model::replay_sum(probe.unit_sum_before, sum_unit_potential, m);
        if (recorder != nullptr) recorder->replay(probe.mark, m);
      }
    }
  }
  result.completed = exec.done();
  if (result.completed) result.stop = StopReason::kCompleted;
  result.boxes = exec.boxes_consumed();
  result.leaves = exec.leaves_done();
  result.sum_bounded_potential = acc.sum_bounded_potential();
  result.ratio = acc.ratio();
  result.unit_ratio =
      sum_unit_potential /
      static_cast<double>(
          model::problem_units(exec.params(), exec.problem_size()));
  if (recorder != nullptr) recorder->finish(result.completed);
  return result;
}

RunResult run_to_completion(RegularExecution& exec, profile::BoxSource& source,
                            std::uint64_t max_boxes,
                            obs::ExecRecorder* recorder) {
  RunOptions options;
  options.max_boxes = max_boxes;
  options.recorder = recorder;
  return run_to_completion(exec, source, options);
}

RunResult run_regular(const model::RegularParams& params, std::uint64_t n,
                      profile::BoxSource& source, ScanPlacement placement,
                      std::uint64_t max_boxes, std::uint64_t adversary_seed,
                      BoxSemantics semantics, obs::ExecRecorder* recorder) {
  RegularExecution exec(params, n, placement, adversary_seed, semantics);
  return run_to_completion(exec, source, max_boxes, recorder);
}

RunResult run_regular(const model::RegularParams& params, std::uint64_t n,
                      profile::BoxSource& source, ScanPlacement placement,
                      std::uint64_t adversary_seed, BoxSemantics semantics,
                      const RunOptions& options) {
  RegularExecution exec(params, n, placement, adversary_seed, semantics);
  return run_to_completion(exec, source, options);
}

}  // namespace cadapt::engine
