// Lazy streams of boxes.
//
// Profiles can be enormous (the worst-case profile M_{a,b}(n) has
// Θ(n^{log_b a}) boxes) or infinite (i.i.d. distributions, Definition 3),
// so the execution engine consumes boxes through this single-pass stream
// interface instead of materialized vectors.
//
// Beyond the one-box next(), the stream exposes two batched views the
// engine's O(runs) bulk path consumes (docs/PERF.md):
//
//  * next_run() — a maximal run of equal-size boxes. Expanding every run
//    back into `count` single boxes MUST reproduce the next() stream
//    exactly; the default implementation simply wraps next() in runs of
//    one. Sources whose streams are naturally run-length-compressed
//    (WorstCaseSource, small-support distributions) override it.
//    next_runs() draws several runs per call.
//  * peek_block()/skip_repeats() — the structural hook for self-similar
//    profiles: a block announces that the upcoming boxes are `repeats`
//    IDENTICAL copies of the same `boxes_per_repeat`-box sequence (the a
//    recursive copies of M(n/b) inside M(n)). The engine consumes one
//    copy, checks that the execution state advanced periodically, and
//    retires the remaining copies in closed form via skip_repeats.
//    peek_block_at(depth) also announces the blocks nested in that first
//    copy which start at the same position, so every level's first copy
//    is probed.
//
// A caller that consumes runs/blocks may leave the source a few boxes
// ahead of where a per-box caller would have (a run drawn but only partly
// consumed); the VALUES delivered are identical, only the source's
// internal read-ahead differs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "profile/box.hpp"

namespace cadapt::profile {

/// A run of `count` consecutive boxes, all of size `size`.
struct BoxRun {
  BoxSize size = 0;
  std::uint64_t count = 0;
};

/// A repeated-subsequence announcement: starting at the current position,
/// the next `repeats * boxes_per_repeat` boxes are `repeats` identical
/// copies of one `boxes_per_repeat`-box sequence.
struct SubtreeBlock {
  std::uint64_t boxes_per_repeat = 0;
  std::uint64_t repeats = 0;
};

/// Single-pass stream of box sizes. next() returns std::nullopt when a
/// finite profile is exhausted; infinite sources never return nullopt.
class BoxSource {
 public:
  virtual ~BoxSource() = default;
  virtual std::optional<BoxSize> next() = 0;

  /// Next run of equal-size boxes. Contract: concatenating the expansions
  /// of successive runs yields exactly the next() stream. The default is
  /// the trivial run of one (no lookahead, no coalescing — wrap in
  /// RunCoalescingSource for that); overrides return maximal runs the
  /// source knows natively.
  virtual std::optional<BoxRun> next_run() {
    const auto box = next();
    if (!box) return std::nullopt;
    return BoxRun{*box, 1};
  }

  /// Batch view of next_run(): write up to out.size() next runs into
  /// `out` and return how many (0 once a finite profile is exhausted).
  /// Contract: the runs are exactly those successive next_run() calls
  /// would return. The default delivers one run per call, so wrappers
  /// that count draws (robust::FaultyBoxSource) draw no further ahead
  /// than next_run(); sources with a cheap private draw override it.
  virtual std::size_t next_runs(std::span<BoxRun> out) {
    if (out.empty()) return 0;
    const auto run = next_run();
    if (!run) return 0;
    out[0] = *run;
    return 1;
  }

  /// Cheap capability probe: true iff peek_block() can ever return a
  /// value. Lets drivers skip the per-position peek on sources without
  /// repeated structure.
  virtual bool provides_blocks() const { return false; }

  /// The repeated block starting at the current position, if the source
  /// is at a repeat boundary of one. Must not advance the stream.
  virtual std::optional<SubtreeBlock> peek_block() { return std::nullopt; }

  /// Every block whose first repeat starts at the current position,
  /// outermost first: depth 0 is peek_block(), and depth d + 1 is a block
  /// nested in the first repeat of depth d's block (a fresh subtree's own
  /// first child). Nothing past the innermost. Must not advance the
  /// stream. skip_repeats() only ever applies to peek_block(): once the
  /// first repeat of a deeper block has been consumed, that block is what
  /// peek_block() announces. Default: depth 0 only.
  virtual std::optional<SubtreeBlock> peek_block_at(std::size_t depth) {
    if (depth == 0) return peek_block();
    return std::nullopt;
  }

  /// Skip `m` whole repeats of the block peek_block() described. Only
  /// valid when the stream has consumed an integral number (>= 1) of that
  /// block's repeats since the peek, and `m` plus the repeats already
  /// consumed does not exceed the announced count. Default: no block
  /// support — must not be called.
  virtual void skip_repeats(std::uint64_t m);
};

/// Factory producing a fresh, rewound instance of a profile stream.
/// Experiment drivers use factories so that every Monte-Carlo trial and
/// every restart (e.g. cyclic shifts) sees the profile from its start.
using SourceFactory = std::function<std::unique_ptr<BoxSource>()>;

/// Stream over a materialized vector of boxes; optionally cycles forever.
class VectorSource final : public BoxSource {
 public:
  explicit VectorSource(std::vector<BoxSize> boxes, bool cycle = false)
      : boxes_(std::move(boxes)), cycle_(cycle) {}

  std::optional<BoxSize> next() override {
    if (pos_ == boxes_.size()) {
      if (!cycle_ || boxes_.empty()) return std::nullopt;
      pos_ = 0;
    }
    return boxes_[pos_++];
  }

  /// Maximal run of equal adjacent boxes (never wraps across the cycle
  /// boundary, so runs stay aligned with the underlying vector).
  std::optional<BoxRun> next_run() override {
    if (pos_ == boxes_.size()) {
      if (!cycle_ || boxes_.empty()) return std::nullopt;
      pos_ = 0;
    }
    const BoxSize size = boxes_[pos_];
    std::uint64_t count = 0;
    while (pos_ < boxes_.size() && boxes_[pos_] == size) {
      ++pos_;
      ++count;
    }
    return BoxRun{size, count};
  }

 private:
  std::vector<BoxSize> boxes_;
  bool cycle_;
  std::size_t pos_ = 0;
};

/// Adapts any source into one that cycles: when the inner source is
/// exhausted a fresh instance is created from the factory. Used to model
/// periodic repetition of finite adversarial profiles.
class CyclingSource final : public BoxSource {
 public:
  explicit CyclingSource(SourceFactory factory)
      : factory_(std::move(factory)), inner_(factory_()) {}

  std::optional<BoxSize> next() override {
    auto box = inner_->next();
    if (!box) {
      inner_ = factory_();
      box = inner_->next();
      if (!box) return std::nullopt;  // inner profile is empty
    }
    return box;
  }

  // Runs and blocks forward to the current inner instance: the worst-case
  // E2 cells reach the engine through worst_profile_source's
  // CyclingSource-of-WorstCaseSource, so this forwarding is what puts
  // them on the bulk path. Blocks never span a cycle boundary (the inner
  // profile's own boxes end each repeat), so forwarding stays sound.
  std::optional<BoxRun> next_run() override {
    auto run = inner_->next_run();
    if (!run) {
      inner_ = factory_();
      run = inner_->next_run();
      if (!run) return std::nullopt;  // inner profile is empty
    }
    return run;
  }

  bool provides_blocks() const override { return inner_->provides_blocks(); }
  std::optional<SubtreeBlock> peek_block() override {
    return inner_->peek_block();
  }
  std::optional<SubtreeBlock> peek_block_at(std::size_t depth) override {
    return inner_->peek_block_at(depth);
  }
  void skip_repeats(std::uint64_t m) override { inner_->skip_repeats(m); }

 private:
  SourceFactory factory_;
  std::unique_ptr<BoxSource> inner_;
};

/// Emits at most `limit` boxes of the inner source, then reports exhaustion.
class TakeSource final : public BoxSource {
 public:
  TakeSource(std::unique_ptr<BoxSource> inner, std::uint64_t limit)
      : inner_(std::move(inner)), remaining_(limit) {}

  std::optional<BoxSize> next() override {
    if (remaining_ == 0) return std::nullopt;
    --remaining_;
    return inner_->next();
  }

  /// Forwards the inner run clamped to the remaining budget. Blocks are
  /// deliberately NOT forwarded: a skipped repeat would bypass the limit
  /// accounting.
  std::optional<BoxRun> next_run() override {
    if (remaining_ == 0) return std::nullopt;
    auto run = inner_->next_run();
    if (!run) return std::nullopt;
    run->count = std::min(run->count, remaining_);
    remaining_ -= run->count;
    return run;
  }

 private:
  std::unique_ptr<BoxSource> inner_;
  std::uint64_t remaining_;
};

/// Concatenates two sources.
class ConcatSource final : public BoxSource {
 public:
  ConcatSource(std::unique_ptr<BoxSource> first,
               std::unique_ptr<BoxSource> second)
      : first_(std::move(first)), second_(std::move(second)) {}

  std::optional<BoxSize> next() override {
    if (first_) {
      if (auto box = first_->next()) return box;
      first_.reset();
    }
    return second_->next();
  }

  std::optional<BoxRun> next_run() override {
    if (first_) {
      if (auto run = first_->next_run()) return run;
      first_.reset();
    }
    return second_->next_run();
  }

  // Blocks forward to whichever part is active.
  bool provides_blocks() const override {
    return (first_ && first_->provides_blocks()) || second_->provides_blocks();
  }
  std::optional<SubtreeBlock> peek_block() override {
    if (first_) return first_->peek_block();
    return second_->peek_block();
  }
  std::optional<SubtreeBlock> peek_block_at(std::size_t depth) override {
    if (first_) return first_->peek_block_at(depth);
    return second_->peek_block_at(depth);
  }
  void skip_repeats(std::uint64_t m) override {
    if (first_) {
      first_->skip_repeats(m);
      return;
    }
    second_->skip_repeats(m);
  }

 private:
  std::unique_ptr<BoxSource> first_;
  std::unique_ptr<BoxSource> second_;
};

/// The default run adapter of docs/PERF.md: coalesces any inner stream
/// into maximal (capped) runs of equal boxes via one-box lookahead. Each
/// delivered box still corresponds to exactly one inner next() call, so
/// the expanded stream is the inner stream verbatim.
class RunCoalescingSource final : public BoxSource {
 public:
  explicit RunCoalescingSource(std::unique_ptr<BoxSource> inner,
                               std::uint64_t max_run = UINT64_C(1) << 12);

  std::optional<BoxSize> next() override;
  std::optional<BoxRun> next_run() override;

 private:
  std::unique_ptr<BoxSource> inner_;
  std::uint64_t max_run_;
  std::optional<BoxSize> pending_;  // looked-ahead box not yet delivered
};

/// Drains a source into a vector (up to max_boxes; CADAPT_CHECKs if the
/// source is longer). Intended for tests and small profiles.
std::vector<BoxSize> materialize(BoxSource& source,
                                 std::size_t max_boxes = 1u << 24);

}  // namespace cadapt::profile
