// The adversarial worst-case profile M_{a,b}(n) of Section 3 / Figure 1.
//
// Construction (paper, "Robustness of Worst-Case Profiles"): M_{a,b}(n) is
// a copies of M_{a,b}(n/b) followed by one box of size n; the base case
// M_{a,b}(1) is a single box of size 1. Run against the canonical
// (a,b,1)-regular algorithm A_n, every box makes its minimum possible
// progress, and the total potential of the profile is
// n^{log_b a} * (log_b n + 1) — a Θ(log n) factor above the optimum
// n^{log_b a}, which is the logarithmic gap of Theorem 2.
//
// The profile has Θ(n^{log_b a}) boxes, so it is generated lazily with an
// explicit recursion stack (O(log n) memory).
#pragma once

#include <cstdint>
#include <vector>

#include "profile/box_source.hpp"
#include "util/random.hpp"

namespace cadapt::profile {

/// Lazy generator of M_{a,b}(n), scaled by `scale` (the paper's T·M_{a,b}
/// when scale = T). Requires n to be a power of b.
class WorstCaseSource final : public BoxSource {
 public:
  WorstCaseSource(std::uint64_t a, std::uint64_t b, BoxSize n,
                  BoxSize scale = 1);

  std::optional<BoxSize> next() override;

  /// Native runs: the base-case children of a size-b node are a
  /// consecutive boxes of size scale — one run instead of a next() calls.
  std::optional<BoxRun> next_run() override;

  /// Structural blocks (docs/PERF.md): at a node of size m > 1 with
  /// pending children, the upcoming stream is (a - child) identical
  /// copies of M_{a,b}(m/b) — repeats of exactly |M(m/b)| boxes each.
  /// skip_repeats(m) is O(1): it bumps the node's child counter.
  /// peek_block_at(d), d >= 1, is the block of the node d levels below
  /// this one on the pending child's path: a copies of M(m/b^{d+1}), all
  /// still ahead.
  bool provides_blocks() const override { return true; }
  std::optional<SubtreeBlock> peek_block() override;
  std::optional<SubtreeBlock> peek_block_at(std::size_t depth) override;
  void skip_repeats(std::uint64_t m) override;

 private:
  struct Frame {
    BoxSize size;
    std::uint64_t child;  // number of children already recursed into
  };
  std::uint64_t a_, b_;
  BoxSize scale_;
  std::vector<Frame> stack_;
  /// boxes_by_level_[k] = |M_{a,b}(b^k)| (total boxes of the subtree).
  std::vector<std::uint64_t> boxes_by_level_;
};

/// The box-order perturbation of the paper's third negative result: when
/// constructing M_{a,b}(n) recursively, the size-n box is placed after the
/// j-th recursive instance (j uniform in {1..a}, independently per node)
/// instead of always after the last.
///
/// Per-node randomness is derived by hashing the node's path from the
/// root (util::hash_combine), so an engine::RegularExecution created with
/// ScanPlacement::kAdversaryMatched and the same seed places each scan
/// exactly where this profile places the corresponding box — the
/// "matched" (a,b,1)-regular algorithm for which the perturbed profile
/// remains worst-case with probability one.
class OrderPerturbedWorstCaseSource final : public BoxSource {
 public:
  OrderPerturbedWorstCaseSource(std::uint64_t a, std::uint64_t b, BoxSize n,
                                std::uint64_t seed);

  std::optional<BoxSize> next() override;

  /// Native runs: consecutive base-case children between own-box
  /// placements coalesce. No blocks — per-node hashes make sibling
  /// subtrees non-identical box sequences.
  std::optional<BoxRun> next_run() override;

  /// The box of the problem at the node with this path hash goes after
  /// child number own_after (1-based). Shared with the engine.
  static std::uint64_t own_after(std::uint64_t node_hash, std::uint64_t a) {
    return 1 + node_hash % a;
  }
  /// Path hash of the root for a given seed. Shared with the engine.
  static std::uint64_t root_hash(std::uint64_t seed) {
    std::uint64_t s = seed;
    return util::splitmix64(s);
  }

 private:
  struct Frame {
    BoxSize size;
    std::uint64_t child;      // children already recursed into
    std::uint64_t hash;       // path hash of this node
    bool own_emitted;
  };
  std::uint64_t a_, b_;
  std::vector<Frame> stack_;
};

/// Census entry: the worst-case profile contains `count` boxes of `size`.
struct CensusEntry {
  BoxSize size;
  std::uint64_t count;
};

/// Exact box census of M_{a,b}(n): size b^k appears a^{K-k} times for
/// k = 0..K, K = log_b n. Independent of box order, so it also describes
/// the order-perturbed profile.
std::vector<CensusEntry> worst_case_census(std::uint64_t a, std::uint64_t b,
                                           BoxSize n);

/// Total number of boxes in M_{a,b}(n).
std::uint64_t worst_case_box_count(std::uint64_t a, std::uint64_t b, BoxSize n);

/// Total time Σ |□_i| of M_{a,b}(n) (in I/Os), as a double to avoid overflow.
double worst_case_total_time(std::uint64_t a, std::uint64_t b, BoxSize n);

/// Total potential Σ |□_i|^{log_b a} of M_{a,b}(n); equals
/// n^{log_b a} (log_b n + 1) exactly.
double worst_case_total_potential(std::uint64_t a, std::uint64_t b, BoxSize n);

}  // namespace cadapt::profile
