#include "profile/worst_case.hpp"

#include "util/check.hpp"
#include "util/math.hpp"

namespace cadapt::profile {

namespace {
void validate_params(std::uint64_t a, std::uint64_t b, BoxSize n) {
  CADAPT_CHECK_MSG(b >= 2, "worst-case profile requires b >= 2");
  CADAPT_CHECK_MSG(a >= 1, "worst-case profile requires a >= 1");
  CADAPT_CHECK_MSG(util::is_power_of(n, b),
                   "worst-case profile requires n to be a power of b; n=" << n);
}
}  // namespace

WorstCaseSource::WorstCaseSource(std::uint64_t a, std::uint64_t b, BoxSize n,
                                 BoxSize scale)
    : a_(a), b_(b), scale_(scale) {
  validate_params(a, b, n);
  CADAPT_CHECK(scale >= 1);
  stack_.push_back({n, 0});
  // |M(b^j)| = a*|M(b^{j-1})| + 1, |M(1)| = 1 — sized for peek_block.
  const unsigned K = util::ilog(n, b);
  boxes_by_level_.resize(K + 1);
  boxes_by_level_[0] = 1;
  for (unsigned j = 1; j <= K; ++j) {
    boxes_by_level_[j] = a_ * boxes_by_level_[j - 1] + 1;
  }
}

std::optional<BoxSize> WorstCaseSource::next() {
  while (!stack_.empty()) {
    const std::size_t top = stack_.size() - 1;
    if (stack_[top].size == 1) {  // base case: a single box of size 1
      const BoxSize s = stack_[top].size;
      stack_.pop_back();
      return s * scale_;
    }
    if (stack_[top].child < a_) {
      ++stack_[top].child;
      const BoxSize child_size = stack_[top].size / b_;
      stack_.push_back({child_size, 0});
      continue;
    }
    // All a recursive copies emitted; emit this node's own box and retire.
    const BoxSize s = stack_[top].size;
    stack_.pop_back();
    return s * scale_;
  }
  return std::nullopt;
}

std::optional<BoxRun> WorstCaseSource::next_run() {
  while (!stack_.empty()) {
    const std::size_t top = stack_.size() - 1;
    if (stack_[top].size == 1) {  // only reachable via mixed next() usage
      stack_.pop_back();
      return BoxRun{scale_, 1};
    }
    if (stack_[top].child < a_) {
      if (stack_[top].size == b_) {
        // All remaining children are base-case boxes: one native run.
        const std::uint64_t count = a_ - stack_[top].child;
        stack_[top].child = a_;
        return BoxRun{scale_, count};
      }
      ++stack_[top].child;
      stack_.push_back({stack_[top].size / b_, 0});
      continue;
    }
    const BoxSize s = stack_[top].size;
    stack_.pop_back();
    return BoxRun{s * scale_, 1};
  }
  return std::nullopt;
}

std::optional<SubtreeBlock> WorstCaseSource::peek_block() {
  return peek_block_at(0);
}

std::optional<SubtreeBlock> WorstCaseSource::peek_block_at(std::size_t depth) {
  // The stream position is always at a repeat boundary of the top node:
  // either about to start child #child (a copy of M(size/b)) or about to
  // emit the node's own box. Starting a child also starts that child's
  // first child, and so on down to the leaves: the node `depth` levels
  // below the top on that path has all a of its copies ahead.
  if (stack_.empty()) return std::nullopt;
  const Frame& top = stack_.back();
  if (top.size <= 1 || top.child >= a_) return std::nullopt;
  const unsigned top_level = util::ilog(top.size, b_);
  if (depth >= top_level) return std::nullopt;
  const unsigned child_level = top_level - 1 - static_cast<unsigned>(depth);
  return SubtreeBlock{boxes_by_level_[child_level],
                      depth == 0 ? a_ - top.child : a_};
}

void WorstCaseSource::skip_repeats(std::uint64_t m) {
  CADAPT_CHECK(!stack_.empty());
  Frame& top = stack_.back();
  CADAPT_CHECK_MSG(top.size > 1 && top.child + m <= a_,
                   "skip_repeats(" << m << ") past the " << a_
                                   << " children of a size-" << top.size
                                   << " node (child=" << top.child << ")");
  top.child += m;
}

OrderPerturbedWorstCaseSource::OrderPerturbedWorstCaseSource(std::uint64_t a,
                                                             std::uint64_t b,
                                                             BoxSize n,
                                                             std::uint64_t seed)
    : a_(a), b_(b) {
  validate_params(a, b, n);
  stack_.push_back({n, 0, root_hash(seed), false});
}

std::optional<BoxSize> OrderPerturbedWorstCaseSource::next() {
  while (!stack_.empty()) {
    const std::size_t top = stack_.size() - 1;
    if (stack_[top].size == 1) {
      const BoxSize s = stack_[top].size;
      stack_.pop_back();
      return s;
    }
    // Emit this node's own box as soon as `own_after` children are done.
    if (!stack_[top].own_emitted &&
        stack_[top].child >= own_after(stack_[top].hash, a_)) {
      stack_[top].own_emitted = true;
      return stack_[top].size;
    }
    if (stack_[top].child < a_) {
      const std::uint64_t child_index = stack_[top].child;
      ++stack_[top].child;
      const BoxSize child_size = stack_[top].size / b_;
      stack_.push_back({child_size, 0,
                        util::hash_combine(stack_[top].hash, child_index),
                        false});
      continue;
    }
    // All children done and own box already emitted (own_after <= a).
    CADAPT_CHECK(stack_[top].own_emitted);
    stack_.pop_back();
  }
  return std::nullopt;
}

std::optional<BoxRun> OrderPerturbedWorstCaseSource::next_run() {
  while (!stack_.empty()) {
    const std::size_t top = stack_.size() - 1;
    if (stack_[top].size == 1) {  // only reachable via mixed next() usage
      stack_.pop_back();
      return BoxRun{1, 1};
    }
    if (!stack_[top].own_emitted &&
        stack_[top].child >= own_after(stack_[top].hash, a_)) {
      stack_[top].own_emitted = true;
      return BoxRun{stack_[top].size, 1};
    }
    if (stack_[top].child < a_) {
      if (stack_[top].size == b_) {
        // Base-case children run until the own box (or the last child).
        const std::uint64_t limit =
            stack_[top].own_emitted ? a_
                                    : own_after(stack_[top].hash, a_);
        const std::uint64_t count = limit - stack_[top].child;
        stack_[top].child = limit;
        return BoxRun{1, count};
      }
      const std::uint64_t child_index = stack_[top].child;
      ++stack_[top].child;
      stack_.push_back({stack_[top].size / b_, 0,
                        util::hash_combine(stack_[top].hash, child_index),
                        false});
      continue;
    }
    CADAPT_CHECK(stack_[top].own_emitted);
    stack_.pop_back();
  }
  return std::nullopt;
}

std::vector<CensusEntry> worst_case_census(std::uint64_t a, std::uint64_t b,
                                           BoxSize n) {
  validate_params(a, b, n);
  const unsigned K = util::ilog(n, b);
  std::vector<CensusEntry> census;
  census.reserve(K + 1);
  for (unsigned k = 0; k <= K; ++k) {
    census.push_back({util::ipow(b, k), util::ipow(a, K - k)});
  }
  return census;
}

std::uint64_t worst_case_box_count(std::uint64_t a, std::uint64_t b,
                                   BoxSize n) {
  std::uint64_t total = 0;
  for (const auto& e : worst_case_census(a, b, n)) total += e.count;
  return total;
}

double worst_case_total_time(std::uint64_t a, std::uint64_t b, BoxSize n) {
  double total = 0.0;
  for (const auto& e : worst_case_census(a, b, n))
    total += static_cast<double>(e.size) * static_cast<double>(e.count);
  return total;
}

double worst_case_total_potential(std::uint64_t a, std::uint64_t b, BoxSize n) {
  double total = 0.0;
  for (const auto& e : worst_case_census(a, b, n))
    total += util::pow_log_ratio(e.size, a, b) * static_cast<double>(e.count);
  return total;
}

}  // namespace cadapt::profile
