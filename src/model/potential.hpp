// Potential and progress accounting (Lemma 1 and Inequality 2).
//
// The potential of a box is rho(|□|) = Θ(|□|^{log_b a}) — the maximum
// progress (base cases) any box of that size could make anywhere in any
// execution. An execution on boxes (□_1..□_j) is *efficiently
// cache-adaptive* when Σ min(n,|□_i|)^{log_b a} <= O(n^{log_b a})
// (Inequality 2; using min(n,·) means the final box need not be rounded
// down). The *adaptivity ratio* below is that sum divided by
// n^{log_b a}: Θ(1) for adaptive executions, Θ(log_b n) on the
// worst-case profile.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "model/regular.hpp"
#include "profile/box.hpp"

namespace cadapt::model {

/// Largest double magnitude (2^53) below which every integer is exactly
/// representable — the domain on which bulk potential accumulation is
/// provably bit-identical to repeated per-box addition (docs/PERF.md).
inline constexpr double kExactIntegerLimit = 9007199254740992.0;

/// True iff `sum + count * x` is bit-identical to adding x to sum `count`
/// times: both are integers and every intermediate partial sum is an
/// exactly-representable integer (<= 2^53). Potentials are nonnegative,
/// so partial sums are monotone and bounded by the final value.
inline bool exactly_bulk_addable(double sum, double x, std::uint64_t count) {
  if (std::floor(sum) != sum || std::floor(x) != x || x < 0.0) return false;
  const long double fin = static_cast<long double>(sum) +
                          static_cast<long double>(count) *
                              static_cast<long double>(x);
  return fin <= static_cast<long double>(kExactIntegerLimit);
}

/// Counts up to which bulk_add runs the literal loop outright: a few
/// additions cost less than proving the closed form exact.
inline constexpr std::uint64_t kLiteralBulkAdds = 8;

/// Add `count` copies of x to sum, bit-identically to a repeated-add
/// loop: the closed form is used when provably exact, otherwise the
/// literal loop runs (identical operation sequence either way).
inline double bulk_add(double sum, double x, std::uint64_t count) {
  if (count <= kLiteralBulkAdds) {
    for (std::uint64_t i = 0; i < count; ++i) sum += x;
    return sum;
  }
  if (exactly_bulk_addable(sum, x, count)) {
    return sum + static_cast<double>(count) * x;
  }
  for (std::uint64_t i = 0; i < count; ++i) sum += x;
  return sum;
}

/// True iff `current + m * (current - before)` is bit-identical to
/// re-adding the (nonnegative, integer-summing) box sequence that took
/// the sum from `before` to `current` m more times. Requires the caller
/// to know every individual addend in that window was integer-valued
/// (e.g. AdaptivityAccumulator::all_integer()); this checks the endpoint
/// integrality and the 2^53 exactness bound on the final value.
inline bool exactly_replayable(double before, double current,
                               std::uint64_t m) {
  if (std::floor(before) != before || std::floor(current) != current ||
      current < before) {
    return false;
  }
  const long double fin =
      static_cast<long double>(current) +
      static_cast<long double>(m) *
          (static_cast<long double>(current) - static_cast<long double>(before));
  return fin <= static_cast<long double>(kExactIntegerLimit);
}

/// The replayed sum: current + m * (current - before). Only exact (and
/// only used) when exactly_replayable() holds.
inline double replay_sum(double before, double current, std::uint64_t m) {
  return current + static_cast<double>(m) * (current - before);
}

/// rho(s) = s^{log_b a} (exact for s a power of b).
inline double rho(const RegularParams& params, profile::BoxSize s) {
  return util::pow_log_ratio(s, params.a, params.b);
}

/// min(n, s)^{log_b a} — the n-bounded potential of a box.
inline double bounded_rho(const RegularParams& params, std::uint64_t n,
                          profile::BoxSize s) {
  return rho(params, std::min<std::uint64_t>(n, s));
}

/// Operation-based potential (the paper's footnote 4 alternative): the
/// maximum number of unit accesses a box of size s can complete, measured
/// as the units of the largest aligned problem fitting in s blocks. For
/// a > b this is Θ(rho(s)); for a <= b (where base cases under-count the
/// work) it is the right progress measure — e.g. a < b, c = 1 algorithms
/// are linear-time and trivially adaptive under it.
inline double rho_units(const RegularParams& params, profile::BoxSize s) {
  CADAPT_CHECK(s >= 1);
  return static_cast<double>(
      problem_units(params, util::floor_pow(s, params.b)));
}

/// Units-based bounded potential: the cap is the whole problem's units.
inline double bounded_rho_units(const RegularParams& params, std::uint64_t n,
                                profile::BoxSize s) {
  return rho_units(params, std::min<std::uint64_t>(n, s));
}

/// Both n-bounded potentials of one box size.
struct BoxPotential {
  double rho = 0;           ///< bounded_rho
  double rho_units = 0;     ///< bounded_rho_units
  bool rho_integer = true;  ///< rho is integer-valued
};

/// bounded_rho and bounded_rho_units memoized per distinct box size: a
/// random profile draws from a small support, while each value costs a
/// logarithm or a power. Sizes below kDirect have a slot each; larger
/// ones share 64 direct-mapped slots, and a size evicted by a collision
/// is recomputed, so the memo never changes a value.
class PotentialMemo {
 public:
  PotentialMemo(const RegularParams& params, std::uint64_t n)
      : params_(params), n_(n) {}

  /// s >= 1.
  const BoxPotential& get(profile::BoxSize s) {
    if (s < kDirect) {
      BoxPotential& value = direct_[s];
      // rho_units >= 1 for every size, so 0 marks an empty slot.
      if (value.rho_units == 0) value = compute(s);
      return value;
    }
    Slot& slot = hashed_[(s * UINT64_C(0x9E3779B97F4A7C15)) >> 58];
    if (slot.size != s) {
      slot.size = s;
      slot.value = compute(s);
    }
    return slot.value;
  }

 private:
  static constexpr profile::BoxSize kDirect = 1024;
  struct Slot {
    profile::BoxSize size = 0;
    BoxPotential value;
  };

  BoxPotential compute(profile::BoxSize s) const {
    const double rho = bounded_rho(params_, n_, s);
    return {rho, bounded_rho_units(params_, n_, s), std::floor(rho) == rho};
  }

  RegularParams params_;
  std::uint64_t n_;
  std::array<BoxPotential, kDirect> direct_{};
  std::array<Slot, 64> hashed_{};
};

/// Accumulates the left-hand side of Inequality 2 over the boxes an
/// execution consumes.
class AdaptivityAccumulator {
 public:
  AdaptivityAccumulator(const RegularParams& params, std::uint64_t n)
      : params_(params), n_(n) {
    params_.validate();
    CADAPT_CHECK(n >= 1);
  }

  void add_box(profile::BoxSize s) {
    const double x = bounded_rho(params_, n_, s);
    all_integer_ = all_integer_ && std::floor(x) == x;
    sum_bounded_potential_ += x;
    ++boxes_;
  }

  /// Bulk add of `count` equal boxes of potential p (from PotentialMemo;
  /// p.rho_units is not used) — bit-identical to `count` add_box calls
  /// (closed form when provably exact, literal loop otherwise).
  void add_potential(const BoxPotential& p, std::uint64_t count) {
    all_integer_ = all_integer_ && p.rho_integer;
    sum_bounded_potential_ = bulk_add(sum_bounded_potential_, p.rho, count);
    boxes_ += count;
  }

  /// True while every potential added so far was integer-valued (always
  /// the case for power-of-b box sizes) — a precondition for
  /// exactly_replayable() on this accumulator's sum.
  bool all_integer() const { return all_integer_; }

  /// Commit m replayed copies of the window (before_sum -> current sum):
  /// the caller must have checked all_integer() && exactly_replayable().
  void apply_replay(double before_sum, std::uint64_t before_boxes,
                    std::uint64_t m) {
    sum_bounded_potential_ = replay_sum(before_sum, sum_bounded_potential_, m);
    boxes_ += m * (boxes_ - before_boxes);
  }

  std::uint64_t boxes() const { return boxes_; }
  double sum_bounded_potential() const { return sum_bounded_potential_; }

  /// Σ min(n,|□_i|)^{log_b a} / n^{log_b a}. An algorithm is efficiently
  /// cache-adaptive iff this stays O(1) over all profiles as n grows.
  double ratio() const { return sum_bounded_potential_ / rho(params_, n_); }

 private:
  RegularParams params_;
  std::uint64_t n_;
  double sum_bounded_potential_ = 0.0;
  std::uint64_t boxes_ = 0;
  bool all_integer_ = true;
};

}  // namespace cadapt::model
