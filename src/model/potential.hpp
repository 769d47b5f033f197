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

/// True iff `current + m * (current - before)` is bit-identical to
/// re-adding the (nonnegative, integer-summing) box sequence that took
/// the sum from `before` to `current` m more times. Requires the caller
/// to know every individual addend in that window was integer-valued
/// (e.g. AdaptivityAccumulator::exact()); this checks the endpoint
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

/// One addend of an ExactSum: its value and, when the value is an
/// integer no larger than 2^53, the same integer (kNotWhole otherwise).
struct Addend {
  static constexpr std::uint64_t kNotWhole = UINT64_MAX;
  double value = 0;
  std::uint64_t whole = 0;

  Addend() = default;
  explicit Addend(double x)
      : value(x),
        whole(x >= 0.0 && x <= kExactIntegerLimit && std::floor(x) == x
                  ? static_cast<std::uint64_t>(x)
                  : kNotWhole) {}
};

/// A running sum of nonnegative addends, bit-identical to adding each
/// addend to a double in turn. While every addend so far was an integer
/// and the total is at most 2^53, every partial sum of that loop is an
/// exactly representable integer, so the loop's double equals the
/// integer total: the sum is held as a uint64 and `count` equal addends
/// add in one multiply. The first add that would leave that domain
/// converts the total (exactly) to a double, and from then on every add
/// is the literal loop.
class ExactSum {
 public:
  void add(const Addend& x, std::uint64_t count = 1) {
    if (exact_) {
      // kNotWhole overflows or passes the limit for any count >= 1.
      std::uint64_t grown = 0;
      std::uint64_t total = 0;
      if (!__builtin_mul_overflow(x.whole, count, &grown) &&
          !__builtin_add_overflow(whole_, grown, &total) &&
          total <= kWholeLimit) {
        whole_ = total;
        return;
      }
      exact_ = false;
      sum_ = static_cast<double>(whole_);
    }
    for (std::uint64_t i = 0; i < count; ++i) sum_ += x.value;
  }

  /// True while the sum is held as an integer.
  bool exact() const { return exact_; }
  /// The sum the literal double loop holds.
  double value() const {
    return exact_ ? static_cast<double>(whole_) : sum_;
  }

  /// Commit m replayed copies of the window that took the sum from
  /// `before` to value(): the caller must have checked
  /// exactly_replayable(before, value(), m).
  void replay(double before, std::uint64_t m) {
    const double total = replay_sum(before, value(), m);
    if (exact_) {
      whole_ = static_cast<std::uint64_t>(total);
    } else {
      sum_ = total;
    }
  }

 private:
  static constexpr std::uint64_t kWholeLimit = UINT64_C(1) << 53;

  std::uint64_t whole_ = 0;  // the sum, while exact_
  double sum_ = 0.0;         // the sum, once not exact_
  bool exact_ = true;
};

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
  Addend rho;        ///< bounded_rho
  Addend rho_units;  ///< bounded_rho_units
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
      if (value.rho_units.value == 0) value = compute(s);
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
    return {Addend(bounded_rho(params_, n_, s)),
            Addend(bounded_rho_units(params_, n_, s))};
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
    sum_.add(Addend(bounded_rho(params_, n_, s)));
    ++boxes_;
  }

  /// Bulk add of `count` equal boxes of potential rho (a PotentialMemo
  /// entry's) — bit-identical to `count` add_box calls.
  void add_potential(const Addend& rho, std::uint64_t count) {
    sum_.add(rho, count);
    boxes_ += count;
  }

  /// True while the sum is held exactly as an integer: every potential
  /// added so far was integer-valued (always the case for power-of-b box
  /// sizes) and the sum is at most 2^53 — a precondition for
  /// exactly_replayable() on this accumulator's sum.
  bool exact() const { return sum_.exact(); }

  /// Commit m replayed copies of the window (before_sum -> current sum):
  /// the caller must have checked exact() && exactly_replayable().
  void apply_replay(double before_sum, std::uint64_t before_boxes,
                    std::uint64_t m) {
    sum_.replay(before_sum, m);
    boxes_ += m * (boxes_ - before_boxes);
  }

  std::uint64_t boxes() const { return boxes_; }
  double sum_bounded_potential() const { return sum_.value(); }

  /// Σ min(n,|□_i|)^{log_b a} / n^{log_b a}. An algorithm is efficiently
  /// cache-adaptive iff this stays O(1) over all profiles as n grows.
  double ratio() const { return sum_.value() / rho(params_, n_); }

 private:
  RegularParams params_;
  std::uint64_t n_;
  ExactSum sum_;
  std::uint64_t boxes_ = 0;
};

}  // namespace cadapt::model
