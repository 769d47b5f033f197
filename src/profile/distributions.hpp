// Probability distributions over box sizes (the Σ of Theorem 1).
//
// Every distribution exposes its full probability mass function so the
// analytic Lemma-3 solver can evaluate exact expectations; Monte-Carlo
// sampling is implemented once in the base class via the stored CDF.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "profile/box.hpp"
#include "profile/box_source.hpp"
#include "util/random.hpp"

namespace cadapt::profile {

/// An entry of a pmf: (box size, probability).
struct PmfEntry {
  BoxSize size;
  double prob;
};

/// Finite-support distribution over box sizes.
///
/// Subclasses construct the pmf once (sorted by size, probabilities
/// normalized); sampling and all moments are provided here.
class BoxDistribution {
 public:
  virtual ~BoxDistribution() = default;

  virtual std::string name() const = 0;

  const std::vector<PmfEntry>& pmf() const { return pmf_; }

  /// Draw one box size.
  BoxSize sample(util::Rng& rng) const;

  BoxSize min_size() const;
  BoxSize max_size() const;

  /// E[|□|].
  double mean() const;
  /// Pr[|□| >= s].
  double prob_ge(BoxSize s) const;
  /// E[min(|□|, n)].
  double mean_min(BoxSize n) const;
  /// E[min(|□|, n)^e] — the "average n-bounded potential" m_n when
  /// e = log_b a (Equation 3 of the paper).
  double mean_min_pow(BoxSize n, double e) const;

 protected:
  /// Install the pmf. Entries need not be sorted or normalized; zero-mass
  /// entries are dropped. Must be called exactly once by the subclass
  /// constructor.
  void set_pmf(std::vector<PmfEntry> entries);

 private:
  std::vector<PmfEntry> pmf_;   // sorted by size, normalized
  std::vector<double> cdf_;     // inclusive prefix sums of pmf_
};

/// All boxes have one fixed size.
class PointMass final : public BoxDistribution {
 public:
  explicit PointMass(BoxSize size);
  std::string name() const override;

 private:
  BoxSize size_;
};

/// Uniform over the powers {b^kmin, ..., b^kmax}.
class UniformPowers final : public BoxDistribution {
 public:
  UniformPowers(std::uint64_t b, unsigned kmin, unsigned kmax);
  std::string name() const override;

 private:
  std::uint64_t b_;
  unsigned kmin_, kmax_;
};

/// Power-law over powers of b: Pr[b^k] proportional to weight^-(k - kmin)
/// for k in [kmin, kmax]. With weight = a this is exactly the box-size
/// census of the worst-case profile M_{a,b} — i.e. the "random reshuffle"
/// of the adversarial profile that Theorem 1 smooths.
class GeometricPowers final : public BoxDistribution {
 public:
  GeometricPowers(std::uint64_t b, double weight, unsigned kmin,
                  unsigned kmax);
  std::string name() const override;

 private:
  std::uint64_t b_;
  double weight_;
  unsigned kmin_, kmax_;
};

/// Two box sizes: `small` with probability 1-p_big, `big` with p_big.
class Bimodal final : public BoxDistribution {
 public:
  Bimodal(BoxSize small, BoxSize big, double p_big);
  std::string name() const override;
};

/// Uniform over all integers in [lo, hi]. The pmf is materialized, so the
/// range is capped (checked) at 2^22 entries.
class UniformRange final : public BoxDistribution {
 public:
  UniformRange(BoxSize lo, BoxSize hi);
  std::string name() const override;

 private:
  BoxSize lo_, hi_;
};

/// Empirical distribution of an observed multiset of boxes (e.g. the boxes
/// of a materialized adversarial profile). Sampling i.i.d. from this is the
/// paper's "random shuffle of when significant events occur".
class Empirical final : public BoxDistribution {
 public:
  explicit Empirical(const std::vector<BoxSize>& boxes);
  std::string name() const override;
};

/// Infinite i.i.d. stream of boxes from a distribution (Definition 3's
/// random profile). Keeps a reference: the distribution must outlive it.
///
/// Runs: every delivered box costs exactly one RNG draw (so the stream is
/// bit-identical to per-box sampling, run-consumed or not) — next_run()
/// coalesces by drawing ahead and stashing the first mismatch. The one
/// exception is a point mass: every delivered value is the same forever,
/// so runs of kPointMassChunk boxes are emitted from a single head draw;
/// the RNG is private to this source, so the skipped per-box draws are
/// unobservable in any result. The chunk covers any box cap
/// (RunOptions::max_boxes clamps it), so a point-mass trial is a single
/// consume_run call.
class DistributionSource final : public BoxSource {
 public:
  DistributionSource(const BoxDistribution& dist, util::Rng rng)
      : dist_(&dist), rng_(rng),
        point_mass_(dist.pmf().size() == 1) {}

  static constexpr std::uint64_t kPointMassChunk = UINT64_C(1) << 40;

  std::optional<BoxSize> next() override {
    if (pending_) {
      const BoxSize box = *pending_;
      pending_.reset();
      return box;
    }
    return dist_->sample(rng_);
  }

  std::optional<BoxRun> next_run() override {
    BoxSize head;
    if (pending_) {
      head = *pending_;
      pending_.reset();
    } else {
      head = dist_->sample(rng_);
    }
    if (point_mass_) return BoxRun{head, kPointMassChunk};
    std::uint64_t count = 1;
    while (count < kMaxCoalesce) {
      const BoxSize box = dist_->sample(rng_);
      if (box != head) {
        pending_ = box;  // first box of the NEXT run
        break;
      }
      ++count;
    }
    return BoxRun{head, count};
  }

 private:
  // Small-support distributions can produce long runs by chance; cap the
  // lookahead so a single next_run() call stays bounded.
  static constexpr std::uint64_t kMaxCoalesce = UINT64_C(1) << 12;

  const BoxDistribution* dist_;
  util::Rng rng_;
  bool point_mass_;
  std::optional<BoxSize> pending_;  // drawn but not yet delivered
};

}  // namespace cadapt::profile
