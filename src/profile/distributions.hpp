// Probability distributions over box sizes (the Σ of Theorem 1).
//
// Every distribution exposes its full probability mass function so the
// analytic Lemma-3 solver can evaluate exact expectations; Monte-Carlo
// sampling is implemented once in the base class via the stored CDF.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
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

  /// Draw one box size: one RNG word, the uniform01() draw's entry.
  BoxSize sample(util::Rng& rng) const {
    return pmf_[index_of(rng() >> 11)].size;
  }

  /// The pmf entry a 53-bit draw m (rng() >> 11) selects: the first i
  /// with m <= bounds()[i]. That is lower_bound(cdf, m · 2^-53), the index
  /// sample() took from a double uniform01() draw, searched only inside
  /// m's guide bucket (one or two integer probes for a skewed or a
  /// uniform pmf alike).
  std::size_t index_of(std::uint64_t m) const {
    const std::uint32_t* bucket = guide_.data() + (m >> guide_shift_);
    return static_cast<std::size_t>(
        std::lower_bound(bound_.data() + bucket[0],
                         bound_.data() + bucket[1], m) -
        bound_.data());
  }

  /// bounds()[i] = min(floor(cdf[i] · 2^53), 2^53), nondecreasing, last
  /// 2^53: entry i takes the draws m in (bounds()[i-1], bounds()[i]].
  std::span<const std::uint64_t> bounds() const { return bound_; }

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
  /// Guide buckets cap: 2^16 four-byte entries.
  static constexpr std::size_t kMaxGuideBuckets = std::size_t{1} << 16;

  std::vector<PmfEntry> pmf_;          // sorted by size, normalized
  std::vector<std::uint64_t> bound_;   // draw bounds, see bounds()
  std::vector<std::uint32_t> guide_;   // bucket -> first bound_ index
  unsigned guide_shift_ = 53;          // m >> guide_shift_ = m's bucket
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
/// coalesces by drawing ahead and stashing the first mismatch. A draw
/// extends the run while it falls in the head entry's draw interval (one
/// unsigned compare); only the draw that ends the run is looked up. The
/// one exception is a point mass: every delivered value is the same
/// forever, so runs of kPointMassChunk boxes are emitted from a single
/// head draw; the RNG is private to this source, so the skipped per-box
/// draws are unobservable in any result. The chunk covers any box cap
/// (RunOptions::max_boxes clamps it), so a point-mass trial is a single
/// consume_run call.
class DistributionSource final : public BoxSource {
 public:
  DistributionSource(const BoxDistribution& dist, util::Rng rng)
      : dist_(&dist), rng_(rng),
        point_mass_(dist.pmf().size() == 1) {}

  static constexpr std::uint64_t kPointMassChunk = UINT64_C(1) << 40;
  /// Longest run of any other distribution: small-support distributions
  /// can produce long runs by chance, and the cap keeps a single
  /// next_run() call bounded.
  static constexpr std::uint64_t kMaxCoalesce = UINT64_C(1) << 12;

  std::optional<BoxSize> next() override {
    if (pending_ != kNone) {
      const BoxSize box = dist_->pmf()[pending_].size;
      pending_ = kNone;
      return box;
    }
    return dist_->sample(rng_);
  }

  std::optional<BoxRun> next_run() override { return draw_run(rng_); }

  /// A batch of draw_run() results in one call: the same RNG draws and
  /// the same runs as successive next_run() calls. The generator is a
  /// local for the batch, so its state stays in registers.
  std::size_t next_runs(std::span<BoxRun> out) override {
    util::Rng rng = rng_;
    for (BoxRun& run : out) run = draw_run(rng);
    rng_ = rng;
    return out.size();
  }

 private:
  static constexpr std::size_t kNone = SIZE_MAX;

  BoxRun draw_run(util::Rng& rng) {
    std::size_t head = pending_;
    if (head != kNone) {
      pending_ = kNone;
    } else {
      head = dist_->index_of(rng() >> 11);
    }
    const BoxSize size = dist_->pmf()[head].size;
    if (point_mass_) return BoxRun{size, kPointMassChunk};
    // The head's draws are lo..lo + width: m - lo > width (unsigned) is
    // a draw of another entry.
    const std::span<const std::uint64_t> bounds = dist_->bounds();
    const std::uint64_t lo = head == 0 ? 0 : bounds[head - 1] + 1;
    const std::uint64_t width = bounds[head] - lo;
    std::uint64_t count = 1;
    while (count < kMaxCoalesce) {
      const std::uint64_t m = rng() >> 11;
      if (m - lo > width) {
        pending_ = dist_->index_of(m);  // first box of the NEXT run
        break;
      }
      ++count;
    }
    return BoxRun{size, count};
  }

  const BoxDistribution* dist_;
  util::Rng rng_;
  bool point_mass_;
  std::size_t pending_ = kNone;  // pmf entry drawn but not yet delivered
};

}  // namespace cadapt::profile
