#include "profile/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "util/check.hpp"
#include "util/math.hpp"

namespace cadapt::profile {

void BoxDistribution::set_pmf(std::vector<PmfEntry> entries) {
  CADAPT_CHECK_MSG(pmf_.empty(), "set_pmf called twice");
  CADAPT_CHECK(!entries.empty());
  std::sort(entries.begin(), entries.end(),
            [](const PmfEntry& x, const PmfEntry& y) { return x.size < y.size; });
  // Merge duplicates, drop zero mass, and validate.
  double total = 0.0;
  for (const auto& e : entries) {
    CADAPT_CHECK_MSG(e.prob >= 0.0, "negative probability for size " << e.size);
    CADAPT_CHECK_MSG(e.size >= 1, "box size must be >= 1");
    total += e.prob;
  }
  CADAPT_CHECK_MSG(total > 0.0, "distribution has no mass");
  for (const auto& e : entries) {
    if (e.prob == 0.0) continue;
    if (!pmf_.empty() && pmf_.back().size == e.size) {
      pmf_.back().prob += e.prob / total;
    } else {
      pmf_.push_back({e.size, e.prob / total});
    }
  }
  // Entry i takes the uniform01() draws u <= cdf[i]. For u = m · 2^-53
  // (m an integer) and cdf[i] · 2^53 exact in binary floating point,
  // u <= cdf[i] iff m <= floor(cdf[i] · 2^53): the integer bounds select
  // exactly the entries the double CDF does. The clamp to 2^53 changes
  // no answer (m < 2^53) but keeps the bounds sorted should rounding
  // carry an inner cdf[i] past 1.
  constexpr double kDraws = 0x1.0p53;
  bound_.reserve(pmf_.size());
  double acc = 0.0;
  for (const auto& e : pmf_) {
    acc += e.prob;
    bound_.push_back(std::min(static_cast<std::uint64_t>(acc * kDraws),
                              UINT64_C(1) << 53));
  }
  bound_.back() = UINT64_C(1) << 53;  // cdf.back() = 1: no rounding drift
  // Guide table: guide_[j] = the first i with bound_[i] >= j << shift for
  // 2^(53 - shift) buckets, and guide_[buckets] = the last index, so the
  // answer for a draw m lies in [guide_[m >> shift], guide_[(m >> shift)
  // + 1]].
  std::size_t buckets = 1;
  guide_shift_ = 53;
  while (buckets < pmf_.size() && buckets < kMaxGuideBuckets) {
    buckets *= 2;
    --guide_shift_;
  }
  guide_.resize(buckets + 1);
  for (std::size_t j = 0; j < buckets; ++j) {
    guide_[j] = static_cast<std::uint32_t>(
        std::lower_bound(bound_.begin(), bound_.end(),
                         static_cast<std::uint64_t>(j) << guide_shift_) -
        bound_.begin());
  }
  guide_[buckets] = static_cast<std::uint32_t>(pmf_.size() - 1);
}

BoxSize BoxDistribution::min_size() const {
  CADAPT_CHECK(!pmf_.empty());
  return pmf_.front().size;
}

BoxSize BoxDistribution::max_size() const {
  CADAPT_CHECK(!pmf_.empty());
  return pmf_.back().size;
}

double BoxDistribution::mean() const {
  double m = 0.0;
  for (const auto& e : pmf_) m += static_cast<double>(e.size) * e.prob;
  return m;
}

double BoxDistribution::prob_ge(BoxSize s) const {
  double p = 0.0;
  for (const auto& e : pmf_)
    if (e.size >= s) p += e.prob;
  return p;
}

double BoxDistribution::mean_min(BoxSize n) const {
  double m = 0.0;
  for (const auto& e : pmf_)
    m += static_cast<double>(std::min(e.size, n)) * e.prob;
  return m;
}

double BoxDistribution::mean_min_pow(BoxSize n, double e) const {
  double m = 0.0;
  for (const auto& entry : pmf_) {
    const double x = static_cast<double>(std::min(entry.size, n));
    m += std::pow(x, e) * entry.prob;
  }
  return m;
}

PointMass::PointMass(BoxSize size) : size_(size) {
  set_pmf({{size, 1.0}});
}

std::string PointMass::name() const {
  std::ostringstream os;
  os << "point(" << size_ << ")";
  return os.str();
}

UniformPowers::UniformPowers(std::uint64_t b, unsigned kmin, unsigned kmax)
    : b_(b), kmin_(kmin), kmax_(kmax) {
  CADAPT_CHECK(b >= 2 && kmin <= kmax);
  std::vector<PmfEntry> entries;
  for (unsigned k = kmin; k <= kmax; ++k)
    entries.push_back({util::ipow(b, k), 1.0});
  set_pmf(std::move(entries));
}

std::string UniformPowers::name() const {
  std::ostringstream os;
  os << "uniform-powers(b=" << b_ << ", k=" << kmin_ << ".." << kmax_ << ")";
  return os.str();
}

GeometricPowers::GeometricPowers(std::uint64_t b, double weight, unsigned kmin,
                                 unsigned kmax)
    : b_(b), weight_(weight), kmin_(kmin), kmax_(kmax) {
  CADAPT_CHECK(b >= 2 && kmin <= kmax);
  CADAPT_CHECK(weight > 0.0);
  std::vector<PmfEntry> entries;
  double w = 1.0;
  for (unsigned k = kmin; k <= kmax; ++k) {
    entries.push_back({util::ipow(b, k), w});
    w /= weight;
  }
  set_pmf(std::move(entries));
}

std::string GeometricPowers::name() const {
  std::ostringstream os;
  os << "geometric-powers(b=" << b_ << ", w=" << weight_ << ", k=" << kmin_
     << ".." << kmax_ << ")";
  return os.str();
}

Bimodal::Bimodal(BoxSize small, BoxSize big, double p_big) {
  CADAPT_CHECK(small < big);
  CADAPT_CHECK(p_big > 0.0 && p_big < 1.0);
  set_pmf({{small, 1.0 - p_big}, {big, p_big}});
}

std::string Bimodal::name() const {
  const auto& p = pmf();
  std::ostringstream os;
  os << "bimodal(" << p.front().size << "|" << p.back().size
     << ", p_big=" << p.back().prob << ")";
  return os.str();
}

UniformRange::UniformRange(BoxSize lo, BoxSize hi) : lo_(lo), hi_(hi) {
  CADAPT_CHECK(lo >= 1 && lo <= hi);
  CADAPT_CHECK_MSG(hi - lo < (1u << 22), "UniformRange support too large");
  std::vector<PmfEntry> entries;
  entries.reserve(static_cast<std::size_t>(hi - lo + 1));
  for (BoxSize s = lo; s <= hi; ++s) entries.push_back({s, 1.0});
  set_pmf(std::move(entries));
}

std::string UniformRange::name() const {
  std::ostringstream os;
  os << "uniform-range[" << lo_ << "," << hi_ << "]";
  return os.str();
}

Empirical::Empirical(const std::vector<BoxSize>& boxes) {
  CADAPT_CHECK(!boxes.empty());
  std::map<BoxSize, std::uint64_t> counts;
  for (BoxSize s : boxes) ++counts[s];
  std::vector<PmfEntry> entries;
  entries.reserve(counts.size());
  for (const auto& [size, count] : counts)
    entries.push_back({size, static_cast<double>(count)});
  set_pmf(std::move(entries));
}

std::string Empirical::name() const {
  std::ostringstream os;
  os << "empirical(" << pmf().size() << " sizes)";
  return os.str();
}

}  // namespace cadapt::profile
