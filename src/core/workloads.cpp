#include "core/workloads.hpp"

#include <utility>

#include "profile/worst_case.hpp"
#include "util/check.hpp"
#include "util/math.hpp"

namespace cadapt::core {

engine::TrialSourceFactory worst_profile_source(model::RegularParams params,
                                                std::uint64_t n) {
  const std::uint64_t a = params.a;
  const std::uint64_t b = params.b;
  return [a, b, n](util::Rng&) -> std::unique_ptr<profile::BoxSource> {
    // Cycle so that an execution outliving one pass still completes; a
    // (a,b,1) execution with a > b finishes within one pass.
    return std::make_unique<profile::CyclingSource>([a, b, n] {
      return std::make_unique<profile::WorstCaseSource>(a, b, n);
    });
  };
}

engine::TrialSourceFactory iid_source(
    std::shared_ptr<const profile::BoxDistribution> dist) {
  CADAPT_CHECK(dist != nullptr);
  return [dist = std::move(dist)](
             util::Rng& rng) -> std::unique_ptr<profile::BoxSource> {
    return std::make_unique<profile::DistributionSource>(*dist, rng.split());
  };
}

std::shared_ptr<const profile::BoxDistribution> census_distribution(
    model::RegularParams params, std::uint64_t n) {
  // The census of M_{a,b}(n) is geometric over powers of b with weight a:
  // GeometricPowers weights Pr[b^k] ∝ a^{-k} match the census count
  // a^{K-k} after normalization.
  const unsigned K = util::ilog(n, params.b);
  return std::make_shared<profile::GeometricPowers>(
      params.b, static_cast<double>(params.a), 0, K);
}

engine::TrialSourceFactory shuffled_census_source(model::RegularParams params,
                                                  std::uint64_t n) {
  // Sampling i.i.d. from the census is the random reshuffle of the
  // adversarial profile.
  return iid_source(census_distribution(params, n));
}

engine::TrialSourceFactory size_perturb_source(
    model::RegularParams params, std::uint64_t n,
    profile::PerturbSampler sampler) {
  CADAPT_CHECK(sampler != nullptr);
  return [params, n, sampler = std::move(sampler)](
             util::Rng& rng) -> std::unique_ptr<profile::BoxSource> {
    // Perturbation factors are drawn per box from `sampler`; the profile
    // repeats cyclically (with fresh perturbations each cycle) so the
    // execution always completes.
    util::Rng perturb_rng = rng.split();
    auto factory = [params, sampler, n, perturb_rng]() mutable
        -> std::unique_ptr<profile::BoxSource> {
      auto inner =
          std::make_unique<profile::WorstCaseSource>(params.a, params.b, n);
      return std::make_unique<profile::SizePerturbSource>(
          std::move(inner), sampler, perturb_rng.split());
    };
    return std::make_unique<profile::CyclingSource>(std::move(factory));
  };
}

engine::TrialSourceFactory cyclic_shift_source(model::RegularParams params,
                                               std::uint64_t n) {
  const std::uint64_t total =
      profile::worst_case_box_count(params.a, params.b, n);
  return [params, n,
          total](util::Rng& rng) -> std::unique_ptr<profile::BoxSource> {
    const std::uint64_t offset = rng.below(total);
    auto base_factory = [params, n]() {
      return std::make_unique<profile::WorstCaseSource>(params.a, params.b, n);
    };
    // One cyclic rotation, repeated forever.
    auto shifted_factory = [base_factory,
                            offset]() -> std::unique_ptr<profile::BoxSource> {
      return std::make_unique<profile::CyclicShiftSource>(base_factory, offset);
    };
    return std::make_unique<profile::CyclingSource>(shifted_factory);
  };
}

engine::TrialRunner order_perturb_runner(model::RegularParams params,
                                         std::uint64_t n, bool matched,
                                         engine::BoxSemantics semantics) {
  return [params, n, matched, semantics](std::uint64_t trial_seed) {
    // The same perturbed profile repeats each cycle (the factory captures
    // the trial seed by value), and — when matched — the execution places
    // its scans with the same seed.
    auto factory = [params, n,
                    trial_seed]() -> std::unique_ptr<profile::BoxSource> {
      return std::make_unique<profile::OrderPerturbedWorstCaseSource>(
          params.a, params.b, n, trial_seed);
    };
    profile::CyclingSource source(factory);
    return engine::run_regular(params, n, source,
                               matched
                                   ? engine::ScanPlacement::kAdversaryMatched
                                   : engine::ScanPlacement::kEnd,
                               UINT64_C(1) << 40, trial_seed, semantics);
  };
}

engine::TrialRunner randomized_scan_runner(model::RegularParams params,
                                           std::uint64_t n,
                                           engine::BoxSemantics semantics) {
  return [params, n, semantics](std::uint64_t trial_seed) {
    auto factory = [params, n]() -> std::unique_ptr<profile::BoxSource> {
      return std::make_unique<profile::WorstCaseSource>(params.a, params.b, n);
    };
    profile::CyclingSource source(factory);
    // trial_seed randomizes the ALGORITHM's scan placement; the profile
    // is the same deterministic adversary every trial.
    return engine::run_regular(params, n, source,
                               engine::ScanPlacement::kAdversaryMatched,
                               UINT64_C(1) << 40, trial_seed, semantics);
  };
}

}  // namespace cadapt::core
