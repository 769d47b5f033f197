// Reusable trial workloads: every random-profile experiment in this repo
// is "run an (a,b,c)-regular execution against boxes from X", and each
// builder here packages one X as a self-contained engine trial factory.
//
// The campaign sweep runner (campaign/cell_runner.cpp) builds every
// ratio cell from these, so a manifest profile token names exactly one
// function below; the traced benchmark harness reuses them.
//
// Every builder copies or owns what it captures; the returned functor has
// no dangling references and may outlive all arguments.
#pragma once

#include <cstdint>
#include <memory>

#include "engine/montecarlo.hpp"
#include "model/regular.hpp"
#include "profile/distributions.hpp"
#include "profile/transforms.hpp"

namespace cadapt::core {

/// E2's workload: the algorithm's own deterministic adversarial profile
/// M_{a,b}(n), cycled so an execution that outlives one pass (c < 1
/// under optimistic semantics, a <= b) still completes.
engine::TrialSourceFactory worst_profile_source(model::RegularParams params,
                                                std::uint64_t n);

/// E3's workload (Theorem 1): i.i.d. boxes from `dist`. The factory
/// shares ownership of the distribution.
engine::TrialSourceFactory iid_source(
    std::shared_ptr<const profile::BoxDistribution> dist);

/// The box-size census of M_{a,b}(n) as a distribution (n a power of b).
std::shared_ptr<const profile::BoxDistribution> census_distribution(
    model::RegularParams params, std::uint64_t n);

/// E3's headline instance: i.i.d. boxes from the box-size census of
/// M_{a,b}(n) itself — the random reshuffle of the adversarial profile.
engine::TrialSourceFactory shuffled_census_source(model::RegularParams params,
                                                  std::uint64_t n);

/// E5's workload (negative): M_{a,b}(n) with every box size multiplied by
/// an i.i.d. factor from `sampler` (the paper's P over [0,t]); the
/// profile repeats cyclically with fresh perturbations each cycle.
engine::TrialSourceFactory size_perturb_source(model::RegularParams params,
                                               std::uint64_t n,
                                               profile::PerturbSampler sampler);

/// E6's workload (negative): cyclic shift of M_{a,b}(n) by a uniformly
/// random box offset, repeated forever.
engine::TrialSourceFactory cyclic_shift_source(model::RegularParams params,
                                               std::uint64_t n);

/// E7's trial body (negative): order-perturbed recursive construction.
/// Profile and execution are coupled through the trial seed, so this is a
/// full trial runner rather than a source factory; with matched = true the
/// algorithm's scan placement mirrors the perturbation
/// (ScanPlacement::kAdversaryMatched).
engine::RobustTrialRunner order_perturb_runner(
    model::RegularParams params, std::uint64_t n, bool matched,
    engine::BoxSemantics semantics);

/// E18's trial body (beyond the paper): the profile is the FIXED
/// adversarial M_{a,b}(n); the trial seed randomizes the ALGORITHM's
/// per-node scan placement instead.
engine::RobustTrialRunner randomized_scan_runner(
    model::RegularParams params, std::uint64_t n,
    engine::BoxSemantics semantics);

}  // namespace cadapt::core
