// Lemma-level probes that are not ratio grids: a box's potential (E8),
// §3's completion count, and the No-Catch-up check (E10). The paper's
// ratio-vs-n grids are campaigns instead: a manifest under
// bench/manifests/ run by `cadapt sweep` or campaign::run_sweep
// (docs/SWEEPS.md).
#pragma once

#include <cstdint>

#include "model/regular.hpp"
#include "profile/box_source.hpp"

namespace cadapt::core {

/// E8 (Lemma 1): empirical potential of a box of size s against a problem
/// of size n: max progress observed over `samples` random placements plus
/// the aligned placement. Returns max progress (base cases).
std::uint64_t measure_box_potential(const model::RegularParams& params,
                                    std::uint64_t n, std::uint64_t s,
                                    std::uint64_t samples, std::uint64_t seed);

/// §3's progress comparison: run back-to-back fresh executions of the
/// algorithm on one pass of a finite profile and count how many complete
/// ("MM-Scan can perform exactly one multiply on this profile;
/// MM-Inplace can perform Ω(log n) multiplies"). Returns the number of
/// full executions completed before the profile ran out.
std::uint64_t count_completions(const model::RegularParams& params,
                                std::uint64_t n, profile::BoxSource& source,
                                std::uint64_t max_runs = 1u << 20);

/// E10 (Lemma 2): empirically validate the No-Catch-up Lemma. Runs
/// `trials` random experiments: two copies of an execution, one ahead of
/// the other, receive the same random box suffix; counts how often the
/// delayed copy finishes strictly earlier (must be 0).
std::uint64_t no_catchup_violations(const model::RegularParams& params,
                                    std::uint64_t n, std::uint64_t trials,
                                    std::uint64_t seed);

}  // namespace cadapt::core
