#include "core/experiments.hpp"

#include <algorithm>

#include "engine/exec.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace cadapt::core {

std::uint64_t measure_box_potential(const model::RegularParams& params,
                                    std::uint64_t n, std::uint64_t s,
                                    std::uint64_t samples, std::uint64_t seed) {
  CADAPT_CHECK(s >= 1);
  std::uint64_t best = 0;
  util::Rng rng(seed);
  const std::uint64_t total_units = [&] {
    engine::RegularExecution probe(params, n);
    return probe.total_units();
  }();
  for (std::uint64_t trial = 0; trial <= samples; ++trial) {
    engine::RegularExecution exec(params, n);
    if (trial > 0) {
      // Advance to a random position with a random mix of small boxes
      // (each advances at least one unit, so every walk terminates).
      const std::uint64_t skip = rng.below(total_units);
      while (!exec.done() && exec.units_done() < skip)
        exec.consume_box(1 + rng.below(1 + skip - exec.units_done()));
    }
    if (exec.done()) continue;
    best = std::max(best, exec.consume_box(s).progress);
  }
  return best;
}

std::uint64_t count_completions(const model::RegularParams& params,
                                std::uint64_t n, profile::BoxSource& source,
                                std::uint64_t max_runs) {
  std::uint64_t completed = 0;
  while (completed < max_runs) {
    engine::RegularExecution exec(params, n);
    while (!exec.done()) {
      const auto box = source.next();
      if (!box) return completed;  // profile exhausted mid-run
      exec.consume_box(*box);
    }
    ++completed;
  }
  return completed;
}

std::uint64_t no_catchup_violations(const model::RegularParams& params,
                                    std::uint64_t n, std::uint64_t trials,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::uint64_t violations = 0;
  for (std::uint64_t t = 0; t < trials; ++t) {
    engine::RegularExecution ahead(params, n);
    engine::RegularExecution behind(params, n);
    // Put `ahead` strictly in front by feeding it a random warm-up.
    const std::uint64_t warmup = 1 + rng.below(8);
    for (std::uint64_t i = 0; i < warmup && !ahead.done(); ++i)
      ahead.consume_box(1 + rng.below(n));
    // Now feed both the same random suffix; `behind` must never overtake.
    for (std::uint64_t step = 0; step < 64; ++step) {
      if (ahead.done() && behind.done()) break;
      const std::uint64_t s = 1 + rng.below(n);
      if (!ahead.done()) ahead.consume_box(s);
      if (!behind.done()) behind.consume_box(s);
      if (behind.units_done() > ahead.units_done()) {
        ++violations;
        break;
      }
    }
  }
  return violations;
}

}  // namespace cadapt::core
