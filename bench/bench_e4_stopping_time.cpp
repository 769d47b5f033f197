// E4 — Lemma 3: the stopping-time recurrence.
//
// Evaluates the exact Lemma 3 recurrence for f(n) (expected boxes to
// complete a problem of size n) and compares it against Monte-Carlo
// simulation of the actual execution. Also reports the per-level
// quantities the proof manipulates: f'(n), the early-completion
// probability p, the scan renewal cost K(n), m_n, the
// adaptivity-in-expectation ratio f(n)·m_n / n^{log_b a} (Equation 3) and
// the Equation 8 correction product Π f/f'.
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "campaign/sweep.hpp"
#include "core/workloads.hpp"
#include "engine/analytic.hpp"
#include "engine/montecarlo.hpp"
#include "profile/distributions.hpp"
#include "util/math.hpp"

int main() {
  using namespace cadapt;
  bench::print_header(
      "E4 (Lemma 3)",
      "Exact stopping-time recurrence vs Monte-Carlo simulation.");

  const model::RegularParams params{8, 4, 1.0};
  const unsigned kmax = 6;
  const std::uint64_t n_max = util::ipow(4, kmax);

  const std::vector<std::shared_ptr<const profile::BoxDistribution>> dists = {
      std::make_shared<profile::GeometricPowers>(4, 8.0, 0, kmax),
      std::make_shared<profile::UniformPowers>(4, 0, 4),
      std::make_shared<profile::Bimodal>(2, 1024, 0.03),
      std::make_shared<profile::UniformRange>(1, 64),
  };

  for (const auto& dist : dists) {
    std::cout << "\n--- Σ = " << dist->name() << " ---\n";
    engine::AnalyticSolver solver(params, *dist);
    const auto levels = solver.solve(n_max);

    util::Table table({"n", "f(n) analytic", "f(n) MC", "rel.err", "f'(n)",
                       "p", "K(n)", "m_n", "ratio (Eq.3)"});
    double correction_product = 1.0;
    for (const auto& lvl : levels) {
      engine::McOptions mc;
      mc.trials = 3000;
      mc.seed = 4242 + lvl.n;
      const engine::McSummary sim = campaign::run_cell_trials(
          mc, engine::make_regular_trial_runner(params, lvl.n,
                                                core::iid_source(dist), mc));
      const double mc_f = sim.boxes.mean();
      const double rel =
          lvl.f > 0 ? std::abs(mc_f - lvl.f) / lvl.f : 0.0;
      table.row()
          .cell(lvl.n)
          .cell(lvl.f, 3)
          .cell(mc_f, 3)
          .cell(rel, 4)
          .cell(lvl.f_prime, 3)
          .cell(lvl.p, 4)
          .cell(lvl.scan_boxes, 3)
          .cell(lvl.m_n, 2)
          .cell(lvl.ratio, 3);
      correction_product *= lvl.correction;
    }
    table.print(std::cout);
    std::cout << "Equation 8 correction product Π f/f' = "
              << util::format_double(correction_product, 4)
              << "   (paper: O(1))\n";
  }
  return 0;
}
