// Quickstart: the 60-second tour of the cadapt library.
//
// 1. Describe an (a,b,c)-regular algorithm (MM-Scan is (8,4,1)).
// 2. Run it symbolically on the adversarial profile M_{8,4}(n): the
//    adaptivity ratio grows like log n (Theorem 2's gap).
// 3. Re-run it on an i.i.d. reshuffle of the same boxes: the ratio is
//    O(1) (Theorem 1, the paper's main result).
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart
#include <iostream>
#include <memory>

#include "core/cadapt.hpp"

int main() {
  using namespace cadapt;

  // MM-Scan: divide-and-conquer matrix multiply with a trailing merge
  // scan. T(N) = 8 T(N/4) + Θ(N/B)  =>  (8,4,1)-regular.
  const model::RegularParams mm_scan{8, 4, 1.0};
  const std::uint64_t n = 4096;  // problem size in blocks (a power of b)

  std::cout << "Algorithm: " << mm_scan.name()
            << "  (in the worst-case gap regime: " << std::boolalpha
            << mm_scan.in_gap_regime() << ")\n";
  std::cout << "Problem size: " << n << " blocks => "
            << mm_scan.leaves(n) << " base cases\n\n";

  // --- The adversarial profile (Figure 1) ---
  {
    profile::WorstCaseSource adversary(mm_scan.a, mm_scan.b, n);
    const engine::RunResult r = engine::run_regular(mm_scan, n, adversary);
    std::cout << "On the adversarial profile M_{8,4}(" << n << "):\n"
              << "  boxes used:       " << r.boxes << "\n"
              << "  adaptivity ratio: " << r.ratio
              << "   <- Θ(log_b n): the paper's logarithmic gap\n\n";
  }

  // --- The same boxes, i.i.d. reshuffled (Theorem 1) ---
  {
    // The box census of M_{a,b}(n) is geometric over powers of b.
    const auto census = std::make_shared<profile::GeometricPowers>(
        mm_scan.b, static_cast<double>(mm_scan.a), 0, util::ilog(n, mm_scan.b));
    engine::McOptions opts;
    opts.trials = 64;
    const engine::McSummary s = campaign::run_cell_trials(
        opts, engine::make_regular_trial_runner(
                  mm_scan, n, core::iid_source(census), opts));
    std::cout << "On i.i.d. boxes from the same census (64 trials):\n"
              << "  E[boxes]:         " << s.boxes.mean() << "\n"
              << "  adaptivity ratio: " << s.ratio.mean() << " +/- "
              << s.ratio.ci95()
              << "   <- O(1): cache-adaptive in expectation\n\n";

    // Cross-check the simulation against the exact Lemma 3 recurrence.
    engine::AnalyticSolver solver(mm_scan, *census);
    std::cout << "Lemma 3 analytic E[boxes]: " << solver.solve(n).back().f
              << "\n";
  }
  return 0;
}
