// Smoothing tour: the paper's four perturbations side by side.
//
// Starting from the adversarial profile M_{8,4}(n), apply:
//   1. full i.i.d. reshuffle of box sizes  -> adaptive  (Theorem 1)
//   2. per-box random size perturbation    -> still worst-case
//   3. random cyclic start-time shift      -> still worst-case
//   4. box-order perturbation              -> worst-case for the matched
//                                             algorithm (w.p. 1)
//
// Each grid is an inline campaign manifest run in-process by
// campaign::run_sweep — the same path as `cadapt sweep` on the files in
// bench/manifests/. Prints one ratio-vs-n table per profile plus the
// fitted slope against log_b n (slope 1 = the full gap, slope 0 =
// adaptive).
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cadapt.hpp"
#include "stats/fit.hpp"
#include "util/table.hpp"

namespace {

using namespace cadapt;

void show(const std::string& manifest_text) {
  std::istringstream is(manifest_text);
  const campaign::Plan plan = campaign::expand_plan(campaign::parse_manifest(is));
  const campaign::Report report = campaign::run_sweep(plan);
  for (const campaign::ProfileSpec& profile : plan.manifest.profiles) {
    std::cout << "\n" << profile.token << "\n";
    util::Table table({"n", "ratio", "95% CI"});
    std::vector<double> ks, means;
    for (const campaign::CellResult& cell : report.cells) {
      if (cell.profile != profile.token) continue;
      table.row().cell(cell.n).cell(cell.mean, 3).cell(
          "[" + util::format_double(cell.ci_lo, 3) + ", " +
          util::format_double(cell.ci_hi, 3) + "]");
      ks.push_back(cell.k);
      means.push_back(cell.mean);
    }
    table.print(std::cout);
    std::cout << "slope vs log_4 n: "
              << util::format_double(stats::fit_linear(ks, means).slope, 3)
              << "\n";
  }
}

}  // namespace

int main() {
  const std::string grid =
      "algos = 8:4:1\nk = 2..6\ntrials = 24\nseed = 42\n";

  std::cout << "worst: the unsmoothed adversary (slope 1).\n"
               "shuffled: full i.i.d. reshuffle — Theorem 1 (positive).\n"
               "perturb:4: per-box size perturbation X ~ U[0,4] "
               "(negative).\n"
               "shifted: random cyclic start-time shift (negative).\n";
  show("name = tour\nprofiles = worst shuffled perturb:4 shifted\n" + grid);

  std::cout << "\norder-matched: box-order perturbation, matched algorithm, "
               "budgeted semantics (negative, w.p. 1).\n";
  show("name = tour_order\nprofiles = order-matched\n"
       "semantics = budgeted\n" + grid);

  std::cout << "\nOnly the full i.i.d. reshuffle closes the gap — exactly "
               "the paper's message.\n";
  return 0;
}
