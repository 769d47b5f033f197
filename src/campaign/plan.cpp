#include "campaign/plan.hpp"

#include <set>
#include <utility>

#include "util/check.hpp"
#include "util/math.hpp"

namespace cadapt::campaign {

Plan expand_plan(const Manifest& manifest) {
  Plan plan;
  plan.manifest = manifest;
  plan.config_hash = manifest_hash(manifest);
  if (manifest.workload == Workload::kRatio) {
    for (const AlgoSpec& algo : manifest.algos) {
      for (const ProfileSpec& profile : manifest.profiles) {
        for (const unsigned k : manifest.ks) {
          // An @K-capped profile simply has no cells past its cap; the
          // remaining grid keeps its indices dense and stable.
          if (profile.kmax != 0 && k > profile.kmax) continue;
          Cell cell;
          cell.index = plan.cells.size();
          cell.algo = algo;
          cell.profile = profile;
          cell.k = k;
          cell.n = util::ipow(algo.params.b, k);
          cell.trials =
              profile.kind == ProfileKind::kWorst ? 1 : manifest.trials;
          cell.seed = manifest.seed + k;
          plan.cells.push_back(std::move(cell));
        }
      }
    }
  } else {
    // The policy axis is innermost; a manifest without one expands a
    // single unnamed policy so historical grids keep their exact cells
    // (indices, seeds, labels).
    const std::vector<std::string> policies =
        manifest.policies.empty() ? std::vector<std::string>{""}
                                  : manifest.policies;
    for (const std::string& sort : manifest.sorts) {
      // A trace_replay program sorts one input in every cell, its first
      // cell's: the cells then replay one block stream, captured once
      // per sweep (campaign::TraceCache).
      const std::uint64_t program_seed = manifest.seed + plan.cells.size();
      for (const ProfileSpec& profile : manifest.profiles) {
        for (const std::string& policy : policies) {
          Cell cell;
          cell.index = plan.cells.size();
          cell.sort = sort;
          cell.profile = profile;
          cell.policy = policy;
          cell.n = manifest.keys;
          cell.trials = manifest.trials;
          cell.seed = manifest.trace_replay ? program_seed
                                            : manifest.seed + cell.index;
          plan.cells.push_back(std::move(cell));
        }
      }
    }
  }
  CADAPT_CHECK(!plan.cells.empty());
  return plan;
}

std::vector<std::size_t> shard_cells(const Plan& plan, std::uint64_t shards,
                                     std::uint64_t shard_index) {
  if (shards == 0) throw util::UsageError("--shards must be >= 1");
  if (shard_index >= shards) {
    throw util::UsageError("--shard-index must be < --shards");
  }
  std::vector<std::size_t> mine;
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    if (i % shards == shard_index) mine.push_back(i);
  }
  return mine;
}

bool replays_trace(const Cell& cell, bool capture) {
  return capture && !cell.sort.empty() && cell.sort != "adaptive";
}

std::vector<std::size_t> capture_first(
    const Plan& plan, const std::vector<std::size_t>& pending) {
  std::set<std::pair<std::string, std::uint64_t>> seen;  // program, seed
  std::vector<std::size_t> order;
  std::vector<std::size_t> rest;
  order.reserve(pending.size());
  for (const std::size_t i : pending) {
    const Cell& cell = plan.cells[i];
    const bool captures = replays_trace(cell, plan.manifest.trace_replay) &&
                          seen.emplace(cell.sort, cell.seed).second;
    (captures ? order : rest).push_back(i);
  }
  order.insert(order.end(), rest.begin(), rest.end());
  return order;
}

}  // namespace cadapt::campaign
