// Shared helper for the ratio-grid property tests
// (tests/test_core_experiments.cpp, tests/test_core_report.cpp,
// tests/test_cross_properties.cpp): run an inline campaign manifest
// through campaign::run_sweep — the path `cadapt sweep` takes on the
// committed bench/manifests/ — and read it back as ratio-vs-n series.
#pragma once

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/plan.hpp"
#include "campaign/sweep.hpp"
#include "stats/fit.hpp"
#include "util/check.hpp"

namespace cadapt {

/// One (algo, profile) series of a ratio report, in k order.
using RatioSeries = std::vector<campaign::CellResult>;

/// Parse `manifest_text`, sweep the whole grid deterministically, and
/// group the report's cells by (algo, profile).
inline std::map<std::pair<std::string, std::string>, RatioSeries>
sweep_series(const std::string& manifest_text) {
  std::istringstream is(manifest_text);
  campaign::SweepOptions options;
  options.jobs = 2;
  options.timing = false;
  const campaign::Report report = campaign::run_sweep(
      campaign::expand_plan(campaign::parse_manifest(is)), options);
  std::map<std::pair<std::string, std::string>, RatioSeries> out;
  for (const campaign::CellResult& cell : report.cells) {
    out[{cell.algo, cell.profile}].push_back(cell);
  }
  return out;
}

/// The only series of a one-algo, one-profile manifest.
inline RatioSeries sweep_one(const std::string& manifest_text) {
  auto series = sweep_series(manifest_text);
  CADAPT_CHECK(series.size() == 1);
  return series.begin()->second;
}

/// OLS slope of the per-k means against k = log_b n: slope 1 is the full
/// Θ(log n) gap, slope ≈ 0 a cache-adaptive series.
inline double slope_vs_log_n(const RatioSeries& series) {
  std::vector<double> ks, means;
  for (const campaign::CellResult& cell : series) {
    ks.push_back(cell.k);
    means.push_back(cell.mean);
  }
  return stats::fit_linear(ks, means).slope;
}

}  // namespace cadapt
