// Shared by the report loader tests: run one JSONL text through the row
// loader (campaign::load_report, then CellStore::from_report) and the
// columnar loader (report::load_store_jsonl), and compare the outcomes
// field by field — the two must agree on every input, errors included.
#pragma once

#include <cstddef>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "report/cell_store.hpp"
#include "report/jsonl_io.hpp"
#include "util/check.hpp"

namespace cadapt::test_support {

/// A loader's verdict: a store, or the ParseError it threw.
struct LoadOutcome {
  bool ok = false;
  std::string what;
  std::size_t line = 0;
  report::CellStore store;
};

template <typename Load>
LoadOutcome load_outcome(const std::string& text, Load&& load) {
  LoadOutcome out;
  std::istringstream is(text);
  try {
    out.store = load(is);
    out.ok = true;
  } catch (const util::ParseError& e) {
    out.what = e.what();
    out.line = e.line();
  }
  return out;
}

inline LoadOutcome load_rows(const std::string& text) {
  return load_outcome(text, [](std::istream& is) {
    return report::CellStore::from_report(campaign::load_report(is));
  });
}

inline LoadOutcome load_columns(const std::string& text) {
  return load_outcome(text, [](std::istream& is) {
    return report::load_store_jsonl(is);
  });
}

/// Empty if the stores are identical (doubles bit for bit, dictionaries
/// in the same id order), else the name of the first differing part.
inline std::string store_difference(const report::CellStore& a,
                                    const report::CellStore& b) {
  const auto same_bits = [](const std::vector<double>& x,
                            const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
#define CADAPT_SAME(field) \
  if (!(a.field == b.field)) return #field
#define CADAPT_SAME_BITS(field) \
  if (!same_bits(a.field, b.field)) return #field
  CADAPT_SAME(version);
  CADAPT_SAME(name);
  CADAPT_SAME(config_hash);
  CADAPT_SAME(cells_total);
  CADAPT_SAME(shards);
  CADAPT_SAME(shard_index);
  CADAPT_SAME(truncated);
  CADAPT_SAME(truncate_reason);
  CADAPT_SAME(wall_ms);
  CADAPT_SAME(env.version);
  CADAPT_SAME(env.git_hash);
  CADAPT_SAME(env.build_type);
  CADAPT_SAME(env.compiler);
  CADAPT_SAME(env.cxx_flags);
  CADAPT_SAME(algo_dict.tokens());
  CADAPT_SAME(profile_dict.tokens());
  CADAPT_SAME(sort_dict.tokens());
  CADAPT_SAME(policy_dict.tokens());
  CADAPT_SAME(index);
  CADAPT_SAME(algo_id);
  CADAPT_SAME(profile_id);
  CADAPT_SAME(sort_id);
  CADAPT_SAME(policy_id);
  CADAPT_SAME(k);
  CADAPT_SAME(n);
  CADAPT_SAME(trials);
  CADAPT_SAME(completed);
  CADAPT_SAME(incomplete);
  CADAPT_SAME(capped);
  CADAPT_SAME(failed);
  CADAPT_SAME_BITS(mean);
  CADAPT_SAME_BITS(ci_lo);
  CADAPT_SAME_BITS(ci_hi);
  CADAPT_SAME_BITS(q50);
  CADAPT_SAME_BITS(q90);
  CADAPT_SAME_BITS(q95);
  CADAPT_SAME_BITS(boxes_mean);
  CADAPT_SAME(wall_ns);
  CADAPT_SAME(samples_offset);
  CADAPT_SAME_BITS(samples);
#undef CADAPT_SAME
#undef CADAPT_SAME_BITS
  if (a.fits.size() != b.fits.size()) return "fits";
  for (std::size_t i = 0; i < a.fits.size(); ++i) {
    const report::FitRow& x = a.fits[i];
    const report::FitRow& y = b.fits[i];
    if (x.algo_id != y.algo_id || x.profile_id != y.profile_id ||
        !same_bits({x.exponent, x.scale, x.r2, x.expected},
                   {y.exponent, y.scale, y.r2, y.expected})) {
      return "fits";
    }
  }
  return "";
}

/// Empty if both loaders agree on `text`, else what differs.
inline std::string loader_disagreement(const std::string& text) {
  const LoadOutcome rows = load_rows(text);
  const LoadOutcome columns = load_columns(text);
  if (rows.ok != columns.ok) {
    return rows.ok ? "columnar loader threw: " + columns.what
                   : "row loader threw: " + rows.what;
  }
  if (!rows.ok) {
    if (rows.what != columns.what || rows.line != columns.line) {
      return "errors differ: row '" + rows.what + "' (line " +
             std::to_string(rows.line) + ") vs columnar '" + columns.what +
             "' (line " + std::to_string(columns.line) + ")";
    }
    return "";
  }
  const std::string diff = store_difference(rows.store, columns.store);
  return diff.empty() ? "" : "stores differ in " + diff;
}

}  // namespace cadapt::test_support
