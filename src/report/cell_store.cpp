#include "report/cell_store.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <utility>

#include "campaign/provenance.hpp"
#include "obs/event.hpp"
#include "stats/fit.hpp"
#include "util/check.hpp"

namespace cadapt::report {

std::uint32_t StringDict::intern(std::string_view token) {
  const auto it = index_.find(token);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(tokens_.size());
  CADAPT_CHECK_MSG(id != npos, "string dictionary overflow");
  tokens_.emplace_back(token);
  index_.emplace(tokens_.back(), id);
  return id;
}

std::uint32_t StringDict::find(std::string_view token) const {
  const auto it = index_.find(token);
  return it == index_.end() ? npos : it->second;
}

void CellStore::reserve(std::size_t cells, std::size_t sample_capacity) {
  index.reserve(cells);
  algo_id.reserve(cells);
  profile_id.reserve(cells);
  sort_id.reserve(cells);
  policy_id.reserve(cells);
  k.reserve(cells);
  n.reserve(cells);
  trials.reserve(cells);
  completed.reserve(cells);
  incomplete.reserve(cells);
  capped.reserve(cells);
  failed.reserve(cells);
  mean.reserve(cells);
  ci_lo.reserve(cells);
  ci_hi.reserve(cells);
  q50.reserve(cells);
  q90.reserve(cells);
  q95.reserve(cells);
  boxes_mean.reserve(cells);
  wall_ns.reserve(cells);
  samples_offset.reserve(cells);
  samples.reserve(sample_capacity);
}

void CellStore::append(const campaign::CellResult& cell) {
  if (cell.samples.size() != cell.completed) {
    throw util::ParseError(
        "columnar store: cell " + std::to_string(cell.index) + " carries " +
        std::to_string(cell.samples.size()) + " samples but claims " +
        std::to_string(cell.completed) + " completed trials");
  }
  index.push_back(cell.index);
  algo_id.push_back(algo_dict.intern(cell.algo));
  profile_id.push_back(profile_dict.intern(cell.profile));
  sort_id.push_back(sort_dict.intern(cell.sort));
  policy_id.push_back(policy_dict.intern(cell.policy));
  k.push_back(cell.k);
  n.push_back(cell.n);
  trials.push_back(cell.trials);
  completed.push_back(cell.completed);
  incomplete.push_back(cell.incomplete);
  capped.push_back(cell.capped);
  failed.push_back(cell.failed);
  mean.push_back(cell.mean);
  ci_lo.push_back(cell.ci_lo);
  ci_hi.push_back(cell.ci_hi);
  q50.push_back(cell.q50);
  q90.push_back(cell.q90);
  q95.push_back(cell.q95);
  boxes_mean.push_back(cell.boxes_mean);
  wall_ns.push_back(cell.wall_ns);
  samples_offset.push_back(samples.size());
  samples.insert(samples.end(), cell.samples.begin(), cell.samples.end());
}

void CellStore::cell(std::size_t row, campaign::CellResult& out) const {
  out.index = index[row];
  out.algo = algo_dict.token(algo_id[row]);
  out.profile = profile_dict.token(profile_id[row]);
  out.sort = sort_dict.token(sort_id[row]);
  out.policy = policy_dict.token(policy_id[row]);
  out.k = k[row];
  out.n = n[row];
  out.trials = trials[row];
  out.completed = completed[row];
  out.incomplete = incomplete[row];
  out.capped = capped[row];
  out.failed = failed[row];
  out.mean = mean[row];
  out.ci_lo = ci_lo[row];
  out.ci_hi = ci_hi[row];
  out.q50 = q50[row];
  out.q90 = q90[row];
  out.q95 = q95[row];
  out.boxes_mean = boxes_mean[row];
  out.wall_ns = wall_ns[row];
  const auto begin = samples.begin() +
                     static_cast<std::ptrdiff_t>(samples_offset[row]);
  out.samples.assign(begin, begin + static_cast<std::ptrdiff_t>(completed[row]));
}

campaign::CellResult CellStore::cell(std::size_t row) const {
  campaign::CellResult out;
  cell(row, out);
  return out;
}

campaign::Report CellStore::header() const {
  campaign::Report report;
  report.version = version;
  report.name = name;
  report.config_hash = config_hash;
  report.cells_total = cells_total;
  report.shards = shards;
  report.shard_index = shard_index;
  report.truncated = truncated;
  report.truncate_reason = truncate_reason;
  report.wall_ms = wall_ms;
  report.env = env;
  return report;
}

CellStore CellStore::from_report(const campaign::Report& report) {
  CellStore store;
  store.version = report.version;
  store.name = report.name;
  store.config_hash = report.config_hash;
  store.cells_total = report.cells_total;
  store.shards = report.shards;
  store.shard_index = report.shard_index;
  store.truncated = report.truncated;
  store.truncate_reason = report.truncate_reason;
  store.wall_ms = report.wall_ms;
  store.env = report.env;

  std::size_t sample_total = 0;
  for (const campaign::CellResult& cell : report.cells) {
    sample_total += cell.samples.size();
  }
  store.reserve(report.cells.size(), sample_total);
  for (const campaign::CellResult& cell : report.cells) store.append(cell);

  store.fits.reserve(report.fits.size());
  for (const campaign::FitResult& fit : report.fits) {
    FitRow row;
    row.algo_id = store.algo_dict.intern(fit.algo);
    row.profile_id = store.profile_dict.intern(fit.profile);
    row.exponent = fit.exponent;
    row.scale = fit.scale;
    row.r2 = fit.r2;
    row.expected = fit.expected;
    store.fits.push_back(row);
  }
  return store;
}

campaign::Report CellStore::to_report() const {
  campaign::Report report = header();
  report.cells.resize(cell_count());
  for (std::size_t row = 0; row < cell_count(); ++row) {
    cell(row, report.cells[row]);
  }
  report.fits.reserve(fits.size());
  for (const FitRow& row : fits) {
    campaign::FitResult fit;
    fit.algo = algo_dict.token(row.algo_id);
    fit.profile = profile_dict.token(row.profile_id);
    fit.exponent = row.exponent;
    fit.scale = row.scale;
    fit.r2 = row.r2;
    fit.expected = row.expected;
    report.fits.push_back(std::move(fit));
  }
  return report;
}

void CellStore::recompute_fits() {
  // The columnar twin of campaign::compute_fits: group ratio cells
  // (non-empty algo, empty sort) by (algo, profile) in first-appearance
  // order. Dictionary ids are bijective with tokens inside one store, so
  // grouping by id pair IS grouping by string pair.
  std::vector<char> algo_nonempty(algo_dict.size());
  for (std::size_t id = 0; id < algo_dict.size(); ++id) {
    algo_nonempty[id] =
        !algo_dict.token(static_cast<std::uint32_t>(id)).empty();
  }
  std::vector<char> sort_empty(sort_dict.size());
  for (std::size_t id = 0; id < sort_dict.size(); ++id) {
    sort_empty[id] =
        sort_dict.token(static_cast<std::uint32_t>(id)).empty();
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::size_t>>
      series;
  for (std::size_t row = 0; row < cell_count(); ++row) {
    if (algo_nonempty[algo_id[row]] == 0 || sort_empty[sort_id[row]] == 0) {
      continue;
    }
    const auto key = std::make_pair(algo_id[row], profile_id[row]);
    auto [it, inserted] = series.try_emplace(key);
    if (inserted) order.push_back(key);
    it->second.push_back(row);
  }

  fits.clear();
  for (const auto& key : order) {
    const std::vector<std::size_t>& rows = series.at(key);
    std::vector<std::uint64_t> ns;
    std::vector<double> means;
    bool usable = true;
    for (const std::size_t row : rows) {
      if (completed[row] == 0) {
        usable = false;
        break;
      }
      ns.push_back(n[row]);
      means.push_back(mean[row]);
    }
    std::vector<std::uint64_t> distinct = ns;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    if (!usable || distinct.size() < 2) continue;
    const stats::ExponentFit fit = stats::fit_power_law(ns, means);
    FitRow out;
    out.algo_id = key.first;
    out.profile_id = key.second;
    out.exponent = fit.exponent;
    out.scale = fit.scale;
    out.r2 = fit.r2;
    out.expected =
        campaign::algo_expected_exponent(algo_dict.token(key.first));
    fits.push_back(out);
  }
}

void CellStore::export_report(
    const std::function<void(std::string_view)>& sink) const {
  std::string buf;
  const auto emit = [&](const obs::Event& event) {
    obs::to_jsonl(event, buf);
    buf += '\n';
    sink(buf);
  };
  emit(campaign::report_header_event(header()));
  emit(campaign::provenance_event(env));
  campaign::CellResult scratch;
  for (std::size_t row = 0; row < cell_count(); ++row) {
    cell(row, scratch);
    buf.clear();
    campaign::append_cell_jsonl(buf, scratch);
    buf += '\n';
    sink(buf);
  }
  campaign::FitResult fit;
  for (const FitRow& row : fits) {
    fit.algo = algo_dict.token(row.algo_id);
    fit.profile = profile_dict.token(row.profile_id);
    fit.exponent = row.exponent;
    fit.scale = row.scale;
    fit.r2 = row.r2;
    fit.expected = row.expected;
    emit(campaign::report_fit_event(fit));
  }
}

void CellStore::export_report_stream(std::ostream& os) const {
  export_report([&os](std::string_view line) {
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
  });
}

void CellStore::export_report_file(const std::string& path,
                                   robust::IoBackend& io) const {
  robust::AtomicFileWriter out(path, io);
  export_report([&out](std::string_view line) { out.write(line); });
  out.commit();
}

CellStore CellStore::merge(std::vector<CellStore> parts) {
  if (parts.empty()) {
    throw util::ParseError("sweep merge: no input reports");
  }
  CellStore merged;
  {
    const CellStore& first = parts.front();
    merged.version = first.version;
    merged.name = first.name;
    merged.config_hash = first.config_hash;
    merged.cells_total = first.cells_total;
    merged.env = first.env;
  }

  std::size_t row_total = 0;
  std::size_t sample_total = 0;
  for (const CellStore& part : parts) {
    if (part.name != merged.name || part.config_hash != merged.config_hash ||
        part.cells_total != merged.cells_total ||
        part.version != merged.version) {
      throw util::ParseError(
          "sweep merge: report '" + part.name +
          "' belongs to a different campaign (name/config_hash/"
          "cells_total mismatch)");
    }
    merged.truncated = merged.truncated || part.truncated;
    if (merged.truncate_reason == robust::CancelReason::kNone) {
      merged.truncate_reason = part.truncate_reason;
    }
    merged.wall_ms += part.wall_ms;
    row_total += part.cell_count();
    sample_total += part.samples.size();
  }

  // Global ascending-index order over all shard rows; shards interleave
  // (round-robin planning), so a sort — not a concatenation — restores
  // the Report contract.
  struct Ref {
    std::uint64_t cell_index;
    std::uint32_t part;
    std::uint32_t row;
  };
  const auto by_index = [](const Ref& a, const Ref& b) {
    return a.cell_index < b.cell_index;
  };
  bool parts_sorted = true;
  for (const CellStore& part : parts) {
    parts_sorted = parts_sorted &&
                   std::is_sorted(part.index.begin(), part.index.end());
  }
  std::vector<Ref> refs;
  refs.reserve(row_total);
  if (parts_sorted) {
    // Each shard is already in ascending index order (the store
    // contract), so a cascade of linear merges beats re-sorting the
    // whole row set.
    std::vector<Ref> incoming, merged_refs;
    merged_refs.reserve(row_total);
    for (std::uint32_t p = 0; p < parts.size(); ++p) {
      incoming.clear();
      incoming.reserve(parts[p].cell_count());
      for (std::uint32_t r = 0; r < parts[p].cell_count(); ++r) {
        incoming.push_back({parts[p].index[r], p, r});
      }
      merged_refs.clear();
      std::merge(refs.begin(), refs.end(), incoming.begin(),
                 incoming.end(), std::back_inserter(merged_refs), by_index);
      refs.swap(merged_refs);
    }
  } else {
    for (std::uint32_t p = 0; p < parts.size(); ++p) {
      for (std::uint32_t r = 0; r < parts[p].cell_count(); ++r) {
        refs.push_back({parts[p].index[r], p, r});
      }
    }
    std::sort(refs.begin(), refs.end(), by_index);
  }
  for (std::size_t i = 1; i < refs.size(); ++i) {
    if (refs[i].cell_index == refs[i - 1].cell_index) {
      throw util::ParseError("sweep merge: cell " +
                             std::to_string(refs[i].cell_index) +
                             " appears in more than one report");
    }
  }
  // Sorted, so the last ref holds the largest index.
  if (!refs.empty()) {
    campaign::check_cell_in_grid(refs.back().cell_index, merged.cells_total);
  }
  if (refs.size() != merged.cells_total) {
    throw util::ParseError(
        "sweep merge: " + std::to_string(refs.size()) + " cells of " +
        std::to_string(merged.cells_total) +
        " — the shard set does not cover the grid");
  }

  // Per-part dictionary remap tables: part-local id -> merged id.
  struct Remap {
    std::vector<std::uint32_t> algo, profile, sort, policy;
  };
  std::vector<Remap> remaps(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const CellStore& part = parts[p];
    Remap& remap = remaps[p];
    const auto build = [](const StringDict& from, StringDict& into,
                          std::vector<std::uint32_t>& table) {
      table.reserve(from.size());
      for (const std::string& token : from.tokens()) {
        table.push_back(into.intern(token));
      }
    };
    build(part.algo_dict, merged.algo_dict, remap.algo);
    build(part.profile_dict, merged.profile_dict, remap.profile);
    build(part.sort_dict, merged.sort_dict, remap.sort);
    build(part.policy_dict, merged.policy_dict, remap.policy);
  }

  // Column-at-a-time gather: one tight pass per column instead of 21
  // push_backs per row. Sorted refs walk each part's rows in ascending
  // order (round-robin sharding), so every pass streams its sources.
  const std::size_t rows = refs.size();
  const auto gather = [&](auto member) {
    auto& out = merged.*member;
    out.resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      out[i] = (parts[refs[i].part].*member)[refs[i].row];
    }
  };
  const auto gather_remapped = [&](auto member, auto table) {
    auto& out = merged.*member;
    out.resize(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      out[i] = (remaps[refs[i].part].*table)[(
          parts[refs[i].part].*member)[refs[i].row]];
    }
  };
  gather(&CellStore::index);
  gather_remapped(&CellStore::algo_id, &Remap::algo);
  gather_remapped(&CellStore::profile_id, &Remap::profile);
  gather_remapped(&CellStore::sort_id, &Remap::sort);
  gather_remapped(&CellStore::policy_id, &Remap::policy);
  gather(&CellStore::k);
  gather(&CellStore::n);
  gather(&CellStore::trials);
  gather(&CellStore::completed);
  gather(&CellStore::incomplete);
  gather(&CellStore::capped);
  gather(&CellStore::failed);
  gather(&CellStore::mean);
  gather(&CellStore::ci_lo);
  gather(&CellStore::ci_hi);
  gather(&CellStore::q50);
  gather(&CellStore::q90);
  gather(&CellStore::q95);
  gather(&CellStore::boxes_mean);
  gather(&CellStore::wall_ns);

  merged.samples_offset.resize(rows);
  merged.samples.resize(sample_total);
  std::size_t at = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const CellStore& part = parts[refs[i].part];
    const std::size_t r = refs[i].row;
    const std::uint64_t offset = part.samples_offset[r];
    const std::uint64_t count = part.completed[r];
    if (offset > part.samples.size() ||
        count > part.samples.size() - offset || count > sample_total - at) {
      throw util::ParseError(
          "sweep merge: cell " + std::to_string(refs[i].cell_index) +
          "'s samples run falls outside its shard's arena");
    }
    merged.samples_offset[i] = at;
    if (count != 0) {
      std::memcpy(merged.samples.data() + at, part.samples.data() + offset,
                  count * sizeof(double));
      at += count;
    }
  }
  merged.samples.resize(at);

  merged.recompute_fits();
  return merged;
}

}  // namespace cadapt::report
