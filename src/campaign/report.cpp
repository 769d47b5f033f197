#include "campaign/report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <utility>

#include "stats/bootstrap.hpp"
#include "stats/fit.hpp"
#include "stats/quantiles.hpp"
#include "stats/streaming.hpp"
#include "util/check.hpp"
#include "util/random.hpp"

namespace cadapt::campaign {

/// log_b a from an "a:b:c" token (0 when the token is malformed — fits
/// still carry the measured exponent).
double algo_expected_exponent(const std::string& algo_token) {
  std::uint64_t a = 0, b = 0;
  const char* p = algo_token.data();
  const char* end = p + algo_token.size();
  auto res = std::from_chars(p, end, a);
  if (res.ec != std::errc() || res.ptr == end || *res.ptr != ':') return 0;
  res = std::from_chars(res.ptr + 1, end, b);
  if (res.ec != std::errc() || a == 0 || b < 2) return 0;
  return std::log(static_cast<double>(a)) / std::log(static_cast<double>(b));
}

obs::Event report_header_event(const Report& report) {
  obs::Event event("sweep_report");
  event.u64("version", report.version)
      .str("name", report.name)
      .u64("config_hash", report.config_hash)
      .u64("cells_total", report.cells_total)
      .u64("shards", report.shards)
      .u64("shard_index", report.shard_index)
      .flag("truncated", report.truncated);
  // Emitted only for truncated reports with a known reason, so reports
  // written before the field existed stay byte-identical on regen.
  if (report.truncated &&
      report.truncate_reason != robust::CancelReason::kNone) {
    event.str("truncate_reason",
              robust::cancel_reason_name(report.truncate_reason));
  }
  event.u64("wall_ms", report.wall_ms);
  return event;
}

obs::Event report_fit_event(const FitResult& fit) {
  obs::Event event("sweep_fit");
  event.str("algo", fit.algo)
      .str("profile", fit.profile)
      .f64("exponent", fit.exponent)
      .f64("scale", fit.scale)
      .f64("r2", fit.r2)
      .f64("expected", fit.expected);
  return event;
}

FitResult fit_from_event(const obs::Event& event) {
  FitResult fit;
  fit.algo = event.str_or("algo", "");
  fit.profile = event.str_or("profile", "");
  fit.exponent = event.f64_or("exponent", 0);
  fit.scale = event.f64_or("scale", 0);
  fit.r2 = event.f64_or("r2", 0);
  fit.expected = event.f64_or("expected", 0);
  return fit;
}

Report report_header_from_event(const obs::Event& head, std::size_t line_no) {
  if (head.type != "sweep_report") {
    throw util::ParseError("sweep report: first line must be sweep_report",
                           line_no);
  }
  Report report;
  report.version = head.u64_or("version", 0);
  if (report.version != 1) {
    throw util::ParseError("sweep report: unsupported version " +
                               std::to_string(report.version),
                           line_no);
  }
  report.name = head.str_or("name", "");
  report.config_hash = head.u64_or("config_hash", 0);
  report.cells_total = head.u64_or("cells_total", 0);
  report.shards = head.u64_or("shards", 1);
  report.shard_index = head.u64_or("shard_index", 0);
  report.truncated = head.flag_or("truncated", false);
  if (const auto reason =
          robust::parse_cancel_reason(head.str_or("truncate_reason", "none"));
      reason.has_value()) {
    report.truncate_reason = *reason;
  }
  report.wall_ms = head.u64_or("wall_ms", 0);
  return report;
}

std::uint64_t cell_ci_seed(std::uint64_t config_hash,
                           std::uint64_t cell_index) {
  return util::hash_combine(config_hash, cell_index);
}

CellResult aggregate_cell(const Cell& cell,
                          const std::vector<robust::TrialRecord>& records,
                          std::uint64_t config_hash, bool unit_progress) {
  CellResult result;
  result.index = cell.index;
  result.algo = cell.algo.token;
  result.profile = cell.profile.token;
  result.sort = cell.sort;
  result.policy = cell.policy;
  result.k = cell.k;
  result.n = cell.n;
  result.trials = cell.trials;

  stats::Welford boxes;
  for (const robust::TrialRecord& record : records) {
    result.wall_ns += record.duration_ns;
    if (record.failed) {
      ++result.failed;
      continue;
    }
    boxes.add(static_cast<double>(record.boxes));
    if (!record.completed) {
      ++result.incomplete;
      if (record.capped) ++result.capped;
      continue;
    }
    ++result.completed;
    result.samples.push_back(unit_progress ? record.unit_ratio
                                           : record.ratio);
  }
  if (boxes.count() > 0) result.boxes_mean = boxes.mean();
  if (!result.samples.empty()) {
    const stats::BootstrapCi ci = stats::bootstrap_mean_ci(
        result.samples, {}, cell_ci_seed(config_hash, cell.index));
    result.mean = ci.point;
    result.ci_lo = ci.lo;
    result.ci_hi = ci.hi;
    result.q50 = stats::exact_quantile(result.samples, 0.50);
    result.q90 = stats::exact_quantile(result.samples, 0.90);
    result.q95 = stats::exact_quantile(result.samples, 0.95);
  }
  return result;
}

std::vector<FitResult> compute_fits(const Report& report) {
  // Group ratio cells by (algo, profile) in first-appearance order.
  std::vector<std::pair<std::string, std::string>> order;
  std::map<std::pair<std::string, std::string>,
           std::vector<const CellResult*>>
      series;
  for (const CellResult& cell : report.cells) {
    if (cell.algo.empty() || !cell.sort.empty()) continue;
    auto key = std::make_pair(cell.algo, cell.profile);
    auto [it, inserted] = series.try_emplace(key);
    if (inserted) order.push_back(key);
    it->second.push_back(&cell);
  }

  std::vector<FitResult> fits;
  for (const auto& key : order) {
    const auto& cells = series.at(key);
    std::vector<std::uint64_t> ns;
    std::vector<double> means;
    bool usable = true;
    for (const CellResult* cell : cells) {
      if (cell->completed == 0) {
        usable = false;
        break;
      }
      ns.push_back(cell->n);
      means.push_back(cell->mean);
    }
    // A fit needs two distinct sizes; a flat grid has no slope to measure.
    std::vector<std::uint64_t> distinct = ns;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    if (!usable || distinct.size() < 2) continue;
    const stats::ExponentFit fit = stats::fit_power_law(ns, means);
    FitResult out;
    out.algo = key.first;
    out.profile = key.second;
    out.exponent = fit.exponent;
    out.scale = fit.scale;
    out.r2 = fit.r2;
    out.expected = algo_expected_exponent(key.first);
    fits.push_back(std::move(out));
  }
  return fits;
}

namespace {

/// The sweep_cell field list, written once for every encoder: Sink is
/// obs::Event (cell_event) or obs::JsonlWriter (append_cell_jsonl), so
/// the Event route and the direct route emit the same bytes. Keep in
/// step with CellDecoder's key table.
template <typename Sink>
void put_cell_fields(Sink& sink, const CellResult& cell) {
  sink.u64("index", cell.index)
      .str("algo", cell.algo)
      .str("profile", cell.profile)
      .str("sort", cell.sort);
  // Emitted only when non-empty so policy-free reports stay
  // byte-identical to ones written before the axis existed.
  if (!cell.policy.empty()) sink.str("policy", cell.policy);
  sink.u64("k", cell.k)
      .u64("n", cell.n)
      .u64("trials", cell.trials)
      .u64("completed", cell.completed)
      .u64("incomplete", cell.incomplete)
      .u64("failed", cell.failed);
  // Emitted only when nonzero so cap-free reports stay byte-identical to
  // ones written before the field existed (the regen diff relies on it).
  if (cell.capped != 0) sink.u64("capped", cell.capped);
  sink.f64("mean", cell.mean)
      .f64("ci_lo", cell.ci_lo)
      .f64("ci_hi", cell.ci_hi)
      .f64("q50", cell.q50)
      .f64("q90", cell.q90)
      .f64("q95", cell.q95)
      .f64("boxes_mean", cell.boxes_mean)
      .u64("wall_ns", cell.wall_ns)
      .f64s("samples", cell.samples);
}

/// Decode order of the sweep_cell keys: the order put_cell_fields writes
/// them, so a well-formed line matches each key on the first compare.
enum CellKey : std::uint8_t {
  kIndex, kAlgo, kProfile, kSort, kPolicy, kK, kN, kTrials, kCompleted,
  kIncomplete, kFailed, kCapped, kMean, kCiLo, kCiHi, kQ50, kQ90, kQ95,
  kBoxesMean, kWallNs, kSamples, kCellKeyCount
};
constexpr std::string_view kCellKeyNames[kCellKeyCount] = {
    "index",   "algo",       "profile", "sort",    "policy",
    "k",       "n",          "trials",  "completed", "incomplete",
    "failed",  "capped",     "mean",    "ci_lo",   "ci_hi",
    "q50",     "q90",        "q95",     "boxes_mean", "wall_ns",
    "samples"};

}  // namespace

obs::Event cell_event(const CellResult& cell) {
  obs::Event event("sweep_cell");
  put_cell_fields(event, cell);
  return event;
}

void append_cell_jsonl(std::string& out, const CellResult& cell) {
  obs::JsonlWriter writer(out);
  writer.begin("sweep_cell");
  put_cell_fields(writer, cell);
  writer.end();
}

void CellDecoder::begin(CellResult& out, std::size_t line_no) {
  out.index = 0;
  out.algo.clear();
  out.profile.clear();
  out.sort.clear();
  out.policy.clear();
  out.k = 0;
  out.n = out.trials = out.completed = out.incomplete = out.capped =
      out.failed = 0;
  out.mean = out.ci_lo = out.ci_hi = out.q50 = out.q90 = out.q95 =
      out.boxes_mean = 0;
  out.wall_ns = 0;
  out.samples.clear();
  out_ = &out;
  line_no_ = line_no;
  seen_ = 0;
  next_ = 0;
  error_.clear();
}

void CellDecoder::field(std::string_view key, const obs::ScalarView& value) {
  // Look for the key where the canonical order expects it, then wrap
  // around the table; unknown keys are ignored.
  std::size_t at = next_;
  for (std::size_t tried = 0; kCellKeyNames[at] != key; ++tried) {
    if (tried + 1 == kCellKeyCount) return;
    at = at + 1 == kCellKeyCount ? 0 : at + 1;
  }
  next_ = at + 1 == kCellKeyCount ? 0 : at + 1;
  const std::uint32_t bit = std::uint32_t{1} << at;
  if ((seen_ & bit) != 0) return;  // the first occurrence wins
  seen_ |= bit;

  CellResult& c = *out_;
  switch (static_cast<CellKey>(at)) {
    case kIndex: c.index = value.u64_or(0); break;
    case kAlgo: c.algo = value.str_or(""); break;
    case kProfile: c.profile = value.str_or(""); break;
    case kSort: c.sort = value.str_or(""); break;
    case kPolicy: c.policy = value.str_or(""); break;
    case kK: {
      const std::uint64_t k = value.u64_or(0);
      if (k > std::numeric_limits<std::uint32_t>::max()) {
        fail("sweep report: k = " + std::to_string(k) +
             " exceeds the k column's limit of 2^32 - 1");
      }
      c.k = static_cast<unsigned>(k);
      break;
    }
    case kN: c.n = value.u64_or(0); break;
    case kTrials: c.trials = value.u64_or(0); break;
    case kCompleted: c.completed = value.u64_or(0); break;
    case kIncomplete: c.incomplete = value.u64_or(0); break;
    case kFailed: c.failed = value.u64_or(0); break;
    case kCapped: c.capped = value.u64_or(0); break;
    case kMean: c.mean = value.f64_or(0); break;
    case kCiLo: c.ci_lo = value.f64_or(0); break;
    case kCiHi: c.ci_hi = value.f64_or(0); break;
    case kQ50: c.q50 = value.f64_or(0); break;
    case kQ90: c.q90 = value.f64_or(0); break;
    case kQ95: c.q95 = value.f64_or(0); break;
    case kBoxesMean: c.boxes_mean = value.f64_or(0); break;
    case kWallNs: c.wall_ns = value.u64_or(0); break;
    case kSamples: {
      const std::string_view joined = value.str_or("");
      const char* p = joined.data();
      const char* end = p + joined.size();
      while (p < end) {
        if (*p == ' ') {
          ++p;
          continue;
        }
        double sample = 0;
        const auto res = std::from_chars(p, end, sample);
        if (res.ec != std::errc() || !std::isfinite(sample)) {
          fail("sweep report: malformed samples field");
          break;
        }
        c.samples.push_back(sample);
        p = res.ptr;
      }
      break;
    }
    case kCellKeyCount: break;
  }
}

void CellDecoder::fail(std::string message) {
  if (error_.empty()) error_ = std::move(message);
}

void CellDecoder::finish() {
  if (!error_.empty()) throw util::ParseError(error_, line_no_);
  const CellResult& c = *out_;
  if (c.samples.size() != c.completed) {
    throw util::ParseError("sweep report: cell " + std::to_string(c.index) +
                               " carries " + std::to_string(c.samples.size()) +
                               " samples but claims " +
                               std::to_string(c.completed) +
                               " completed trials",
                           line_no_);
  }
}

CellResult cell_from_event(const obs::Event& event, std::size_t line_no) {
  CellResult cell;
  CellDecoder decoder;
  decoder.begin(cell, line_no);
  for (const obs::Field& field : event.fields) {
    decoder.field(field.key, obs::view_of(field.value));
  }
  decoder.finish();
  return cell;
}

namespace {

/// Render every report line into `sink` (newline included), reusing one
/// encode buffer across lines. Both writers below share this, so the
/// streamed file commit is byte-identical to the ostream path.
template <typename Sink>
void render_report(const Report& report, Sink&& sink) {
  std::string buf;
  const auto emit = [&](const obs::Event& event) {
    obs::to_jsonl(event, buf);
    buf += '\n';
    sink(std::string_view(buf));
  };
  emit(report_header_event(report));
  emit(provenance_event(report.env));
  for (const CellResult& cell : report.cells) {
    buf.clear();
    append_cell_jsonl(buf, cell);
    buf += '\n';
    sink(std::string_view(buf));
  }
  for (const FitResult& fit : report.fits) emit(report_fit_event(fit));
}

}  // namespace

void write_report(std::ostream& os, const Report& report) {
  render_report(report, [&os](std::string_view line) {
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
  });
}

void write_report_file(const std::string& path, const Report& report,
                       robust::IoBackend& io) {
  // Bounded-memory commit: lines stream through chunked durable writes
  // instead of one report-sized ostringstream. Reports under the chunk
  // size still cost exactly one durable write, so the chaos lane's
  // crash-point indexes are unchanged.
  robust::AtomicFileWriter out(path, io);
  render_report(report,
                [&out](std::string_view line) { out.write(line); });
  out.commit();
}

Report load_report(std::istream& is) {
  const std::vector<robust::JsonlLine> lines =
      robust::load_jsonl_tolerant(is, "sweep report");
  if (lines.empty()) {
    throw util::ParseError("sweep report: empty stream");
  }
  Report report =
      report_header_from_event(lines.front().event, lines.front().line_no);

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const obs::Event& event = lines[i].event;
    if (event.type == "sweep_env") {
      report.env = provenance_from_event(event);
    } else if (event.type == "sweep_cell") {
      report.cells.push_back(cell_from_event(event, lines[i].line_no));
    } else if (event.type == "sweep_fit") {
      report.fits.push_back(fit_from_event(event));
    } else {
      throw util::ParseError(
          "sweep report: unexpected line type '" + event.type + "'",
          lines[i].line_no);
    }
  }
  std::sort(report.cells.begin(), report.cells.end(),
            [](const CellResult& a, const CellResult& b) {
              return a.index < b.index;
            });
  return report;
}

Report load_report_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw util::IoError("cannot open report: " + path);
  return load_report(is);
}

void check_cell_in_grid(std::uint64_t index, std::uint64_t cells_total) {
  if (index >= cells_total) {
    throw util::ParseError("sweep merge: cell " + std::to_string(index) +
                           " lies outside the grid of " +
                           std::to_string(cells_total) + " cells");
  }
}

Report merge_reports(std::vector<Report> parts) {
  if (parts.empty()) {
    throw util::ParseError("sweep merge: no input reports");
  }
  Report merged;
  const Report& first = parts.front();
  merged.version = first.version;
  merged.name = first.name;
  merged.config_hash = first.config_hash;
  merged.cells_total = first.cells_total;
  merged.env = first.env;

  // Move every shard's cells straight into the merged vector — no map,
  // no deep copies of samples vectors — then restore index order with
  // one sort (shards interleave round-robin). Duplicates show up as
  // adjacent equal indexes after the sort.
  std::size_t total = 0;
  for (const Report& part : parts) total += part.cells.size();
  merged.cells.reserve(total);
  for (Report& part : parts) {
    if (part.name != merged.name ||
        part.config_hash != merged.config_hash ||
        part.cells_total != merged.cells_total ||
        part.version != merged.version) {
      throw util::ParseError(
          "sweep merge: report '" + part.name +
          "' belongs to a different campaign (name/config_hash/"
          "cells_total mismatch)");
    }
    merged.truncated = merged.truncated || part.truncated;
    // Keep the first shard's reason (shard order, deterministic) when
    // several truncated for different causes.
    if (merged.truncate_reason == robust::CancelReason::kNone) {
      merged.truncate_reason = part.truncate_reason;
    }
    merged.wall_ms += part.wall_ms;
    merged.cells.insert(merged.cells.end(),
                        std::make_move_iterator(part.cells.begin()),
                        std::make_move_iterator(part.cells.end()));
    part.cells.clear();
  }
  std::sort(merged.cells.begin(), merged.cells.end(),
            [](const CellResult& a, const CellResult& b) {
              return a.index < b.index;
            });
  for (std::size_t i = 1; i < merged.cells.size(); ++i) {
    if (merged.cells[i].index == merged.cells[i - 1].index) {
      throw util::ParseError("sweep merge: cell " +
                             std::to_string(merged.cells[i].index) +
                             " appears in more than one report");
    }
  }
  // Sorted, so the last cell holds the largest index.
  if (!merged.cells.empty()) {
    check_cell_in_grid(merged.cells.back().index, merged.cells_total);
  }
  if (merged.cells.size() != merged.cells_total) {
    throw util::ParseError(
        "sweep merge: " + std::to_string(merged.cells.size()) + " cells of " +
        std::to_string(merged.cells_total) +
        " — the shard set does not cover the grid");
  }
  merged.fits = compute_fits(merged);
  return merged;
}

}  // namespace cadapt::campaign
