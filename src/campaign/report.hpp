// The sweep report (docs/SWEEPS.md): a versioned JSONL artifact holding
// one aggregated record per cell, environment provenance, and power-law
// fits over the n-grid. The encoding is obs's JSONL codec, so reports are
// greppable and parseable by the same tooling as traces and checkpoints:
//
//   {"type":"sweep_report","version":1,"name":...,"config_hash":...,
//    "cells_total":...,"shards":...,"shard_index":...,"truncated":...,
//    "wall_ms":...}
//   {"type":"sweep_env","version":...,"git":...,"build_type":...,
//    "compiler":...,"cxx_flags":...}
//   {"type":"sweep_cell","index":0,"algo":"8:4:1","profile":"worst",...}
//   {"type":"sweep_fit","algo":"8:4:1","profile":"worst",
//    "exponent":...,"scale":...,"r2":...,"expected":...}
//
// Determinism: everything except wall_ms / wall_ns is a pure function of
// the manifest — per-trial samples are kept in trial order, quantiles are
// exact, and bootstrap CIs are seeded from (config_hash, cell index) — so
// reports are bit-identical across --jobs values and across a sharded run
// merged back together (run with --no-timing to zero the wall clocks too).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/provenance.hpp"
#include "obs/event.hpp"
#include "robust/cancel.hpp"
#include "robust/checkpoint.hpp"
#include "robust/io.hpp"

namespace cadapt::campaign {

/// One cell's aggregate: counts over its trials plus statistics over the
/// metric samples of COMPLETED trials (the adaptivity ratio for ratio
/// workloads — unit_ratio under unit_progress — and total I/Os for sort
/// workloads). Samples are persisted verbatim (shortest-round-trip
/// doubles) so baselines can re-bootstrap without rerunning.
struct CellResult {
  std::uint64_t index = 0;
  std::string algo;  ///< "a:b:c" token; empty for sort cells
  std::string profile;
  std::string sort;  ///< adaptive|funnel|merge2; empty for ratio cells
  /// Replacement-policy token of a sort cell; empty when the campaign
  /// has no policy axis (emitted to the report only when non-empty, so
  /// historical artifacts stay byte-identical).
  std::string policy;
  unsigned k = 0;
  std::uint64_t n = 0;
  std::uint64_t trials = 0;
  std::uint64_t completed = 0;
  std::uint64_t incomplete = 0;  ///< did not finish (cap or exhaustion)
  /// Of the incomplete trials, how many stopped on the max_boxes cap
  /// (engine::StopReason::kBoxCapHit); the rest exhausted their source.
  std::uint64_t capped = 0;
  std::uint64_t failed = 0;      ///< contained trial errors
  double mean = 0;
  double ci_lo = 0;  ///< bootstrap 95% CI over the mean
  double ci_hi = 0;
  double q50 = 0;  ///< exact sample quantiles
  double q90 = 0;
  double q95 = 0;
  double boxes_mean = 0;     ///< mean boxes over non-failed trials
  std::uint64_t wall_ns = 0; ///< summed trial durations (0 with --no-timing)
  std::vector<double> samples;  ///< completed-trial metrics, trial order

  bool operator==(const CellResult&) const = default;
};

/// Fitted mean ~ scale * n^exponent over one (algo, profile) series —
/// the measured counterpart of the paper's log_b a.
struct FitResult {
  std::string algo;
  std::string profile;
  double exponent = 0;
  double scale = 0;
  double r2 = 0;
  double expected = 0;  ///< log_b a from the algo token

  bool operator==(const FitResult&) const = default;
};

struct Report {
  std::uint64_t version = 1;
  std::string name;
  std::uint64_t config_hash = 0;
  std::uint64_t cells_total = 0;  ///< full grid size (>= cells.size())
  std::uint64_t shards = 1;       ///< >1 marks a partial shard report
  std::uint64_t shard_index = 0;
  bool truncated = false;  ///< a budget or cancellation stopped the sweep
  /// Why the sweep truncated (kNone when truncated == false). Emitted to
  /// the header only when truncated with a known reason, so historical
  /// reports stay byte-identical.
  robust::CancelReason truncate_reason = robust::CancelReason::kNone;
  std::uint64_t wall_ms = 0;
  Provenance env;
  std::vector<CellResult> cells;  ///< ascending index
  std::vector<FitResult> fits;   ///< present only at full grid coverage
};

/// Seed of a cell's bootstrap CI — a pure function of the campaign
/// identity and the cell's grid position, shared by report aggregation
/// and baseline gating so both resample identically.
std::uint64_t cell_ci_seed(std::uint64_t config_hash,
                           std::uint64_t cell_index);

/// Aggregate one executed cell. `records` must be in trial order.
CellResult aggregate_cell(const Cell& cell,
                          const std::vector<robust::TrialRecord>& records,
                          std::uint64_t config_hash, bool unit_progress);

/// Power-law fits over every ratio (algo, profile) series with at least
/// two distinct n and no empty cells. Call only at full grid coverage —
/// a shard's partial series would fit a different (misleading) line.
std::vector<FitResult> compute_fits(const Report& report);

/// sweep_cell encodings (the checkpoint shares sweep_cell lines with
/// the report, so a finished shard's checkpoint is loadable by the same
/// parser). The field list is written once, over either sink:
/// cell_event builds an Event (serve streams, trace sinks, checkpoints);
/// append_cell_jsonl writes the identical line (no newline) straight
/// into `out` through obs::JsonlWriter (write_report and the columnar
/// export, which never build an Event).
obs::Event cell_event(const CellResult& cell);
void append_cell_jsonl(std::string& out, const CellResult& cell);

/// Per-field decode of one sweep_cell line — the single decode behind
/// both report loaders: cell_from_event feeds it an Event's fields, and
/// report::load_store_jsonl feeds it obs::FlatScanner views, so the row
/// and columnar loaders agree on every input. Rules: the first
/// occurrence of a key wins; a missing field keeps its default (0 or
/// empty; policy and capped are written only when set); a wrong-kind
/// value falls back to the default as obs::Event::u64_or/f64_or do;
/// unknown keys are ignored.
class CellDecoder {
 public:
  /// Start decoding line `line_no` into `out`, resetting every field
  /// but keeping its string and samples capacity.
  void begin(CellResult& out, std::size_t line_no);
  /// One (key, value) pair of the line, "type" excluded. Never throws:
  /// a field error is held for finish().
  void field(std::string_view key, const obs::ScalarView& value);
  /// Throw util::ParseError (with the line number) for the first field
  /// error — malformed or non-finite samples, k above 2^32 - 1 (the k
  /// column is u32) — or else for a samples count that differs from
  /// `completed`.
  void finish();

 private:
  void fail(std::string message);

  CellResult* out_ = nullptr;
  std::size_t line_no_ = 0;
  std::uint32_t seen_ = 0;  ///< bit per key already decoded
  std::size_t next_ = 0;    ///< where the next key is expected
  std::string error_;
};

CellResult cell_from_event(const obs::Event& event, std::size_t line_no);

/// Header/fit line encodings, public so the columnar engine's JSONL
/// export (src/report) renders its bytes through the SAME builders as
/// write_report — equivalence by construction.
obs::Event report_header_event(const Report& report);
obs::Event report_fit_event(const FitResult& fit);

/// Inverses of the two above, shared by both loaders. The header decode
/// returns a cells-free Report and throws util::ParseError (at
/// `line_no`) unless the line is a version-1 sweep_report.
Report report_header_from_event(const obs::Event& head, std::size_t line_no);
FitResult fit_from_event(const obs::Event& event);

/// log_b a from an "a:b:c" algo token (0 when malformed) — the
/// "expected" column of a fit line.
double algo_expected_exponent(const std::string& algo_token);

void write_report(std::ostream& os, const Report& report);

/// Durable commit: the report streams through robust::AtomicFileWriter
/// (write temp, fsync, rename, fsync parent), so a crash or I/O failure
/// mid-write never leaves a partial artifact at `path` — the previous
/// report, if any, survives intact.
void write_report_file(const std::string& path, const Report& report,
                       robust::IoBackend& io = robust::system_io());

/// Parse a report stream (torn-final-line tolerant, like every JSONL
/// loader in the repo). Throws util::ParseError on malformed content.
Report load_report(std::istream& is);
Report load_report_file(const std::string& path);

/// Throws util::ParseError naming the cell and the grid size unless
/// `index` < `cells_total` — the grid check both merges (this one and
/// report::CellStore::merge) run on their largest index.
void check_cell_in_grid(std::uint64_t index, std::uint64_t cells_total);

/// Merge shard reports into the full-grid report: all parts must carry
/// the same version/name/config_hash/cells_total, cell indices must be
/// disjoint and inside the grid, and their union must cover the grid.
/// wall_ms is summed (total compute, not makespan); fits are recomputed
/// over the merged grid. Mixing reports from different campaigns throws
/// util::ParseError.
/// Takes the parts by value and moves every cell (samples included)
/// into the result — pass std::move(parts) to skip the deep copy.
Report merge_reports(std::vector<Report> parts);

}  // namespace cadapt::campaign
