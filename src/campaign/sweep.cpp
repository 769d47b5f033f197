#include "campaign/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "campaign/cell_runner.hpp"
#include "robust/cancel.hpp"
#include "robust/checkpoint.hpp"
#include "robust/error.hpp"
#include "robust/io.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cadapt::campaign {

obs::Event sweep_checkpoint_header(const Plan& plan, std::uint64_t shards,
                                   std::uint64_t shard_index) {
  obs::Event event("sweep_checkpoint");
  event.u64("version", 1)
      .u64("config_hash", plan.config_hash)
      .u64("shards", shards)
      .u64("shard_index", shard_index)
      .u64("cells", plan.cells.size());
  return event;
}

std::map<std::uint64_t, CellResult> load_sweep_checkpoint(
    const std::string& path, const Plan& plan, std::uint64_t shards,
    std::uint64_t shard_index) {
  std::ifstream is(path);
  if (!is) return {};  // nothing to resume from — a fresh start
  const std::vector<robust::JsonlLine> lines =
      robust::load_jsonl_tolerant(is, "sweep checkpoint");
  if (lines.empty()) return {};
  const obs::Event& head = lines.front().event;
  const obs::Event expected = sweep_checkpoint_header(plan, shards,
                                                      shard_index);
  if (head != expected) {
    // Name every mismatched field with both values: "does not match"
    // alone sends the user diffing JSONL headers by hand.
    std::string detail;
    const auto note = [&detail, &head, &expected](const char* field) {
      const std::uint64_t have = head.u64_or(field, 0);
      const std::uint64_t want = expected.u64_or(field, 0);
      if (have == want) return;
      if (!detail.empty()) detail += ", ";
      detail += std::string(field) + " is " + std::to_string(have) +
                " but this campaign has " + std::to_string(want);
    };
    note("version");
    note("config_hash");
    note("shards");
    note("shard_index");
    note("cells");
    std::string message = "sweep checkpoint '" + path +
                          "' does not match this campaign/sharding";
    if (!detail.empty()) message += " (its " + detail + ")";
    message += " — refusing to resume";
    throw util::ParseError(std::move(message), lines.front().line_no);
  }
  std::map<std::uint64_t, CellResult> finished;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].event.type != "sweep_cell") {
      throw util::ParseError("sweep checkpoint: unexpected line type '" +
                                 lines[i].event.type + "'",
                             lines[i].line_no);
    }
    CellResult cell = cell_from_event(lines[i].event, lines[i].line_no);
    finished.insert_or_assign(cell.index, std::move(cell));
  }
  return finished;
}

Report assemble_report(const Plan& plan, std::vector<CellResult> cells,
                       std::uint64_t shards, std::uint64_t shard_index,
                       bool truncated, robust::CancelReason truncate_reason,
                       std::uint64_t wall_ms) {
  Report report;
  report.name = plan.manifest.name;
  report.config_hash = plan.config_hash;
  report.cells_total = plan.cells.size();
  report.shards = shards;
  report.shard_index = shard_index;
  report.truncated = truncated;
  report.truncate_reason = truncate_reason;
  report.env = build_provenance();
  report.cells = std::move(cells);
  // Index order, not completion order: the report is the deterministic
  // artifact (cells were filled shard-slot-wise, which is already sorted
  // by index for round-robin sharding, but don't rely on it).
  std::sort(report.cells.begin(), report.cells.end(),
            [](const CellResult& a, const CellResult& b) {
              return a.index < b.index;
            });
  if (report.cells.size() == report.cells_total) {
    report.fits = compute_fits(report);
  }
  report.wall_ms = wall_ms;
  return report;
}

namespace {

void emit_trial_errors(obs::TraceSink& sink, const Cell& cell,
                       const std::vector<robust::TrialRecord>& records) {
  for (const robust::TrialRecord& record : records) {
    if (!record.failed) continue;
    obs::Event event("sweep_trial_error");
    event.u64("cell", cell.index)
        .u64("trial", record.trial)
        .u64("seed", record.seed)
        .u64("attempts", record.attempts)
        .str("category", robust::error_category_name(record.category))
        .str("what", record.what);
    sink.write(event);
  }
}

}  // namespace

Report run_sweep(const Plan& plan, const SweepOptions& options) {
  const std::vector<std::size_t> mine =
      shard_cells(plan, options.shards, options.shard_index);
  const std::uint64_t started_ns = options.timing ? options.clock() : 0;

  std::map<std::uint64_t, CellResult> finished;
  if (options.resume && !options.checkpoint_path.empty()) {
    finished = load_sweep_checkpoint(options.checkpoint_path, plan,
                                     options.shards, options.shard_index);
  }

  robust::IoBackend& io =
      options.io != nullptr ? *options.io : robust::system_io();
  std::unique_ptr<robust::DurableAppender> checkpoint;
  if (!options.checkpoint_path.empty()) {
    // A kill can land mid-write; drop the torn tail before appending so
    // new records start on a fresh line.
    robust::truncate_torn_tail(options.checkpoint_path);
    const bool fresh = finished.empty() && !options.resume;
    checkpoint = std::make_unique<robust::DurableAppender>(
        options.checkpoint_path, /*truncate=*/fresh, io);
    if (checkpoint->initial_size() == 0) {
      checkpoint->write(obs::to_jsonl(sweep_checkpoint_header(
          plan, options.shards, options.shard_index)));
      checkpoint->write("\n");
      checkpoint->commit();
    }
  }

  // Cancellation: an external token wins; otherwise an armed deadline
  // gets an internal watchdog so a stuck cell is cancelled MID-cell
  // (the BudgetTracker alone only notices at cell boundaries). Boxes
  // budgets are never watchdog-driven — their truncation point must be
  // a deterministic function of the work done, not of wall time.
  robust::CancelToken internal_token;
  std::optional<robust::Watchdog> watchdog;
  const robust::CancelToken* cancel = options.cancel;
  if (cancel == nullptr && options.budget.deadline_ns != 0) {
    watchdog.emplace(internal_token, options.budget.deadline_ns,
                     options.clock);
    cancel = &internal_token;
  }

  CellRunOptions cell_options = cell_options_from(plan.manifest);
  cell_options.per_box = options.per_box;
  cell_options.per_access = options.per_access;
  cell_options.max_attempts = options.max_attempts;
  cell_options.faults = options.faults;
  cell_options.cancel = cancel;
  cell_options.backoff = options.backoff;
  cell_options.timing = options.timing;
  if (options.workers != 0) cell_options.workers = options.workers;

  robust::BudgetTracker tracker(options.budget, options.clock);
  std::vector<std::optional<CellResult>> results(mine.size());
  std::atomic<bool> truncated{false};
  std::atomic<std::uint8_t> reason_raw{0};
  const auto note_truncation = [&truncated, &reason_raw](
                                   robust::CancelReason reason) {
    truncated.store(true, std::memory_order_relaxed);
    std::uint8_t expected = 0;  // keep the first reason observed
    reason_raw.compare_exchange_strong(expected,
                                       static_cast<std::uint8_t>(reason),
                                       std::memory_order_relaxed);
  };
  std::mutex sink_mutex;  // checkpoint + trace share one writer lock
  std::string checkpoint_line;  // encode buffer reused under sink_mutex

  util::ThreadPool pool(static_cast<std::size_t>(options.jobs));
  try {
    util::parallel_for(pool, mine.size(), [&](std::size_t i) {
      const Cell& cell = plan.cells[mine[i]];
      if (const auto it = finished.find(cell.index); it != finished.end()) {
        results[i] = it->second;
        return;
      }
      if (cancel != nullptr && cancel->requested()) {
        note_truncation(cancel->reason());
        return;
      }
      if (tracker.exceeded()) {
        note_truncation(tracker.boxes_exceeded()
                            ? robust::CancelReason::kBudget
                            : robust::CancelReason::kDeadline);
        return;
      }
      const std::vector<robust::TrialRecord> records =
          run_cell(cell, cell_options);
      std::uint64_t boxes = 0;
      for (const robust::TrialRecord& record : records) boxes += record.boxes;
      tracker.add_boxes(boxes);
      CellResult result = aggregate_cell(cell, records, plan.config_hash,
                                         plan.manifest.unit_progress);
      {
        const std::lock_guard<std::mutex> lock(sink_mutex);
        if (checkpoint != nullptr) {
          // One durable commit per cell: a kill between cells loses
          // nothing, a kill mid-commit loses only the torn tail that
          // truncate_torn_tail drops on resume.
          obs::to_jsonl(cell_event(result), checkpoint_line);
          checkpoint->write(checkpoint_line);
          checkpoint->write("\n");
          checkpoint->commit();
        }
        if (options.trace != nullptr) {
          options.trace->write(cell_event(result));
          emit_trial_errors(*options.trace, cell, records);
        }
      }
      results[i] = std::move(result);
    });
  } catch (const robust::CancelledError& e) {
    // In-flight cells are discarded wholesale (their results slots were
    // never filled): a partially executed cell must never reach the
    // report or the checkpoint. Committed cells survive for --resume.
    note_truncation(e.reason());
  }

  std::vector<CellResult> cells;
  for (std::optional<CellResult>& result : results) {
    if (result.has_value()) cells.push_back(std::move(*result));
  }
  const std::uint64_t wall_ms =
      options.timing ? (options.clock() - started_ns) / 1000000u : 0;
  return assemble_report(plan, std::move(cells), options.shards,
                         options.shard_index,
                         truncated.load(std::memory_order_relaxed),
                         static_cast<robust::CancelReason>(
                             reason_raw.load(std::memory_order_relaxed)),
                         wall_ms);
}

}  // namespace cadapt::campaign
