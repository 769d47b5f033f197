#include "campaign/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
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

std::string run_fingerprint(std::uint32_t max_attempts,
                            const robust::FaultPlan* faults,
                            std::uint64_t backoff_base_ns) {
  std::ostringstream os;
  os << "retries=" << (max_attempts - 1)
     << " fault=" << (faults != nullptr ? faults->spec() : "")
     << " fault_seed=" << (faults != nullptr ? faults->seed() : 0)
     << " backoff_ms=" << (backoff_base_ns / 1'000'000ull);
  return os.str();
}

obs::Event sweep_checkpoint_header(const Plan& plan, std::uint64_t shards,
                                   std::uint64_t shard_index,
                                   const std::string& run) {
  obs::Event event("sweep_checkpoint");
  event.u64("version", 1)
      .u64("config_hash", plan.config_hash)
      .u64("shards", shards)
      .u64("shard_index", shard_index)
      .u64("cells", plan.cells.size());
  if (run != run_fingerprint(1, nullptr, 0)) event.str("run", run);
  return event;
}

std::map<std::uint64_t, CellResult> load_sweep_checkpoint(
    const std::string& path, const Plan& plan, std::uint64_t shards,
    std::uint64_t shard_index, const std::string& run) {
  std::ifstream is(path);
  if (!is) return {};  // nothing to resume from — a fresh start
  const std::vector<robust::JsonlLine> lines =
      robust::load_jsonl_tolerant(is, "sweep checkpoint");
  if (lines.empty()) return {};
  const obs::Event& head = lines.front().event;
  const obs::Event expected =
      sweep_checkpoint_header(plan, shards, shard_index, run);
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
    const std::string default_run = run_fingerprint(1, nullptr, 0);
    const std::string have_run = head.str_or("run", default_run);
    if (have_run != run) {
      if (!detail.empty()) detail += ", ";
      detail += "run is '" + have_run + "' but this campaign has '" + run +
                "'";
    }
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

/// One admitted cell whose trials are being claimed (see run_sweep).
struct CellRun {
  std::size_t slot = 0;  ///< position in the shard's cell list
  const Cell* cell = nullptr;
  engine::McOptions trial_options;
  engine::RobustTrialRunner runner;
  std::vector<robust::TrialRecord> records;  ///< records[trial]
  std::atomic<std::uint64_t> next{0};        ///< next unclaimed trial
  std::atomic<std::uint64_t> done{0};        ///< trials landed

  std::uint64_t unclaimed() const {
    const std::uint64_t claimed = next.load(std::memory_order_relaxed);
    return claimed < cell->trials ? cell->trials - claimed : 0;
  }
};

}  // namespace

Report run_sweep(const Plan& plan, const SweepOptions& options) {
  const std::vector<std::size_t> mine =
      shard_cells(plan, options.shards, options.shard_index);
  const std::uint64_t started_ns = options.timing ? options.clock() : 0;

  const std::string fingerprint = run_fingerprint(
      options.max_attempts, options.faults, options.backoff.base_ns);
  std::map<std::uint64_t, CellResult> finished;
  if (options.resume && !options.checkpoint_path.empty()) {
    finished = load_sweep_checkpoint(options.checkpoint_path, plan,
                                     options.shards, options.shard_index,
                                     fingerprint);
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
          plan, options.shards, options.shard_index, fingerprint)));
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

  // A cell that throws (cancellation, a malformed cell) is abandoned; the
  // error of the lowest shard slot is rethrown once every worker is done,
  // deterministic across --jobs like util::parallel_for.
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_slot = mine.size();
  const auto note_error = [&](std::size_t slot) {
    const std::lock_guard<std::mutex> lock(error_mutex);
    if (slot < error_slot) {
      error = std::current_exception();
      error_slot = slot;
    }
  };

  // Admission: the next cell of the shard that still has to run, with its
  // runner built once. Null when resumed, skipped or abandoned.
  const auto admit = [&](std::size_t slot) -> std::shared_ptr<CellRun> {
    const Cell& cell = plan.cells[mine[slot]];
    if (const auto it = finished.find(cell.index); it != finished.end()) {
      results[slot] = it->second;
      return nullptr;
    }
    if (cancel != nullptr && cancel->requested()) {
      note_truncation(cancel->reason());
      return nullptr;
    }
    if (tracker.exceeded()) {
      note_truncation(tracker.boxes_exceeded()
                          ? robust::CancelReason::kBudget
                          : robust::CancelReason::kDeadline);
      return nullptr;
    }
    auto run = std::make_shared<CellRun>();
    run->slot = slot;
    run->cell = &cell;
    run->trial_options = trial_options_for(cell, cell_options);
    run->records.resize(cell.trials);
    try {
      // Only the lander of a last trial finishes a cell (manifests
      // reject trials = 0).
      CADAPT_CHECK_MSG(cell.trials != 0,
                       "cell " << cell.index << " has no trials");
      run->runner = make_cell_runner(cell, cell_options);
    } catch (...) {
      note_error(slot);
      return nullptr;
    }
    return run;
  };

  // Finish a cell, run by whoever lands its last trial: account,
  // aggregate, commit, trace, then drop the runner (and with it any
  // captured block-run trace) and the records.
  const auto finish = [&](CellRun& run) {
    const Cell& cell = *run.cell;
    std::uint64_t boxes = 0;
    for (const robust::TrialRecord& record : run.records) {
      boxes += record.boxes;
    }
    tracker.add_boxes(boxes);
    CellResult result = aggregate_cell(cell, run.records, plan.config_hash,
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
        emit_trial_errors(*options.trace, cell, run.records);
      }
    }
    results[run.slot] = std::move(result);
    run.runner = nullptr;
    run.records = {};
  };

  // Claim this cell's trials one at a time until none are left. Records
  // land at their trial index, so the report never depends on who ran
  // which trial.
  const auto run_trials = [&](CellRun& run) {
    const std::uint64_t trials = run.cell->trials;
    for (;;) {
      const std::uint64_t trial =
          run.next.fetch_add(1, std::memory_order_relaxed);
      if (trial >= trials) return;
      try {
        run.records[trial] = engine::run_single_trial(
            run.trial_options, run.runner, trial, options.timing);
        // acq_rel: the last lander sees every other helper's record.
        if (run.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            trials) {
          finish(run);
        }
      } catch (...) {
        // Stop further claims. A failed trial never counts as done, so
        // the cell is discarded whole: a partially executed cell never
        // reaches the report or the checkpoint.
        run.next.store(trials, std::memory_order_relaxed);
        note_error(run.slot);
        return;
      }
    }
  };

  // Workers admit cells in shard order while any remain, so whole cells
  // are claimed while there is work to spread and at most one cell per
  // worker is held in memory. Only then does an idle worker help the
  // admitted cell with the most unclaimed trials (the tail a single heavy
  // cell would otherwise hold alone).
  std::mutex claim_mutex;
  std::size_t next_slot = 0;
  // Admitted cells that may have unclaimed trials: at most about one per
  // worker, because fully claimed ones are dropped on every visit.
  std::vector<std::shared_ptr<CellRun>> admitted;
  const auto next_run = [&]() -> std::shared_ptr<CellRun> {
    for (;;) {
      std::size_t slot = 0;
      {
        const std::lock_guard<std::mutex> lock(claim_mutex);
        std::erase_if(admitted, [](const std::shared_ptr<CellRun>& run) {
          return run->unclaimed() == 0;
        });
        if (next_slot == mine.size()) {
          const auto most = std::max_element(
              admitted.begin(), admitted.end(),
              [](const std::shared_ptr<CellRun>& a,
                 const std::shared_ptr<CellRun>& b) {
                return a->unclaimed() < b->unclaimed();
              });
          return most == admitted.end() ? nullptr : *most;
        }
        slot = next_slot++;
      }
      std::shared_ptr<CellRun> run = admit(slot);
      if (run == nullptr) continue;
      const std::lock_guard<std::mutex> lock(claim_mutex);
      admitted.push_back(run);
      return run;
    }
  };

  util::ThreadPool pool(static_cast<std::size_t>(options.jobs));
  util::parallel_for(pool, pool.size(), [&](std::size_t) {
    while (const std::shared_ptr<CellRun> run = next_run()) run_trials(*run);
  });
  if (error) {
    try {
      std::rethrow_exception(error);
    } catch (const robust::CancelledError& e) {
      // In-flight cells were discarded wholesale; committed cells
      // survive for --resume.
      note_truncation(e.reason());
    }
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
