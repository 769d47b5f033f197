#include "campaign/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>
#include <sstream>
#include <utility>

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

robust::RecordFn restore_cells(Restored& into) {
  return [&into](const robust::JsonlLine& line) {
    if (line.event.type != "sweep_cell") {
      // A trial line, or a ParseError naming the type.
      robust::TrialRecord record = robust::trial_record_from(line);
      const std::uint64_t cell = line.event.u64_or("cell", 0);
      if (!into.cells.contains(cell)) {
        into.trials[cell].push_back(std::move(record));
      }
      return;
    }
    CellResult cell = cell_from_event(line.event, line.line_no);
    into.trials.erase(cell.index);
    into.cells.insert_or_assign(cell.index, std::move(cell));
  };
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
  // Index order, not completion or admission order: the report is the
  // deterministic artifact.
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

void CheckpointWriter::append(const obs::Event& event) {
  obs::to_jsonl(event, line_);
  file_->write(line_);
  file_->write("\n");
}

void CheckpointWriter::commit_chunk(const CellClaim& claimed,
                                    std::uint64_t c) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  for (std::uint64_t t = c * claimed.chunk; t < claimed.chunk_end(c); ++t) {
    if (claimed.restored[t]) continue;
    obs::Event event = robust::trial_record_event(claimed.records[t]);
    append(event.u64("cell", claimed.cell->index));
  }
  file_->commit();  // an empty batch (all restored) commits nothing
}

std::string CheckpointWriter::commit(const std::vector<obs::Event>& events,
                                     bool close) {
  // One durable commit per record batch: a kill between commits loses
  // nothing, a kill mid-commit only the torn tail a resume drops.
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return {};
  for (const obs::Event& event : events) append(event);
  const std::unique_ptr<robust::DurableAppender> closing =
      close ? std::move(file_) : nullptr;  // closed even if commit throws
  (close ? closing : file_)->commit();
  return line_;
}

namespace {

// Chunk `claimed` into `size`-trial chunks with its `committed` records in
// place, so its claims skip them and its chunk commits never write them
// again. Returns how many distinct trials were restored.
std::uint64_t chunk_claim(CellClaim& claimed, std::uint64_t size,
                          std::vector<robust::TrialRecord> committed) {
  const std::uint64_t trials = claimed.cell->trials;
  claimed.chunk = size;
  claimed.landed =
      std::vector<std::atomic<std::uint64_t>>((trials + size - 1) / size);
  claimed.restored.assign(trials, false);
  std::uint64_t restored = 0;
  for (robust::TrialRecord& record : committed) {
    if (record.trial >= trials) {
      throw util::ParseError(
          "checkpoint: trial " + std::to_string(record.trial) + " of cell " +
          std::to_string(claimed.cell->index) + " is out of range");
    }
    if (!claimed.restored[record.trial]) ++restored;
    claimed.restored[record.trial] = true;
    claimed.records[record.trial] = std::move(record);
  }
  return restored;
}

}  // namespace

CellLifecycle::CellLifecycle(
    std::shared_ptr<const Plan> plan, CellRunOptions options,
    std::unique_ptr<robust::DurableAppender> checkpoint, TrialLines restored,
    obs::SharedSink& trace)
    : plan_(std::move(plan)),
      trace_(trace),
      options_(std::move(options)),
      traces_(options_, [&trace](const obs::Event& e) { trace.write(e); }),
      restored_(std::move(restored)),
      writer_(std::move(checkpoint)) {
  options_.traces = &traces_;
}

void CellLifecycle::claim(CellClaim& claimed, const Cell& cell) {
  claimed.lifecycle = shared_from_this();
  claimed.cell = &cell;
  claimed.trial_options = trial_options_for(cell, options_);
  claimed.records.resize(cell.trials);
  try {
    // Only the lander of a last trial finishes a cell (manifests reject
    // trials = 0).
    CADAPT_CHECK_MSG(cell.trials != 0,
                     "cell " << cell.index << " has no trials");
    // Only a chunked cell commits trial lines, so only it restores them.
    const bool chunked = writer_.enabled() && cell.trials > kTrialChunk;
    const auto it = restored_.find(cell.index);
    const std::uint64_t restored = chunk_claim(
        claimed, chunked ? kTrialChunk : cell.trials,
        chunked && it != restored_.end() ? std::move(it->second)
                                         : std::vector<robust::TrialRecord>{});
    // A cell restored whole lands at admission, without a trial run.
    if (restored != cell.trials) {
      claimed.runner = make_cell_runner(cell, options_);
    }
  } catch (...) {
    skip(cell);
    throw;
  }
}

CellLifecycle::Landed CellLifecycle::land(CellClaim& claimed) {
  const Cell& cell = *claimed.cell;
  Landed landed;
  for (const robust::TrialRecord& record : claimed.records) {
    landed.boxes += record.boxes;
  }
  landed.result = aggregate_cell(cell, claimed.records, plan_->config_hash,
                                 plan_->manifest.unit_progress);
  const obs::Event event = cell_event(landed.result);
  landed.line = writer_.commit({event});
  trace_.write(event);
  for (const robust::TrialRecord& record : claimed.records) {
    if (!record.failed || !trace_.enabled()) continue;
    obs::Event error = robust::trial_record_event(record);  // trial_error
    error.type = "sweep_trial_error";
    trace_.write(error.u64("cell", cell.index));
  }
  claimed.runner = nullptr;
  claimed.records = {};
  skip(cell);  // its trace is freed after its program's last cell
  return landed;
}

namespace {

// What stops a drive early, shared by run_sweep and run_cell_trials: the
// first truncation reason noted, and the error of the lowest-indexed
// abandoned cell — rethrown by settle() once every worker is done
// (deterministic across thread counts, like util::parallel_for) unless
// it is a cancellation, which truncates instead: the cancelled cells were
// discarded whole, and committed ones survive for --resume.
class Stops {
 public:
  void truncate(robust::CancelReason reason) {
    std::uint8_t none = 0;  // keep the first reason observed
    reason_.compare_exchange_strong(none, static_cast<std::uint8_t>(reason),
                                    std::memory_order_relaxed);
  }

  // The admission checks for cell `index` (run_sweep: the plan index,
  // not the admission slot, since cells are admitted capture-first):
  // false once a lower-indexed cell failed (its error ends the drive, so
  // higher cells are not run; lower ones still are, which keeps the
  // rethrown error the lowest), and false (and truncated) once the token
  // fired or the budget is spent.
  bool admissible(std::uint64_t index, const robust::CancelToken* cancel,
                  const robust::BudgetTracker& tracker) {
    if (index > error_index_.load(std::memory_order_relaxed)) return false;
    if (cancel != nullptr && cancel->requested()) {
      truncate(cancel->reason());
    } else if (tracker.exceeded()) {
      truncate(tracker.boxes_exceeded() ? robust::CancelReason::kBudget
                                        : robust::CancelReason::kDeadline);
    } else {
      return true;
    }
    return false;
  }

  // Call inside the catch of cell `index`'s error.
  void fail(std::uint64_t index) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (index < error_index_.load(std::memory_order_relaxed)) {
      error_ = std::current_exception();
      error_index_.store(index, std::memory_order_relaxed);
    }
  }

  void settle() {
    if (!error_) return;
    try {
      std::rethrow_exception(error_);
    } catch (const robust::CancelledError& e) {
      truncate(e.reason());
    }
  }

  robust::CancelReason reason() const {
    return static_cast<robust::CancelReason>(
        reason_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint8_t> reason_{0};
  std::mutex mutex_;
  std::exception_ptr error_;
  std::atomic<std::uint64_t> error_index_{UINT64_MAX};
};

}  // namespace

Report run_sweep(const Plan& plan, const SweepOptions& options) {
  const std::vector<std::size_t> mine =
      shard_cells(plan, options.shards, options.shard_index);
  const std::uint64_t started_ns = options.timing ? options.clock() : 0;

  Restored restored;
  std::unique_ptr<robust::DurableAppender> checkpoint;
  if (!options.checkpoint_path.empty()) {
    // The header: version, config_hash, sharding, grid size, and the run
    // fingerprint — only when it differs from the default run, so default
    // checkpoints keep their bytes.
    obs::Event header("sweep_checkpoint");
    header.u64("version", 1)
        .u64("config_hash", plan.config_hash)
        .u64("shards", options.shards)
        .u64("shard_index", options.shard_index)
        .u64("cells", plan.cells.size());
    const std::string run = run_fingerprint(
        options.max_attempts, options.faults, options.backoff.base_ns);
    if (run != run_fingerprint(1, nullptr, 0)) header.str("run", run);
    checkpoint = robust::open_checkpoint(
        options.checkpoint_path, header, options.resume,
        restore_cells(restored),
        options.io != nullptr ? *options.io : robust::system_io());
  }
  const std::map<std::uint64_t, CellResult>& finished = restored.cells;

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
  obs::SharedSink trace(options.trace);
  // Not owning the plan: every claim is gone before run_sweep returns.
  const auto lifecycle = std::make_shared<CellLifecycle>(
      std::shared_ptr<const Plan>(&plan, [](const Plan*) {}),
      std::move(cell_options), std::move(checkpoint),
      std::move(restored.trials), trace);
  // Each trace is freed after its program's last unfinished cell here:
  // a cell that never lands (skipped at admission, abandoned) is skipped.
  std::vector<CellResult> cells;
  std::vector<std::size_t> pending;
  for (const std::size_t i : mine) {
    const Cell& cell = plan.cells[i];
    if (const auto it = finished.find(cell.index); it != finished.end()) {
      cells.push_back(it->second);
    } else {
      pending.push_back(i);
      lifecycle->expect(cell);
    }
  }
  const std::vector<std::size_t> order = capture_first(plan, pending);

  robust::BudgetTracker tracker(options.budget, options.clock);
  std::vector<std::optional<CellResult>> results(order.size());
  // A cell that throws (cancellation, a malformed cell) is abandoned.
  Stops stops;

  // Admission: the next cell of the shard that still has to run, in
  // capture-first order, with its runner built once. Null once the shard
  // is exhausted.
  using Claimed = ClaimedCell<std::size_t>;
  std::atomic<std::size_t> next_slot{0};
  const auto admit = [&]() -> std::shared_ptr<Claimed> {
    for (;;) {
      const std::size_t slot =
          next_slot.fetch_add(1, std::memory_order_relaxed);
      if (slot >= order.size()) return nullptr;
      const Cell& cell = plan.cells[order[slot]];
      if (!stops.admissible(cell.index, cancel, tracker)) {
        lifecycle->skip(cell);
        continue;
      }
      auto run = std::make_shared<Claimed>();
      run->owner = slot;
      try {
        lifecycle->claim(*run, cell);
      } catch (...) {
        stops.fail(cell.index);
        continue;
      }
      return run;
    }
  };

  // Run by whoever lands a cell's last trial.
  const auto finish = [&](Claimed& run) {
    CellLifecycle::Landed landed = lifecycle->land(run);
    tracker.add_boxes(landed.boxes);
    results[run.owner] = std::move(landed.result);
  };

  TrialScheduler<std::size_t> scheduler(
      {.admit = admit,
       .finish = finish,
       .abandon =
           [&stops, &lifecycle](Claimed& run) {
             stops.fail(run.cell->index);
             lifecycle->skip(*run.cell);
           },
       .land_chunk =
           [&lifecycle](Claimed& run, std::uint64_t c) {
             lifecycle->commit(run, c);
           }},
      options.timing);
  util::ThreadPool pool(static_cast<std::size_t>(options.jobs));
  util::parallel_for(pool, pool.size(),
                     [&scheduler](std::size_t) { scheduler.work(); });
  stops.settle();

  for (std::optional<CellResult>& result : results) {
    if (result.has_value()) cells.push_back(std::move(*result));
  }
  const std::uint64_t wall_ms =
      options.timing ? (options.clock() - started_ns) / 1000000u : 0;
  return assemble_report(plan, std::move(cells), options.shards,
                         options.shard_index,
                         stops.reason() != robust::CancelReason::kNone,
                         stops.reason(), wall_ms);
}

engine::McSummary run_cell_trials(const engine::McOptions& trial_options,
                                  const engine::RobustTrialRunner& runner,
                                  const CellTrials& options) {
  const std::uint64_t trials = trial_options.trials;
  CADAPT_CHECK(trials >= 1);
  CADAPT_CHECK(trial_options.max_attempts >= 1);
  CADAPT_CHECK(runner != nullptr);
  const std::uint64_t size = std::max<std::uint64_t>(1, options.chunk);
  Restored restored;
  std::unique_ptr<robust::DurableAppender> checkpoint;
  if (!options.checkpoint_path.empty()) {
    obs::Event header("mc_checkpoint");
    header.u64("version", 2)
        .u64("trials", trials)
        .u64("seed", trial_options.seed)
        .str("config_hash", options.config);
    // Only when set: checkpoints at the default chunk keep their bytes. A
    // resume at another chunk size is refused, so a resume keeps the
    // chunk boundaries its budget truncations fall on.
    if (size != kTrialChunk) header.u64("chunk", size);
    checkpoint = robust::open_checkpoint(
        options.checkpoint_path, header, options.resume,
        restore_cells(restored),
        options.io != nullptr ? *options.io : robust::system_io());
  }
  CheckpointWriter writer(std::move(checkpoint));

  // One claim of one cell, admitted by every thread until all its trials
  // are claimed; its chunks are the commit and admission points.
  Cell cell;
  cell.trials = trials;
  using Claimed = ClaimedCell<std::uint64_t>;
  const auto claim = std::make_shared<Claimed>();
  claim->cell = &cell;
  claim->trial_options = trial_options;
  claim->runner = runner;
  claim->records.resize(trials);
  (void)chunk_claim(*claim, size, std::move(restored.trials[0]));
  const std::vector<bool>& known = claim->restored;
  const std::uint64_t chunks = claim->landed.size();

  robust::BudgetTracker tracker(options.budget, options.clock);
  Stops stops;
  std::vector<char> late(chunks);  // landed past the deadline
  // A chunk's lander: its new trials count to the budget and commit, and
  // a spent budget, a passed deadline or a cancel stops the claims. Claims
  // run in trial order, so every chunk before the fold's stop lands.
  const auto land = [&](Claimed& run, std::uint64_t c) {
    const bool past = tracker.deadline_exceeded();
    bool ran = false;
    for (std::uint64_t t = c * size; t < run.chunk_end(c); ++t) {
      if (known[t]) continue;
      tracker.add_boxes(run.records[t].boxes);
      ran = true;
    }
    if (!ran) return;  // restored whole
    late[c] = past;
    writer.commit_chunk(run, c);
    if (!stops.admissible(c, trial_options.cancel, tracker)) {
      run.next.store(trials, std::memory_order_relaxed);
    }
  };
  obs::McRecorder* recorder = trial_options.recorder;
  TrialScheduler<std::uint64_t> scheduler(
      {.admit = [&claim]() -> std::shared_ptr<Claimed> {
         return claim->unclaimed() != 0 ? claim : nullptr;
       },
       .finish = [](Claimed&) {},
       .abandon = [&stops](Claimed&) { stops.fail(0); },
       .land_chunk = land},
      recorder != nullptr && recorder->record_timing());
  util::ThreadPool& pool = trial_options.pool != nullptr
                               ? *trial_options.pool
                               : util::default_pool();
  util::parallel_for(pool, pool.size(),
                     [&scheduler](std::size_t) { scheduler.work(); });
  stops.settle();

  // The fold, in trial order: the same summary at every thread count.
  engine::McSummary summary;
  summary.trials_requested = trials;
  std::uint64_t spent = 0;
  for (std::uint64_t c = 0; c < chunks; ++c) {
    const std::uint64_t end = claim->chunk_end(c);
    if (claim->landed[c].load(std::memory_order_relaxed) != end - c * size) {
      summary.truncated = true;
      summary.truncate_reason = stops.reason();
      break;
    }
    for (std::uint64_t t = c * size; t < end; ++t) {
      engine::fold_trial(summary, claim->records[t], recorder);
      if (!known[t]) spent += claim->records[t].boxes;
    }
    const bool broke = options.budget.max_total_boxes != 0 &&
                       spent >= options.budget.max_total_boxes;
    if (c + 1 < chunks && (broke || late[c] != 0)) {
      summary.truncated = true;
      summary.truncate_reason = broke ? robust::CancelReason::kBudget
                                      : robust::CancelReason::kDeadline;
      break;
    }
  }
  engine::finish_summary(summary, recorder);
  return summary;
}

}  // namespace cadapt::campaign
