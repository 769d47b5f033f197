#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <utility>

#include "campaign/cell_runner.hpp"
#include "campaign/manifest.hpp"
#include "campaign/sweep.hpp"
#include "obs/span.hpp"
#include "robust/checkpoint.hpp"
#include "util/check.hpp"

namespace cadapt::serve {

namespace {

constexpr std::array<const char*, 5> kStateNames = {"queued", "running",
                                                    "done", "cancelled",
                                                    "failed"};

bool terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kCancelled ||
         state == JobState::kFailed;
}

}  // namespace

const char* job_state_name(JobState state) {
  const auto idx = static_cast<std::size_t>(state);
  CADAPT_CHECK(idx < kStateNames.size());
  return kStateNames[idx];
}

// One tenant job. Heap-allocated and never erased from jobs_ while the
// core lives, so worker threads may hold pointers into plan/options
// outside the mutex (both are immutable after init).
struct ServeCore::Job {
  JobFiles files;
  SubmitRequest request;
  campaign::Plan plan;                     // empty for restored-terminal jobs
  campaign::CellRunOptions cell_options;
  std::unique_ptr<robust::FaultPlan> faults;
  std::unique_ptr<robust::FaultyIo> faulty_io;
  robust::IoBackend* io = nullptr;         // faulty_io or the core's backend
  robust::CancelToken cancel;
  std::unique_ptr<robust::Watchdog> watchdog;
  std::unique_ptr<robust::DurableAppender> checkpoint;
  std::map<std::uint64_t, campaign::CellResult> results;

  JobState state = JobState::kQueued;
  bool truncated = false;
  robust::CancelReason reason = robust::CancelReason::kNone;
  bool client_cancelled = false;
  std::uint64_t config_hash = 0;
  std::uint64_t cells_total = 0;
  std::uint64_t restored_cells_done = 0;  // terminal jobs after a restart
  std::uint64_t in_flight = 0;  // admitted cells not finished or abandoned
  std::uint64_t started_ns = 0;
  std::string error;

  // Streaming (docs/SERVE.md, "Backpressure").
  bool subscriber = false;
  bool stream_paused = false;
  std::deque<std::string> stream;  // sweep_cell jsonl, completion order
};

ServeCore::ServeCore(const ServeOptions& options)
    : options_(options),
      io_(options.io != nullptr ? *options.io : robust::system_io()),
      spool_(options.spool_dir, io_),
      pool_(static_cast<std::size_t>(options.jobs)),
      trials_({.admit = [this] { return admit(); },
               .admitted =
                   [this] {
                     const std::lock_guard<std::mutex> lock(mutex_);
                     wake();
                   },
               .finish = [this](ClaimedCell& claimed) { finish(claimed); },
               .abandon = [this](ClaimedCell& claimed) {
                 abandon(*claimed.owner);
               }},
              options.timing) {
  started_ = options_.autostart;
  resume_spool();
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    pool_.submit([this] { work_loop(); });
  }
}

ServeCore::~ServeCore() { shutdown(); }

void ServeCore::resume_spool() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const JobFiles& files : spool_.scan()) {
    const SubmitRequest request =
        submit_from_event(spool_.load_meta(files));
    if (files.has_report) {
      // Terminal history: status answers from the report header, nothing
      // re-enters the scheduler.
      const campaign::Report report =
          campaign::load_report_file(files.report_path);
      auto job = std::make_unique<Job>();
      job->files = files;
      job->request = request;
      job->config_hash = report.config_hash;
      job->cells_total = report.cells_total;
      job->restored_cells_done = report.cells.size();
      job->truncated = report.truncated;
      job->reason = report.truncate_reason;
      job->state = report.truncated && report.truncate_reason ==
                                           robust::CancelReason::kExternal
                       ? JobState::kCancelled
                       : JobState::kDone;
      jobs_.emplace(files.id, std::move(job));
      continue;
    }
    init_job(files, request, /*resuming=*/true);
  }
}

JobStatus ServeCore::submit(const SubmitRequest& request) {
  // Parse OUTSIDE the job registry: a malformed manifest throws
  // util::ParseError here and no job id, spool entry, or queue slot ever
  // exists for it.
  std::istringstream is(request.manifest_text);
  (void)campaign::parse_manifest(is);

  const std::lock_guard<std::mutex> lock(mutex_);
  CADAPT_CHECK_MSG(!shutting_down_, "serve core is shutting down");
  const JobFiles files = spool_.files_for(spool_.allocate_id());
  obs::Event meta = submit_event(request);
  meta.type = "serve_job";
  meta.without("manifest").str("job", files.id);
  spool_.persist_job(files, request.manifest_text, meta);
  init_job(files, request, /*resuming=*/false);
  wake();
  return status_of(*jobs_.at(files.id));
}

void ServeCore::init_job(const JobFiles& files, const SubmitRequest& request,
                         bool resuming) {
  campaign::Manifest manifest;
  {
    std::istringstream is(request.manifest_text.empty() && resuming
                              ? spool_.load_manifest_text(files)
                              : request.manifest_text);
    manifest = campaign::parse_manifest(is);
  }
  auto job = std::make_unique<Job>();
  job->files = files;
  job->request = request;
  job->plan = campaign::expand_plan(manifest);
  job->config_hash = job->plan.config_hash;
  job->cells_total = job->plan.cells.size();

  job->cell_options = campaign::cell_options_from(manifest);
  job->cell_options.timing = options_.timing;
  job->cell_options.max_attempts = request.retries + 1;
  job->cell_options.cancel = &job->cancel;
  if (!request.fault_spec.empty()) {
    const std::uint64_t seed = request.fault_seed != 0
                                   ? request.fault_seed
                                   : manifest.seed ^ 0xFA17ull;
    job->faults = std::make_unique<robust::FaultPlan>(
        robust::FaultPlan::parse_spec(request.fault_spec, seed));
    job->cell_options.faults = job->faults.get();
  }
  job->io = &io_;
  if (job->faults != nullptr && robust::FaultyIo::plan_arms_io(*job->faults)) {
    job->faulty_io = std::make_unique<robust::FaultyIo>(io_,
                                                        job->faults.get());
    job->io = job->faulty_io.get();
  }

  // Per-client box budget: the tracker accrues across every job the
  // client submits; the first submit naming a budget creates it.
  ClientState& client = clients_[request.client];
  if (client.tracker == nullptr && request.box_budget != 0) {
    robust::Budget budget;
    budget.max_total_boxes = request.box_budget;
    client.tracker = std::make_unique<robust::BudgetTracker>(budget);
  }

  // The checkpoint is the sweep format at shards=1 — the SAME header,
  // loader, and cell lines as one-shot `cadapt sweep --checkpoint`.
  job->checkpoint = robust::open_checkpoint(
      files.checkpoint_path,
      campaign::sweep_checkpoint_header(
          job->plan, 1, 0,
          campaign::run_fingerprint(request.retries + 1, job->faults.get(),
                                    0)),
      resuming, campaign::restore_cells(job->results), *job->io);

  std::vector<std::uint64_t> pending;
  for (std::uint64_t i = 0; i < job->cells_total; ++i) {
    if (job->results.find(i) == job->results.end()) pending.push_back(i);
  }
  scheduler_.add_job(files.id, request.client, request.weight,
                     std::move(pending));
  if (request.deadline_ms != 0) {
    // The deadline is wall clock from (re)admission — a restarted daemon
    // re-arms it in full, like any other watchdog.
    job->watchdog = std::make_unique<robust::Watchdog>(
        job->cancel, request.deadline_ms * 1'000'000ull);
  }
  if (options_.timing) job->started_ns = obs::steady_now_ns();
  if (options_.trace != nullptr) {
    obs::Event event("job_accepted");
    event.str("job", files.id)
        .str("client", request.client)
        .u64("config_hash", job->config_hash)
        .u64("cells", job->cells_total);
    options_.trace->write(event);
  }
  Job& ref = *job;
  jobs_.emplace(files.id, std::move(job));
  maybe_finalize(ref);  // a fully-checkpointed job finishes right here
}

void ServeCore::start() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  wake();
}

void ServeCore::wake() {
  ++wake_;
  cv_.notify_all();
}

void ServeCore::work_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this, &seen] {
        return shutting_down_ || (started_ && wake_ != seen);
      });
      if (shutting_down_) return;
      // Read before working: a wake() during work() runs it again.
      seen = wake_;
    }
    trials_.work();
  }
}

std::shared_ptr<ServeCore::ClaimedCell> ServeCore::admit() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (started_ && !shutting_down_) {
    const std::optional<SchedulerPick> pick = scheduler_.next();
    if (!pick.has_value()) break;
    Job& job = *jobs_.at(pick->job);
    // Pre-empt doomed picks: a cancelled job or an over-budget client
    // truncates HERE, at an admission boundary — a deterministic function
    // of the work actually admitted, never of wall clocks.
    if (job.cancel.requested()) {
      truncate_job(job, job.cancel.reason());
      continue;
    }
    const ClientState& client = clients_[job.request.client];
    if (client.tracker != nullptr && client.tracker->exceeded()) {
      truncate_job(job, robust::CancelReason::kBudget);
      continue;
    }
    dispatch_log_.push_back(*pick);
    job.state = JobState::kRunning;
    ++job.in_flight;
    if (options_.trace != nullptr) {
      obs::Event event("cell_scheduled");
      event.str("job", pick->job).u64("cell", pick->cell);
      options_.trace->write(event);
    }
    auto claimed = std::make_shared<ClaimedCell>();
    claimed->owner = &job;
    claimed->cell = &job.plan.cells[pick->cell];
    claimed->trial_options =
        campaign::trial_options_for(*claimed->cell, job.cell_options);
    claimed->records.resize(claimed->cell->trials);
    // The runner is built OUTSIDE the mutex (a shuffled cell's census is
    // real work, and tenants must not serialize on it).
    lock.unlock();
    try {
      claimed->runner =
          campaign::make_cell_runner(*claimed->cell, job.cell_options);
      return claimed;
    } catch (...) {
      abandon(job);
    }
    lock.lock();
  }
  return nullptr;
}

void ServeCore::finish(ClaimedCell& claimed) {
  Job& job = *claimed.owner;
  const std::uint64_t cell_index = claimed.cell->index;
  std::uint64_t boxes = 0;
  for (const robust::TrialRecord& record : claimed.records) {
    boxes += record.boxes;
  }
  // Aggregate OUTSIDE the mutex, then drop the runner (and any captured
  // block-run trace) and the records.
  campaign::CellResult result = campaign::aggregate_cell(
      *claimed.cell, claimed.records, job.config_hash,
      job.plan.manifest.unit_progress);
  claimed.runner = nullptr;
  claimed.records = {};

  const std::lock_guard<std::mutex> lock(mutex_);
  --job.in_flight;
  cv_.notify_all();
  // After shutdown, and for a failed job's stragglers, cells unwind
  // without touching the job's artifacts.
  if (shutting_down_ || terminal(job.state)) return;
  if (robust::BudgetTracker* tracker =
          clients_[job.request.client].tracker.get()) {
    tracker->add_boxes(boxes);
  }
  obs::to_jsonl(campaign::cell_event(result), line_buf_);
  try {
    job.checkpoint->write(line_buf_);
    job.checkpoint->write("\n");
    job.checkpoint->commit();
    job.results.emplace(cell_index, std::move(result));
    if (job.subscriber) {
      job.stream.push_back(line_buf_);
      if (!job.stream_paused &&
          job.stream.size() >= options_.stream_buffer) {
        // Backpressure: this subscriber stopped draining, so THIS job
        // stops admitting cells. Nobody else's queue position moves.
        job.stream_paused = true;
        scheduler_.pause_job(job.files.id);
      }
    }
    if (options_.trace != nullptr) {
      options_.trace->write(campaign::cell_event(job.results[cell_index]));
    }
    maybe_finalize(job);
  } catch (const util::IoError& e) {
    fail_job(job, e.what());
  }
}

void ServeCore::abandon(Job& job) {
  const std::lock_guard<std::mutex> lock(mutex_);
  --job.in_flight;
  cv_.notify_all();
  if (shutting_down_ || terminal(job.state)) return;
  try {
    throw;  // the cell's first error, still being handled
  } catch (const robust::CancelledError& e) {
    // The interrupted cell is discarded wholesale — a partially executed
    // cell must never reach the checkpoint or the report (same contract
    // as run_sweep). Committed cells survive for resume.
    truncate_job(job, e.reason());
  } catch (const std::exception& e) {
    fail_job(job, e.what());
  }
}

void ServeCore::truncate_job(Job& job, robust::CancelReason reason) {
  if (terminal(job.state)) return;
  job.truncated = true;
  if (job.reason == robust::CancelReason::kNone) job.reason = reason;
  scheduler_.remove_job(job.files.id);
  maybe_finalize(job);
}

void ServeCore::maybe_finalize(Job& job) {
  if (terminal(job.state) || job.in_flight != 0) return;
  if (!job.truncated && job.results.size() != job.cells_total) return;
  std::vector<campaign::CellResult> cells;
  cells.reserve(job.results.size());
  for (const auto& [index, result] : job.results) cells.push_back(result);
  const std::uint64_t wall_ms =
      options_.timing && job.started_ns != 0
          ? (obs::steady_now_ns() - job.started_ns) / 1000000u
          : 0;
  const campaign::Report report = campaign::assemble_report(
      job.plan, std::move(cells), 1, 0, job.truncated,
      job.truncated ? job.reason : robust::CancelReason::kNone, wall_ms);
  try {
    campaign::write_report_file(job.files.report_path, report, *job.io);
  } catch (const util::IoError& e) {
    fail_job(job, e.what());
    return;
  }
  job.files.has_report = true;
  job.state = job.client_cancelled ? JobState::kCancelled : JobState::kDone;
  scheduler_.remove_job(job.files.id);
  cv_.notify_all();
  if (options_.trace != nullptr) {
    obs::Event event("job_done");
    event.str("job", job.files.id)
        .str("state", job_state_name(job.state))
        .flag("truncated", job.truncated);
    if (job.truncated) {
      event.str("reason", robust::cancel_reason_name(job.reason));
    }
    options_.trace->write(event);
  }
}

void ServeCore::fail_job(Job& job, const std::string& what) {
  if (terminal(job.state)) return;
  job.state = JobState::kFailed;
  job.error = what;
  job.cancel.request(robust::CancelReason::kExternal);  // stop stragglers
  scheduler_.remove_job(job.files.id);
  if (options_.trace != nullptr) {
    obs::Event event("job_done");
    event.str("job", job.files.id)
        .str("state", job_state_name(job.state))
        .str("error", what);
    options_.trace->write(event);
  }
}

JobStatus ServeCore::status_of(const Job& job) const {
  JobStatus status;
  status.id = job.files.id;
  status.client = job.request.client;
  status.state = job.state;
  status.config_hash = job.config_hash;
  status.cells_total = job.cells_total;
  status.cells_done = job.restored_cells_done != 0
                          ? job.restored_cells_done
                          : job.results.size();
  status.truncated = job.truncated;
  status.reason = job.reason;
  status.error = job.error;
  return status;
}

std::vector<JobStatus> ServeCore::status() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(status_of(*job));
  // Numeric id order (the map is lexicographic: job-10 < job-2).
  std::sort(out.begin(), out.end(),
            [](const JobStatus& a, const JobStatus& b) {
              return a.id.size() != b.id.size() ? a.id.size() < b.id.size()
                                                : a.id < b.id;
            });
  return out;
}

std::optional<JobStatus> ServeCore::status(const std::string& job) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return std::nullopt;
  return status_of(*it->second);
}

bool ServeCore::cancel(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || terminal(it->second->state)) return false;
  Job& job = *it->second;
  job.client_cancelled = true;
  job.cancel.request(robust::CancelReason::kExternal);
  truncate_job(job, robust::CancelReason::kExternal);
  cv_.notify_all();
  return true;
}

bool ServeCore::wait_job(const std::string& id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  cv_.wait(lock, [this, &job] {
    return shutting_down_ || terminal(job.state);
  });
  return true;
}

void ServeCore::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] {
    if (shutting_down_) return true;
    for (const auto& [id, job] : jobs_) {
      if (!terminal(job->state)) return false;
    }
    return true;
  });
}

bool ServeCore::attach(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (job.subscriber) return true;
  job.subscriber = true;
  // Backfill cells that finished (or were restored from the checkpoint)
  // before the subscriber arrived: a late `results` call still sees one
  // line per cell. job.results is keyed by cell index, so the backlog
  // comes out in plan order.
  job.stream.clear();
  for (const auto& [index, result] : job.results) {
    (void)index;
    job.stream.push_back(obs::to_jsonl(campaign::cell_event(result)));
  }
  if (!terminal(job.state) && !job.stream_paused &&
      job.stream.size() >= options_.stream_buffer) {
    job.stream_paused = true;
    scheduler_.pause_job(id);
  }
  cv_.notify_all();
  return true;
}

std::optional<std::string> ServeCore::next_stream_line(const std::string& id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  Job& job = *it->second;
  cv_.wait(lock, [this, &job] {
    return shutting_down_ || !job.stream.empty() || terminal(job.state);
  });
  if (job.stream.empty()) return std::nullopt;
  std::string line = std::move(job.stream.front());
  job.stream.pop_front();
  if (job.stream_paused && job.stream.size() <= options_.stream_buffer / 2) {
    job.stream_paused = false;
    scheduler_.resume_job(id);
    wake();
  }
  return line;
}

void ServeCore::detach(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  Job& job = *it->second;
  job.subscriber = false;
  job.stream.clear();
  if (job.stream_paused) {
    job.stream_paused = false;
    scheduler_.resume_job(id);
    wake();
  }
}

std::string ServeCore::report_bytes(const std::string& id) const {
  std::string path;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      throw util::IoError("unknown job '" + id + "'");
    }
    if (!it->second->files.has_report) {
      throw util::IoError("job '" + id + "' has no report (state " +
                          job_state_name(it->second->state) + ")");
    }
    path = it->second->files.report_path;
  }
  std::ifstream is(path, std::ios::binary);
  if (!is) throw util::IoError("cannot open report '" + path + "'");
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::vector<SchedulerPick> ServeCore::dispatch_log() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dispatch_log_;
}

void ServeCore::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) return;
    shutting_down_ = true;
    // Wake every in-flight cell through the cooperative path; their
    // results are discarded (never checkpointed), so the next daemon
    // resumes them from the last committed cell — bit-identically.
    for (auto& [id, job] : jobs_) {
      if (!terminal(job->state)) {
        job->cancel.request(robust::CancelReason::kExternal);
      }
    }
    cv_.notify_all();
  }
  pool_.wait_idle();
}

}  // namespace cadapt::serve
