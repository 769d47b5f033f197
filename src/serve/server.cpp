#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <utility>

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
  std::uint64_t in_flight = 0;
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
      pool_(static_cast<std::size_t>(options.jobs)) {
  slots_ = options_.slots != 0 ? options_.slots
                               : static_cast<std::uint64_t>(pool_.size());
  started_ = options_.autostart;
  resume_spool();
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
  pump();
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
  pump();
  cv_.notify_all();
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
  const std::string run =
      campaign::run_fingerprint(request.retries + 1, job->faults.get(), 0);
  robust::truncate_torn_tail(files.checkpoint_path);
  job->checkpoint = std::make_unique<robust::DurableAppender>(
      files.checkpoint_path, /*truncate=*/!resuming, *job->io);
  if (resuming) {
    job->results = campaign::load_sweep_checkpoint(files.checkpoint_path,
                                                   job->plan, 1, 0, run);
  }
  if (job->checkpoint->initial_size() == 0) {
    obs::to_jsonl(campaign::sweep_checkpoint_header(job->plan, 1, 0, run),
                  line_buf_);
    job->checkpoint->write(line_buf_);
    job->checkpoint->write("\n");
    job->checkpoint->commit();
  }

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
  pump();
}

void ServeCore::pump() {
  if (!started_ || shutting_down_) return;
  while (in_flight_ < slots_) {
    // Pre-empt doomed picks: a cancelled job or an over-budget client
    // truncates HERE, at a dispatch boundary — a deterministic function
    // of the work actually dispatched, never of wall clocks.
    const std::optional<SchedulerPick> pick = scheduler_.next();
    if (!pick.has_value()) break;
    Job& job = *jobs_.at(pick->job);
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
    ++in_flight_;
    if (options_.trace != nullptr) {
      obs::Event event("cell_scheduled");
      event.str("job", pick->job).u64("cell", pick->cell);
      options_.trace->write(event);
    }
    pool_.submit([this, id = pick->job, cell = pick->cell] {
      run_one(id, cell);
    });
  }
}

void ServeCore::run_one(const std::string& id, std::uint64_t cell_index) {
  const campaign::Cell* cell = nullptr;
  campaign::CellRunOptions cell_options;
  std::uint64_t config_hash = 0;
  bool unit_progress = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      Job& job = *jobs_.at(id);
      --job.in_flight;
      --in_flight_;
      cv_.notify_all();
      return;
    }
    const Job& job = *jobs_.at(id);
    cell = &job.plan.cells[cell_index];
    cell_options = job.cell_options;
    config_hash = job.config_hash;
    unit_progress = job.plan.manifest.unit_progress;
    // A job asking for intra-cell workers (manifest `workers` key,
    // docs/PARALLEL.md) gets its fair share of the daemon's pool, not
    // the full count times every in-flight cell: clamp to pool size /
    // in-flight cells (>= 1). The clamp is timing-dependent — safe,
    // because workers never affects a cell's result bytes.
    const std::uint64_t share =
        static_cast<std::uint64_t>(pool_.size()) /
        std::max<std::uint64_t>(1, in_flight_);
    cell_options.workers =
        std::min(cell_options.workers, std::max<std::uint64_t>(1, share));
  }

  // The cell itself runs OUTSIDE the mutex — this is where the wall
  // time goes, and tenants must not serialize on each other here.
  std::vector<robust::TrialRecord> records;
  bool cancelled = false;
  robust::CancelReason cancel_reason = robust::CancelReason::kNone;
  std::string error;
  try {
    records = campaign::run_cell(*cell, cell_options);
  } catch (const robust::CancelledError& e) {
    cancelled = true;
    cancel_reason = e.reason();
  } catch (const std::exception& e) {
    error = e.what();
  }
  campaign::CellResult result;
  std::uint64_t boxes = 0;
  if (!cancelled && error.empty()) {
    for (const robust::TrialRecord& record : records) boxes += record.boxes;
    result = campaign::aggregate_cell(*cell, records, config_hash,
                                      unit_progress);
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  Job& job = *jobs_.at(id);
  --job.in_flight;
  --in_flight_;
  if (shutting_down_) {
    cv_.notify_all();
    return;
  }
  if (terminal(job.state)) {
    // A failed job's stragglers unwind without touching its artifacts.
    cv_.notify_all();
    return;
  }
  if (cancelled) {
    // The interrupted cell is discarded wholesale — a partially executed
    // cell must never reach the checkpoint or the report (same contract
    // as run_sweep). Committed cells survive for resume.
    truncate_job(job, cancel_reason);
  } else if (!error.empty()) {
    fail_job(job, error);
  } else {
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
          // stops dispatching. Nobody else's queue position moves.
          job.stream_paused = true;
          scheduler_.pause_job(id);
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
  pump();
  cv_.notify_all();
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
    pump();
    cv_.notify_all();
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
    pump();
    cv_.notify_all();
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
