#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iterator>
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

campaign::Manifest manifest_of(const SubmitRequest& request) {
  std::istringstream is(request.manifest_text);
  return campaign::parse_manifest(is);
}

std::unique_ptr<robust::FaultPlan> job_faults(
    const SubmitRequest& request, const campaign::Manifest& manifest) {
  if (request.fault_spec.empty()) return nullptr;
  return std::make_unique<robust::FaultPlan>(robust::FaultPlan::parse_spec(
      request.fault_spec, request.fault_seed != 0 ? request.fault_seed
                                                  : manifest.seed ^ 0xFA17ull));
}

// The job file's header. A resume and a report render rebuild it from the
// stored request, so a build whose fingerprint drifted is refused.
obs::Event job_header(const std::string& id, const SubmitRequest& request,
                      const campaign::Plan& plan) {
  obs::Event header = submit_event(request);  // manifest text included
  header.type = "serve_job";
  header.str("job", id)
      .u64("config_hash", plan.config_hash)
      .u64("cells", plan.cells.size())
      .str("run", campaign::run_fingerprint(
                      request.retries + 1,
                      job_faults(request, plan.manifest).get(), 0));
  return header;
}

}  // namespace

const char* job_state_name(JobState state) {
  const auto idx = static_cast<std::size_t>(state);
  CADAPT_CHECK(idx < kStateNames.size());
  return kStateNames[idx];
}

obs::Event accepted_event(const JobStatus& status) {
  obs::Event event("job_accepted");
  event.str("job", status.id)
      .str("client", status.client)
      .u64("config_hash", status.config_hash)
      .u64("cells", status.cells_total);
  return event;
}

obs::Event status_event(const JobStatus& status, const char* type) {
  obs::Event event(type);
  event.str("job", status.id)
      .str("client", status.client)
      .str("state", job_state_name(status.state))
      .u64("config_hash", status.config_hash)
      .u64("cells", status.cells_total)
      .u64("done", status.cells_done);
  if (status.truncated) {
    event.flag("truncated", true)
        .str("reason", robust::cancel_reason_name(status.reason));
  }
  if (!status.error.empty()) event.str("error", status.error);
  return event;
}

JobStatus status_from_event(const obs::Event& event) {
  const auto state = std::find(kStateNames.begin(), kStateNames.end(),
                               event.str_or("state", ""));
  const std::optional<robust::CancelReason> reason =
      robust::parse_cancel_reason(event.str_or("reason", "none"));
  if (state == kStateNames.end() || !reason.has_value()) {
    throw util::ParseError("malformed " + event.type + " line");
  }
  JobStatus status;
  status.id = event.str_or("job", "");
  status.client = event.str_or("client", "");
  status.state = static_cast<JobState>(state - kStateNames.begin());
  status.config_hash = event.u64_or("config_hash", 0);
  status.cells_total = event.u64_or("cells", 0);
  status.cells_done = event.u64_or("done", 0);
  status.truncated = event.flag_or("truncated", false);
  status.reason = *reason;
  status.error = event.str_or("error", "");
  return status;
}

// One tenant job. Heap-allocated and never erased from jobs_ while the
// core lives, so worker threads may hold pointers to its cancel token,
// faults and I/O backend outside the mutex (all immutable after init).
// finalize() drops its run state; a claimed cell keeps the CellLifecycle
// (plan, trace cache, job file) while it runs.
struct ServeCore::Job {
  JobStatus status;
  std::unique_ptr<robust::FaultPlan> faults;
  std::unique_ptr<robust::FaultyIo> faulty_io;
  robust::CancelToken cancel;
  std::unique_ptr<robust::Watchdog> watchdog;
  // Declared after all four, so destroyed before them: its job file
  // closes through faulty_io, its options point at faults and cancel.
  std::shared_ptr<campaign::CellLifecycle> cells;  // null once terminal
  std::map<std::uint64_t, std::string> committed;  // sweep_cell lines

  bool client_cancelled = false;
  std::uint64_t in_flight = 0;  // admitted cells not finished or abandoned
  std::uint64_t started_ns = 0;

  // Streaming (docs/SERVE.md, "Backpressure").
  bool subscriber = false;
  bool stream_paused = false;
  std::deque<std::string> stream;  // sweep_cell jsonl, completion order
  // A terminal job's file, read once by attach() for the backfill and
  // the report; dropped by detach().
  std::shared_ptr<const JobFile> file;
};

ServeCore::ServeCore(const ServeOptions& options)
    : options_(options),
      io_(options.io != nullptr ? *options.io : robust::system_io()),
      spool_(options.spool_dir),
      pool_(static_cast<std::size_t>(options.jobs)),
      trace_(options.trace),
      trials_({.admit = [this] { return admit(); },
               .admitted =
                   [this] {
                     const std::lock_guard<std::mutex> lock(mutex_);
                     wake();
                   },
               .finish = [this](ClaimedCell& claimed) { finish(claimed); },
               .abandon = [this](ClaimedCell& claimed) {
                 abandon(*claimed.owner);
               },
               .land_chunk =
                   [](ClaimedCell& claimed, std::uint64_t c) {
                     claimed.lifecycle->commit(claimed, c);
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
  for (const std::string& id : spool_.scan()) {
    const std::string path = spool_.path_for(id);
    // open_checkpoint's repair: a header cut before its '\n' leaves an
    // empty file, a submit never acknowledged, which is skipped.
    robust::truncate_torn_tail(path);
    const std::string last = robust::last_line(path);
    if (last.empty()) continue;
    // Terminal history: every outcome ends its file with job_done, which
    // status answers from; no cell is decoded, nothing is rescheduled.
    obs::Event done;
    if (obs::parse_jsonl(last, &done) && done.type == "job_done") {
      auto job = std::make_unique<Job>();
      job->status = status_from_event(done);
      const std::lock_guard<std::mutex> lock(mutex_);
      jobs_.emplace(id, std::move(job));
      continue;
    }
    JobFile file = read_job(path);
    const SubmitRequest request = submit_from_event(file.header);
    init_job(id, request, manifest_of(request), std::move(file));
  }
}

JobStatus ServeCore::submit(const SubmitRequest& request) {
  // Parse OUTSIDE the job registry: a malformed manifest throws
  // util::ParseError here and no job id, spool entry, or queue slot ever
  // exists for it.
  const campaign::Manifest manifest = manifest_of(request);
  // The request as the job file will read back (a weight of 0 reads as
  // 1), so a resume rebuilds the same header.
  const SubmitRequest stored = submit_from_event(submit_event(request));
  std::string id;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    CADAPT_CHECK_MSG(!shutting_down_, "serve core is shutting down");
    id = spool_.allocate_id();
  }
  return init_job(id, stored, manifest, {});
}

JobStatus ServeCore::init_job(const std::string& id,
                              const SubmitRequest& request,
                              const campaign::Manifest& manifest,
                              JobFile file) {
  auto plan = std::make_shared<const campaign::Plan>(
      campaign::expand_plan(manifest));
  auto job = std::make_unique<Job>();
  job->status.id = id;
  job->status.client = request.client;
  job->status.config_hash = plan->config_hash;
  job->status.cells_total = plan->cells.size();
  job->faults = job_faults(request, manifest);
  robust::IoBackend* io = &io_;
  if (job->faults != nullptr && robust::FaultyIo::plan_arms_io(*job->faults)) {
    job->faulty_io = std::make_unique<robust::FaultyIo>(io_,
                                                        job->faults.get());
    io = job->faulty_io.get();
  }

  // The job file, opened outside the mutex: no other tenant waits on
  // this job's disk. A resume refuses a header that differs from the one
  // rebuilt here. A submit commits its header and syncs the directory
  // before it is acknowledged, and empties the file when either fails
  // (a restart skips an empty file).
  const std::string path = spool_.path_for(id);
  const obs::Event header = job_header(id, request, *plan);
  std::unique_ptr<robust::DurableAppender> checkpoint;
  if (!file.header.type.empty()) {
    robust::check_header(path, file.header, header);
    checkpoint = std::make_unique<robust::DurableAppender>(path, false, *io);
  } else {
    try {
      checkpoint = robust::open_checkpoint(path, header, false, nullptr, *io);
      if (io->fsync_parent(path.c_str()) != 0) {
        throw util::IoError("fsync of parent directory of '" + path +
                            "' failed: " + std::strerror(errno));
      }
    } catch (const util::IoError&) {
      std::error_code ignored;  // a file never created stays absent
      std::filesystem::resize_file(path, 0, ignored);
      throw;
    }
  }
  for (const auto& [index, cell] : file.cells) {
    job->committed.emplace(index, obs::to_jsonl(campaign::cell_event(cell)));
  }
  job->status.cells_done = job->committed.size();

  campaign::CellRunOptions options = campaign::cell_options_from(manifest);
  options.timing = options_.timing;
  options.max_attempts = request.retries + 1;
  options.cancel = &job->cancel;
  options.faults = job->faults.get();
  job->cells = std::make_shared<campaign::CellLifecycle>(
      std::move(plan), std::move(options), std::move(checkpoint),
      std::move(file.trials), trace_);

  const std::lock_guard<std::mutex> lock(mutex_);
  // Per-client box budget: the tracker accrues across every job the
  // client submits; the first submit naming a budget creates it.
  if (request.box_budget != 0 && budgets_.count(request.client) == 0) {
    robust::Budget budget;
    budget.max_total_boxes = request.box_budget;
    budgets_.emplace(request.client,
                     std::make_unique<robust::BudgetTracker>(budget));
  }

  std::vector<std::size_t> pending;
  for (const campaign::Cell& cell : job->cells->plan().cells) {
    if (job->committed.count(cell.index) != 0) continue;
    pending.push_back(cell.index);
    job->cells->expect(cell);
  }
  const std::vector<std::size_t> order =
      campaign::capture_first(job->cells->plan(), pending);
  scheduler_.add_job(id, request.client, request.weight,
                     {order.begin(), order.end()});
  if (request.deadline_ms != 0) {
    // The deadline is wall clock from (re)admission — a restarted daemon
    // re-arms it in full, like any other watchdog.
    job->watchdog = std::make_unique<robust::Watchdog>(
        job->cancel, request.deadline_ms * 1'000'000ull);
  }
  if (options_.timing) job->started_ns = obs::steady_now_ns();
  trace_.write(accepted_event(job->status));
  Job& ref = *job;
  jobs_.emplace(id, std::move(job));
  finalize(ref);  // a fully-checkpointed job finishes right here
  wake();
  return ref.status;
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
    const auto budget = budgets_.find(job.status.client);
    if (budget != budgets_.end() && budget->second->exceeded()) {
      truncate_job(job, robust::CancelReason::kBudget);
      continue;
    }
    job.status.state = JobState::kRunning;
    ++job.in_flight;
    obs::Event event("cell_scheduled");
    event.str("job", pick->job).u64("cell", pick->cell);
    trace_.write(event);
    // The runner is built OUTSIDE the mutex (a shuffled cell's census is
    // real work, and tenants must not serialize on it).
    const std::shared_ptr<campaign::CellLifecycle> cells = job.cells;
    lock.unlock();
    auto claimed = std::make_shared<ClaimedCell>();
    claimed->owner = &job;
    try {
      cells->claim(*claimed, cells->plan().cells[pick->cell]);
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
  // Aggregate and commit OUTSIDE the mutex, through the job's own commit
  // lock: a tenant's fsync stalls no other tenant, nor status or attach.
  campaign::CellLifecycle::Landed landed = claimed.lifecycle->land(claimed);

  const std::lock_guard<std::mutex> lock(mutex_);
  --job.in_flight;  // only now: finalize can never overtake the commit
  cv_.notify_all();
  // After shutdown the committed cell waits in the file for a restart; a
  // terminal job's file is closed, so its stragglers committed nothing.
  if (shutting_down_ || terminal(job.status.state)) return;
  if (const auto budget = budgets_.find(job.status.client);
      budget != budgets_.end()) {
    budget->second->add_boxes(landed.boxes);
  }
  job.committed.emplace(claimed.cell->index, landed.line);
  job.status.cells_done = job.committed.size();
  if (job.subscriber) job.stream.push_back(std::move(landed.line));
  pace(job);
  finalize(job);
}

void ServeCore::abandon(Job& job) {
  const std::lock_guard<std::mutex> lock(mutex_);
  --job.in_flight;
  cv_.notify_all();
  if (shutting_down_ || terminal(job.status.state)) return;
  try {
    throw;  // the cell's first error, still being handled
  } catch (const robust::CancelledError& e) {
    // The interrupted cell is discarded wholesale — a partially executed
    // cell must never reach the checkpoint or the report (same contract
    // as run_sweep). Committed cells survive for resume.
    truncate_job(job, e.reason());
  } catch (const std::exception& e) {
    finalize(job, e.what());
  }
}

// Backpressure: a subscriber that stopped draining pauses ONLY its own
// job's admission; draining or detaching resumes it.
void ServeCore::pace(Job& job) {
  const bool full = job.subscriber && !terminal(job.status.state) &&
                    job.stream.size() >= options_.stream_buffer;
  if (full == job.stream_paused) return;
  job.stream_paused = full;
  if (full) {
    scheduler_.pause_job(job.status.id);
  } else {
    scheduler_.resume_job(job.status.id);
    wake();
  }
}

void ServeCore::truncate_job(Job& job, robust::CancelReason reason) {
  JobStatus& status = job.status;
  if (terminal(status.state)) return;
  status.truncated = true;
  if (status.reason == robust::CancelReason::kNone) status.reason = reason;
  scheduler_.remove_job(status.id);
  finalize(job);
}

void ServeCore::finalize(Job& job, const std::string& error) {
  JobStatus status = job.status;
  const bool complete = job.in_flight == 0 &&
                        (status.truncated ||
                         status.cells_done == status.cells_total);
  if (terminal(status.state) || (error.empty() && !complete)) return;
  status.state = !error.empty()       ? JobState::kFailed
                 : job.client_cancelled ? JobState::kCancelled
                                        : JobState::kDone;
  status.error = error;
  obs::Event done = status_event(status, "job_done");
  done.u64("wall_ms", options_.timing && job.started_ns != 0
                          ? (obs::steady_now_ns() - job.started_ns) / 1000000u
                          : 0);
  // The one commit made under the mutex: the terminal state must not be
  // seen before it is durable. This build's provenance (the report's
  // sweep_env, so a later build with the same header renders the same
  // bytes), then the status a restart reads back; the file then closes,
  // so a failed job's stragglers commit nothing. A file that refused a
  // commit refuses this one too: the job fails, and a restart goes by
  // what the file holds (docs/SERVE.md, "Crash safety").
  try {
    job.cells->close({campaign::provenance_event(), done});
  } catch (const util::IoError& e) {
    // The file is closed now, so this commits nothing.
    finalize(job, error.empty() ? e.what() : error);
    return;
  }
  job.status = status;
  if (!error.empty()) job.cancel.request(robust::CancelReason::kExternal);
  // Drop the run state; a claimed cell keeps the CellLifecycle it needs.
  scheduler_.remove_job(status.id);
  job.cells = nullptr;
  job.watchdog = nullptr;
  job.committed = {};
  cv_.notify_all();
  trace_.write(done);
}

std::vector<JobStatus> ServeCore::status() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(job->status);
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
  return it->second->status;
}

bool ServeCore::cancel(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || terminal(it->second->status.state)) return false;
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
    return shutting_down_ || terminal(job.status.state);
  });
  return true;
}

void ServeCore::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] {
    if (shutting_down_) return true;
    for (const auto& [id, job] : jobs_) {
      if (!terminal(job->status.state)) return false;
    }
    return true;
  });
}

bool ServeCore::attach(const std::string& id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  if (job.subscriber) return true;
  // Backfill the cells committed before the subscriber arrived, in plan
  // order: a late `results` call still sees one line per cell. A terminal
  // job holds none: its file is read outside the mutex (it is never
  // written again).
  const bool finished = terminal(job.status.state);
  std::map<std::uint64_t, std::string> lines;
  if (finished) {
    lock.unlock();
    auto file = std::make_shared<const JobFile>(read_job(spool_.path_for(id)));
    for (const auto& [index, cell] : file->cells) {
      lines.emplace(index, obs::to_jsonl(campaign::cell_event(cell)));
    }
    lock.lock();
    if (job.subscriber) return true;
    job.file = std::move(file);
  }
  job.subscriber = true;
  job.stream.clear();
  for (const auto& [index, line] : finished ? lines : job.committed) {
    job.stream.push_back(line);
  }
  pace(job);
  cv_.notify_all();
  return true;
}

std::vector<std::string> ServeCore::next_stream_lines(const std::string& id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return {};
  Job& job = *it->second;
  cv_.wait(lock, [this, &job] {
    return shutting_down_ || !job.stream.empty() ||
           terminal(job.status.state);
  });
  std::vector<std::string> lines(std::make_move_iterator(job.stream.begin()),
                                 std::make_move_iterator(job.stream.end()));
  job.stream.clear();
  pace(job);
  return lines;
}

void ServeCore::detach(const std::string& id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  Job& job = *it->second;
  job.subscriber = false;
  job.stream.clear();
  job.file = nullptr;
  pace(job);
}

std::string ServeCore::report_bytes(const std::string& id) const {
  std::shared_ptr<const JobFile> file;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) throw util::IoError("unknown job '" + id + "'");
    const JobState state = it->second->status.state;
    if (state != JobState::kDone && state != JobState::kCancelled) {
      throw util::IoError("job '" + id + "' has no report (state " +
                          job_state_name(state) + ")");
    }
    file = it->second->file;
  }
  const std::string path = spool_.path_for(id);
  // Rendered from the job file, outside the mutex: the one path for jobs
  // finished live and jobs restored by a restart.
  if (file == nullptr) file = std::make_shared<const JobFile>(read_job(path));
  const SubmitRequest request = submit_from_event(file->header);
  const campaign::Plan plan = campaign::expand_plan(manifest_of(request));
  robust::check_header(path, file->header, job_header(id, request, plan));
  CADAPT_CHECK_MSG(file->done.has_value(), "job file without job_done");
  const JobStatus status = status_from_event(*file->done);
  std::vector<campaign::CellResult> cells;
  for (const auto& [index, cell] : file->cells) cells.push_back(cell);
  campaign::Report report = campaign::assemble_report(
      plan, std::move(cells), 1, 0, status.truncated, status.reason,
      file->done->u64_or("wall_ms", 0));
  report.env = file->env;
  std::ostringstream os;
  campaign::write_report(os, report);
  return os.str();
}


void ServeCore::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) return;
    shutting_down_ = true;
    // Wake every in-flight cell through the cooperative path: a
    // cancelled cell is discarded whole, and one whose last trial still
    // lands is committed, so the next daemon resumes from the committed
    // cells — bit-identically.
    for (auto& [id, job] : jobs_) {
      if (!terminal(job->status.state)) {
        job->cancel.request(robust::CancelReason::kExternal);
      }
    }
    cv_.notify_all();
  }
  pool_.wait_idle();
}

}  // namespace cadapt::serve
