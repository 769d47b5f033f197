// ServeCore: the daemon's multi-tenant job engine, socket-free so tests
// drive it in-process (docs/SERVE.md).
//
// One shared util::ThreadPool drives campaign::TrialScheduler, the loop
// `cadapt sweep` runs; a FairScheduler decides WHICH job's cell is
// admitted next (weighted round-robin across clients); per-job
// robust::CancelToken + Watchdog handle cancellation and deadlines;
// per-client robust::BudgetTracker caps total boxes. Each job is one
// append-only file in the Spool (src/serve/spool.hpp), and its report is
// rendered from that file on request. Every outcome (done, cancelled,
// failed) ends the file with its job_done line unless the file refused a
// commit; a restarted daemon restores each job from that line and
// resumes every other job from its file, read once.
//
// The invariant everything here serves: a job's final report is
// byte-identical to one-shot `cadapt sweep --no-timing` on the same
// manifest, regardless of tenant interleaving, restarts, or how slowly
// its subscriber drains — because cells are pure functions of the plan
// and the report is assembled by the same campaign::assemble_report.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/trial_scheduler.hpp"
#include "obs/sink.hpp"
#include "robust/budget.hpp"
#include "robust/cancel.hpp"
#include "robust/fault.hpp"
#include "robust/io.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/spool.hpp"
#include "util/thread_pool.hpp"

namespace cadapt::serve {

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,       ///< finalized (possibly truncated: deadline/budget)
  kCancelled = 3,  ///< client-cancelled; finalized truncated
  kFailed = 4,     ///< internal error (message in JobStatus::error)
};
const char* job_state_name(JobState state);

struct JobStatus {
  std::string id;
  std::string client;
  JobState state = JobState::kQueued;
  std::uint64_t config_hash = 0;
  std::uint64_t cells_total = 0;
  std::uint64_t cells_done = 0;
  bool truncated = false;
  robust::CancelReason reason = robust::CancelReason::kNone;
  std::string error;
};

/// The `job_accepted` line of a submit reply and of the trace.
obs::Event accepted_event(const JobStatus& status);

/// A job's status as the `status` reply's job_status line (typed
/// job_done: the job file's last record, the trace's and the results
/// stream's) and back; status_from_event throws util::ParseError for an
/// unknown state or reason.
obs::Event status_event(const JobStatus& status,
                        const char* type = "job_status");
JobStatus status_from_event(const obs::Event& event);

struct ServeOptions {
  std::string spool_dir;          ///< required
  /// Pool threads; 0 = hardware. Also the cap on admitted cells.
  std::uint64_t jobs = 0;
  /// Stream buffer capacity (lines) per subscribed job; a full buffer
  /// pauses THAT job's dispatch until the subscriber drains below half.
  std::uint64_t stream_buffer = 64;
  bool timing = true;             ///< false = byte-identity artifacts
  /// false = jobs queue but nothing dispatches until start(); the
  /// determinism tests use this to fix the submission set first.
  bool autostart = true;
  robust::IoBackend* io = nullptr;  ///< null = system_io()
  /// Telemetry: job_accepted / cell_scheduled / job_done in decision
  /// order, plus each job's CellLifecycle events. Null = disabled.
  obs::TraceSink* trace = nullptr;
};

class ServeCore {
 public:
  /// Opens (creating) the spool, restores every finished job from its
  /// file's last line and RESUMES every other one — the restart path is
  /// the constructor, not a special mode.
  explicit ServeCore(const ServeOptions& options);
  ~ServeCore();

  ServeCore(const ServeCore&) = delete;
  ServeCore& operator=(const ServeCore&) = delete;

  /// Accept a job: parse + expand the manifest, commit the job file's
  /// header, enqueue its cells. Throws util::ParseError on a malformed
  /// manifest (no job is created). Returns the accepted job's status.
  JobStatus submit(const SubmitRequest& request);

  /// Begin dispatching (no-op when autostart or already started).
  void start();

  std::vector<JobStatus> status() const;
  std::optional<JobStatus> status(const std::string& job) const;

  /// Client cancel: requests kExternal on the job's token, drops its
  /// undispatched cells, and finalizes a truncated report once in-flight
  /// cells unwind. False for unknown or already-terminal jobs.
  bool cancel(const std::string& job);

  /// Block until `job` reaches a terminal state. False if unknown.
  bool wait_job(const std::string& job);
  /// Block until no job is queued or running.
  void wait_idle();

  /// Streaming (one subscriber per job): attach() backfills the cells
  /// already committed (a terminal job's from its file, read outside the
  /// mutex) and buffers later sweep_cell lines in completion order;
  /// next_stream_lines blocks for the next line and drains every line
  /// buffered by then, returning none once the job is terminal and the
  /// buffer is drained (or the core shuts down); detach() drops the
  /// buffer and un-pauses. A subscriber that stops draining fills the
  /// bounded buffer and pauses ONLY its own job's dispatch (docs/SERVE.md,
  /// "Backpressure").
  bool attach(const std::string& job);
  std::vector<std::string> next_stream_lines(const std::string& job);
  void detach(const std::string& job);

  /// The finished report's bytes, rendered from the job file. Throws
  /// util::IoError when the job has no report (not terminal / failed).
  std::string report_bytes(const std::string& job) const;

  /// Graceful stop: discard in-flight cells (their checkpoints keep only
  /// committed results), leave every durable artifact for the next
  /// ServeCore to resume. Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Job;
  using ClaimedCell = campaign::ClaimedCell<Job*>;

  void resume_spool();
  /// `file` is the job file a restart read; empty for a submit.
  JobStatus init_job(const std::string& id, const SubmitRequest& request,
                     const campaign::Manifest& manifest, JobFile file);
  void work_loop();  // one per pool thread, until shutdown
  void wake();       // new work may be admissible or helpable (mutex held)
  std::shared_ptr<ClaimedCell> admit();  // the TrialScheduler's steps
  void finish(ClaimedCell& claimed);
  void abandon(Job& job);  // inside the catch of the cell's error
  void pace(Job& job);  // pause a full stream's job, resume it (mutex held)
  void truncate_job(Job& job, robust::CancelReason reason);  // mutex held
  /// Commit the job's outcome (sweep_env, job_done) and close its file:
  /// failed with `error` at once, else done or cancelled once its cells
  /// are all in or it is truncated and none is in flight (mutex held).
  void finalize(Job& job, const std::string& error = {});

  ServeOptions options_;
  robust::IoBackend& io_;
  Spool spool_;
  util::ThreadPool pool_;

  obs::SharedSink trace_;  ///< options_.trace, for every job's writes
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  FairScheduler scheduler_;
  std::map<std::string, std::unique_ptr<Job>> jobs_;
  /// Per-client box budgets, by client; a client without one is absent.
  std::map<std::string, std::unique_ptr<robust::BudgetTracker>> budgets_;
  std::uint64_t wake_ = 1;  ///< bumped by wake(); idle threads watch it
  bool started_ = false;
  bool shutting_down_ = false;
  campaign::TrialScheduler<Job*> trials_;
};

}  // namespace cadapt::serve
