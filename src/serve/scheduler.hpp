// Deterministic fair-share scheduling across tenants (docs/SERVE.md,
// "Scheduling model").
//
// Smooth weighted round-robin over CLIENTS (the nginx variant): each
// pick credits every eligible client its weight, dispatches the client
// with the highest credit (ties broken by first-submission order), and
// debits the winner the total eligible weight. Within a client, jobs
// dispatch FIFO by submission; within a job, cells dispatch in the order
// add_job lists them (ServeCore: campaign::capture_first). The pick
// sequence is therefore a pure function of the
// add/pause/resume/remove call sequence — never of worker completion
// timing — which is what makes the daemon's dispatch order reproducible
// across pool sizes 1/2/8 (the serve determinism tests) and a resumed
// daemon's dispatch a replay of the original's.
//
// Not thread-safe: ServeCore calls it under its own mutex. No internal
// threads, no clocks — a pure data structure.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

namespace cadapt::serve {

/// One dispatch decision: run `cell` (a plan cell index) of `job`.
struct SchedulerPick {
  std::string job;
  std::uint64_t cell = 0;

  bool operator==(const SchedulerPick&) const = default;
};

class FairScheduler {
 public:
  /// Register a job with its pending cells (already in dispatch order).
  /// The first job of a new client fixes the client's queue position;
  /// `weight` (>= 1, clamped) updates the client's WRR weight.
  void add_job(const std::string& job, const std::string& client,
               std::uint64_t weight, std::vector<std::uint64_t> cells);

  /// Drop a job's undispatched cells (client cancel, deadline, budget
  /// trip, failure). Unknown/already-drained jobs are a no-op.
  void remove_job(const std::string& job);

  /// Backpressure seam: a paused job is skipped by next() — its client
  /// simply stops being eligible through it — without perturbing any
  /// other job's dispatch order. Unknown jobs are a no-op.
  void pause_job(const std::string& job);
  void resume_job(const std::string& job);

  /// True when next() would return nullopt (no dispatchable cell).
  bool empty() const;
  /// Undispatched cells across all jobs, paused included.
  std::uint64_t pending() const;

  /// The next (job, cell) to dispatch, or nullopt when none is eligible.
  std::optional<SchedulerPick> next();

 private:
  struct JobQueue {
    std::string id;
    std::deque<std::uint64_t> cells;
    bool paused = false;
  };
  struct ClientQueue {
    std::string id;
    std::uint64_t weight = 1;
    std::int64_t credit = 0;
    std::vector<JobQueue> jobs;  // FIFO by submission

    bool eligible() const {
      for (const JobQueue& job : jobs) {
        if (!job.paused && !job.cells.empty()) return true;
      }
      return false;
    }
  };

  JobQueue* find_job(const std::string& job);

  std::vector<ClientQueue> clients_;  // first-submission order
};

}  // namespace cadapt::serve
