// The serve subsystem (docs/SERVE.md): fair-share scheduler unit tests,
// protocol round-trips, spool durability, and ServeCore end-to-end
// drills — above all the headline invariant, asserted at the BYTE level
// throughout: a job's final report equals one-shot run_sweep on the same
// manifest regardless of tenant interleaving, pool size, backpressure,
// cancellation of a NEIGHBOR, or a daemon restart mid-job.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/sweep.hpp"
#include "obs/sink.hpp"
#include "robust/cancel.hpp"
#include "robust/checkpoint.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/socket.hpp"
#include "serve/spool.hpp"
#include "util/check.hpp"

namespace cadapt::serve {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// A fresh directory for one test's spool (removed from prior runs).
std::string fresh_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// Ratio-workload manifests sized for the scenario: kSmall finishes in
// milliseconds; kWide has 12 cells (two algos) so backpressure can pause
// a job long before it drains; kSlow is heavy enough that a deadline
// always fires mid-run.
const char kSmall[] =
    "name = serve_small\nalgos = 4:2:1\nprofiles = shuffled\n"
    "k = 1..3\ntrials = 4\nseed = 5\n";
const char kSix[] =
    "name = serve_six\nalgos = 4:2:1\nprofiles = shuffled\n"
    "k = 1..6\ntrials = 8\nseed = 7\n";
const char kWide[] =
    "name = serve_wide\nalgos = 4:2:1 8:2:1\nprofiles = shuffled\n"
    "k = 1..6\ntrials = 8\nseed = 9\n";
const char kSlow[] =
    "name = serve_slow\nalgos = 4:2:1\nprofiles = shuffled\n"
    "k = 1..9\ntrials = 2000\nseed = 11\n";

/// The reference artifact: one-shot run_sweep, timing off, committed via
/// the same writer the daemon uses.
std::string one_shot_bytes(const std::string& manifest_text,
                           const std::string& tag) {
  std::istringstream is(manifest_text);
  const campaign::Plan plan =
      campaign::expand_plan(campaign::parse_manifest(is));
  campaign::SweepOptions options;
  options.timing = false;
  const campaign::Report report = campaign::run_sweep(plan, options);
  const std::string path = temp_path("serve_oneshot_" + tag + ".json");
  campaign::write_report_file(path, report);
  return read_file(path);
}

/// A finished job's report, parsed back into rows.
campaign::Report parsed_report(const ServeCore& core, const std::string& id) {
  std::istringstream is(core.report_bytes(id));
  return campaign::load_report(is);
}

ServeOptions core_options(const std::string& tag) {
  ServeOptions options;
  options.spool_dir = fresh_dir("serve_spool_" + tag);
  options.timing = false;
  return options;
}

SubmitRequest request_for(const std::string& manifest_text,
                          const std::string& client,
                          std::uint64_t weight = 1) {
  SubmitRequest request;
  request.manifest_text = manifest_text;
  request.client = client;
  request.weight = weight;
  return request;
}

/// Every line a subscriber receives until the stream ends.
std::vector<std::string> drain_stream(ServeCore& core, const std::string& id) {
  std::vector<std::string> all;
  for (std::vector<std::string> lines = core.next_stream_lines(id);
       !lines.empty(); lines = core.next_stream_lines(id)) {
    all.insert(all.end(), lines.begin(), lines.end());
  }
  return all;
}

// ---- FairScheduler ---------------------------------------------------

std::vector<std::string> pick_jobs(FairScheduler& scheduler, int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    const std::optional<SchedulerPick> pick = scheduler.next();
    if (!pick.has_value()) break;
    out.push_back(pick->job);
  }
  return out;
}

TEST(FairScheduler, SmoothWeightedRoundRobin) {
  // Weights 2:1 must yield the SMOOTH pattern A B A, not the bursty
  // A A B — interleaving is what keeps a heavy tenant from monopolizing
  // consecutive slots.
  FairScheduler s;
  s.add_job("A", "alice", 2, {0, 1, 2, 3, 4, 5});
  s.add_job("B", "bob", 1, {0, 1, 2});
  EXPECT_EQ(pick_jobs(s, 6),
            (std::vector<std::string>{"A", "B", "A", "A", "B", "A"}));
}

TEST(FairScheduler, EqualWeightsAlternate) {
  FairScheduler s;
  s.add_job("A", "alice", 1, {0, 1});
  s.add_job("B", "bob", 1, {0, 1});
  EXPECT_EQ(pick_jobs(s, 4),
            (std::vector<std::string>{"A", "B", "A", "B"}));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.next(), std::nullopt);
}

TEST(FairScheduler, TieBreaksOnEarliestSubmission) {
  // Three equal clients: every round replays submission order.
  FairScheduler s;
  s.add_job("A", "alice", 1, {0});
  s.add_job("B", "bob", 1, {0});
  s.add_job("C", "carol", 1, {0});
  EXPECT_EQ(pick_jobs(s, 3), (std::vector<std::string>{"A", "B", "C"}));
}

TEST(FairScheduler, PausedJobYieldsWithoutBanking) {
  FairScheduler s;
  s.add_job("A", "alice", 1, {0, 1, 2});
  s.add_job("B", "bob", 1, {0, 1, 2});
  s.pause_job("A");
  // Only B is eligible — and A accrues NO credit while paused, so on
  // resume it does not burst ahead of B to repay the absence.
  EXPECT_EQ(pick_jobs(s, 2), (std::vector<std::string>{"B", "B"}));
  s.resume_job("A");
  EXPECT_EQ(pick_jobs(s, 2), (std::vector<std::string>{"A", "B"}));
}

TEST(FairScheduler, SameClientJobsRunInSubmissionOrder) {
  FairScheduler s;
  s.add_job("A1", "alice", 1, {0, 1});
  s.add_job("A2", "alice", 1, {0, 1});
  // One client, two jobs: FIFO within the client's queue.
  EXPECT_EQ(pick_jobs(s, 4),
            (std::vector<std::string>{"A1", "A1", "A2", "A2"}));
}

TEST(FairScheduler, RemoveJobDropsPendingCells) {
  FairScheduler s;
  s.add_job("A", "alice", 1, {0, 1, 2});
  s.add_job("B", "bob", 1, {0});
  s.remove_job("A");
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(pick_jobs(s, 2), (std::vector<std::string>{"B"}));
}

// ---- protocol --------------------------------------------------------

TEST(ServeProtocol, SubmitRoundTripsThroughJsonl) {
  SubmitRequest request;
  request.manifest_text = std::string(kSmall);  // embedded newlines
  request.client = "alice";
  request.weight = 3;
  request.deadline_ms = 1500;
  request.box_budget = 42;
  request.fault_spec = "trial_body=0.5";
  request.fault_seed = 99;
  request.retries = 2;
  const obs::Event wire = parse_line(obs::to_jsonl(submit_event(request)));
  EXPECT_EQ(submit_from_event(wire), request);
}

TEST(ServeProtocol, MinimalSubmitOmitsDefaults) {
  const obs::Event event = submit_event(request_for(kSmall, "anon"));
  EXPECT_EQ(event.find("weight"), nullptr);
  EXPECT_EQ(event.find("deadline_ms"), nullptr);
  EXPECT_EQ(event.find("fault"), nullptr);
  EXPECT_EQ(submit_from_event(event), request_for(kSmall, "anon"));
}

TEST(ServeProtocol, VersionEventCarriesVersions) {
  const obs::Event event = version_event("serve_hello");
  EXPECT_EQ(event.type, "serve_hello");
  EXPECT_EQ(event.u64_or("protocol", 0), kProtocolVersion);
  EXPECT_EQ(event.u64_or("report", 0), kReportVersion);
  EXPECT_NE(event.str_or("version", ""), "");
  EXPECT_NE(event.str_or("compiler", ""), "");
}

TEST(ServeProtocol, ParseLineRejectsGarbage) {
  EXPECT_THROW(parse_line("not json"), util::ParseError);
}

// ---- spool -----------------------------------------------------------

/// A job file holding a header line only, as a submit leaves it.
void persist_header(const Spool& spool, const std::string& id,
                    const SubmitRequest& request) {
  obs::Event header = submit_event(request);
  header.type = "serve_job";
  std::ofstream(spool.path_for(id)) << obs::to_jsonl(header) << "\n";
}

TEST(Spool, PersistScanAndIdAllocationSurviveReopen) {
  const std::string dir = fresh_dir("spool_unit");
  {
    Spool spool(dir);
    EXPECT_TRUE(spool.scan().empty());
    const std::string id1 = spool.allocate_id();
    const std::string id2 = spool.allocate_id();
    EXPECT_EQ(id1, "job-1");
    EXPECT_EQ(id2, "job-2");
    persist_header(spool, id2, request_for(kSmall, "bob"));
    persist_header(spool, id1, request_for(kSix, "alice"));
  }
  Spool reopened(dir);
  const std::vector<std::string> jobs = reopened.scan();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0], "job-1");  // numeric order = submission order
  EXPECT_EQ(jobs[1], "job-2");
  const JobFile first = read_job(reopened.path_for(jobs[0]));
  EXPECT_EQ(submit_from_event(first.header).manifest_text, kSix);
  EXPECT_FALSE(first.done.has_value());  // not finalized
  EXPECT_EQ(submit_from_event(read_job(reopened.path_for(jobs[1])).header)
                .client,
            "bob");
  // Ids continue past everything on disk — never reused after restart.
  EXPECT_EQ(reopened.allocate_id(), "job-3");
}

// ---- ServeCore -------------------------------------------------------

TEST(ServeCore, ReportIsByteIdenticalToOneShotSweep) {
  ServeCore core(core_options("identity"));
  const JobStatus accepted = core.submit(request_for(kSmall, "alice"));
  EXPECT_EQ(accepted.cells_total, 3u);
  ASSERT_TRUE(core.wait_job(accepted.id));
  const std::optional<JobStatus> done = core.status(accepted.id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->state, JobState::kDone);
  EXPECT_EQ(core.report_bytes(accepted.id),
            one_shot_bytes(kSmall, "identity"));
}

TEST(ServeCore, MalformedManifestIsRejectedWithoutAJob) {
  ServeOptions options = core_options("reject");
  ServeCore core(options);
  EXPECT_THROW(core.submit(request_for("name = x\nalgoz = 4:2:1\n", "a")),
               util::ParseError);
  EXPECT_THROW(
      core.submit(request_for("name = x\nseed = 1\nseed = 2\n", "a")),
      util::ParseError);
  EXPECT_TRUE(core.status().empty());
  // Nothing was spooled either — a rejected submit leaves no trace to
  // resume.
  EXPECT_TRUE(Spool(options.spool_dir).scan().empty());
}

/// One full multi-tenant run at a given pool size: three clients with
/// 2:1:1 weights, submissions fixed BEFORE dispatch starts.
struct MultiTenantRun {
  std::vector<SchedulerPick> dispatch;
  std::map<std::string, std::string> report_bytes;  // client -> bytes
};

MultiTenantRun run_multi_tenant(const std::string& tag, std::uint64_t jobs) {
  ServeOptions options = core_options(tag);
  options.jobs = jobs;
  options.autostart = false;
  // Every admitted cell is one cell_scheduled event, in admission order.
  obs::MemorySink trace;
  options.trace = &trace;
  ServeCore core(options);
  const JobStatus a = core.submit(request_for(kSix, "alice", 2));
  const JobStatus b = core.submit(request_for(kSmall, "bob", 1));
  const JobStatus c = core.submit(request_for(kWide, "carol", 1));
  core.start();
  core.wait_idle();
  MultiTenantRun run;
  for (const obs::Event& event : trace.events()) {
    if (event.type != "cell_scheduled") continue;
    run.dispatch.push_back(
        {event.str_or("job", ""), event.u64_or("cell", UINT64_MAX)});
  }
  run.report_bytes["alice"] = core.report_bytes(a.id);
  run.report_bytes["bob"] = core.report_bytes(b.id);
  run.report_bytes["carol"] = core.report_bytes(c.id);
  return run;
}

TEST(ServeCore, DispatchOrderAndReportsAreIdenticalAcrossPoolSizes) {
  // The determinism pillar: the WRR pick sequence is a pure function of
  // the submission set, so pool sizes 1, 2, and 8 must produce the SAME
  // sequence of cell_scheduled events — and byte-identical reports.
  const MultiTenantRun p1 = run_multi_tenant("det_p1", 1);
  const MultiTenantRun p2 = run_multi_tenant("det_p2", 2);
  const MultiTenantRun p8 = run_multi_tenant("det_p8", 8);
  EXPECT_EQ(p1.dispatch.size(), 6u + 3u + 12u);  // every cell of a, b, c
  EXPECT_EQ(p1.dispatch, p2.dispatch);
  EXPECT_EQ(p1.dispatch, p8.dispatch);
  EXPECT_EQ(p1.report_bytes, p2.report_bytes);
  EXPECT_EQ(p1.report_bytes, p8.report_bytes);
  // And the shared pool never degraded anyone to non-one-shot bytes.
  EXPECT_EQ(p1.report_bytes.at("alice"), one_shot_bytes(kSix, "det_a"));
  EXPECT_EQ(p1.report_bytes.at("bob"), one_shot_bytes(kSmall, "det_b"));
  EXPECT_EQ(p1.report_bytes.at("carol"), one_shot_bytes(kWide, "det_c"));
}

TEST(ServeCore, FaultsAndCancellationNeverPerturbANeighborsReport) {
  // Tenant isolation: alice's job takes injected trial faults, bob's is
  // cancelled outright — carol's report must still be byte-equal to a
  // solo one-shot run.
  ServeOptions options = core_options("isolation");
  options.autostart = false;
  ServeCore core(options);
  SubmitRequest faulty = request_for(kSix, "alice");
  faulty.fault_spec = "trial_body=0.5";
  faulty.fault_seed = 3;
  faulty.retries = 1;
  const JobStatus a = core.submit(faulty);
  const JobStatus b = core.submit(request_for(kSmall, "bob"));
  const JobStatus c = core.submit(request_for(kWide, "carol"));
  EXPECT_TRUE(core.cancel(b.id));
  EXPECT_FALSE(core.cancel(b.id));  // already terminal
  core.start();
  core.wait_idle();

  EXPECT_EQ(core.status(a.id)->state, JobState::kDone);
  const JobStatus cancelled = *core.status(b.id);
  EXPECT_EQ(cancelled.state, JobState::kCancelled);
  EXPECT_TRUE(cancelled.truncated);
  EXPECT_EQ(cancelled.reason, robust::CancelReason::kExternal);
  // The cancelled job still has a (truncated) report.
  const campaign::Report truncated_report = parsed_report(core, b.id);
  EXPECT_TRUE(truncated_report.truncated);
  EXPECT_EQ(core.report_bytes(c.id), one_shot_bytes(kWide, "isolation_c"));
}

TEST(ServeCore, BackpressurePausesOnlyTheSlowSubscribersJob) {
  ServeOptions options = core_options("backpressure");
  options.jobs = 2;
  options.stream_buffer = 4;
  options.autostart = false;
  ServeCore core(options);
  const JobStatus a = core.submit(request_for(kWide, "alice"));  // 12 cells
  const JobStatus b = core.submit(request_for(kSix, "bob"));
  ASSERT_TRUE(core.attach(a.id));
  core.start();
  // The subscriber never drains, so alice's job fills its 4-line buffer
  // and pauses — while bob's runs to completion unimpeded.
  ASSERT_TRUE(core.wait_job(b.id));
  EXPECT_EQ(core.status(b.id)->state, JobState::kDone);
  const JobStatus stalled = *core.status(a.id);
  EXPECT_EQ(stalled.state, JobState::kRunning);
  // Paused at 4 buffered lines plus at most the in-flight slots.
  EXPECT_LE(stalled.cells_done, 4u + options.jobs);
  EXPECT_LT(stalled.cells_done, stalled.cells_total);
  // Draining resumes dispatch; every cell line arrives exactly once.
  EXPECT_EQ(drain_stream(core, a.id).size(), stalled.cells_total);
  ASSERT_TRUE(core.wait_job(a.id));
  EXPECT_EQ(core.report_bytes(a.id), one_shot_bytes(kWide, "backpressure"));
}

TEST(ServeCore, ClientBoxBudgetTruncatesDeterministically) {
  ServeOptions options = core_options("budget");
  options.jobs = 1;  // slots=1: the truncation point is the 2nd dispatch
  ServeCore core(options);
  SubmitRequest request = request_for(kSix, "alice");
  request.box_budget = 1;  // exceeded by the first completed cell
  const JobStatus accepted = core.submit(request);
  ASSERT_TRUE(core.wait_job(accepted.id));
  const JobStatus done = *core.status(accepted.id);
  EXPECT_EQ(done.state, JobState::kDone);
  EXPECT_TRUE(done.truncated);
  EXPECT_EQ(done.reason, robust::CancelReason::kBudget);
  EXPECT_EQ(done.cells_done, 1u);
  const campaign::Report report = parsed_report(core, accepted.id);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.truncate_reason, robust::CancelReason::kBudget);
  EXPECT_EQ(report.cells.size(), 1u);
}

TEST(ServeCore, DeadlineTruncatesMidRun) {
  ServeOptions options = core_options("deadline");
  options.jobs = 1;
  ServeCore core(options);
  SubmitRequest request = request_for(kSlow, "alice");
  request.deadline_ms = 30;  // kSlow needs far longer than this
  const JobStatus accepted = core.submit(request);
  ASSERT_TRUE(core.wait_job(accepted.id));
  const JobStatus done = *core.status(accepted.id);
  EXPECT_EQ(done.state, JobState::kDone);
  EXPECT_TRUE(done.truncated);
  EXPECT_EQ(done.reason, robust::CancelReason::kDeadline);
  EXPECT_LT(done.cells_done, done.cells_total);
}

TEST(ServeCore, RestartResumesToByteIdenticalReports) {
  // SIGKILL-shaped restart, in process: shut the core down mid-job
  // (in-flight cells are discarded, committed checkpoint cells survive),
  // then open a NEW core on the same spool. The resumed job must finish
  // with one-shot bytes.
  ServeOptions options = core_options("restart");
  options.jobs = 1;
  std::string id_a;
  std::string id_b;
  {
    ServeOptions first = options;
    first.autostart = false;  // guarantees shutdown lands mid-job
    ServeCore core(first);
    id_a = core.submit(request_for(kSix, "alice")).id;
    core.start();
    // Weight 0 reads back from the job file as 1: the resume must still
    // match the header it committed.
    id_b = core.submit(request_for(kSmall, "bob", /*weight=*/0)).id;
    core.shutdown();
  }
  ServeCore resumed(options);
  ASSERT_TRUE(resumed.wait_job(id_a));
  ASSERT_TRUE(resumed.wait_job(id_b));
  EXPECT_EQ(resumed.report_bytes(id_a), one_shot_bytes(kSix, "restart_a"));
  EXPECT_EQ(resumed.report_bytes(id_b),
            one_shot_bytes(kSmall, "restart_b"));
  // A second restart treats both as terminal history — nothing re-runs,
  // status still answers from the durable reports.
  ServeCore idle(options);
  idle.wait_idle();
  EXPECT_EQ(idle.status(id_a)->state, JobState::kDone);
  EXPECT_EQ(idle.status(id_a)->cells_done, 6u);
  EXPECT_EQ(idle.report_bytes(id_a), one_shot_bytes(kSix, "restart_a2"));
}

TEST(ServeCore, ACoreDestroyedMidJobClosesAnIoFaultedFileFirst) {
  // A job whose fault spec arms I/O faults writes its file through its
  // own FaultyIo. Destroying the core while that job is still queued or
  // running must close the file before the FaultyIo goes (ASan names the
  // other order). The rate is far below one fault per run.
  ServeOptions options = core_options("io_faulted_teardown");
  options.jobs = 2;
  SubmitRequest request = request_for(kSlow, "alice");
  request.fault_spec = "io_fsync=1e-12";
  std::string running;
  {
    ServeOptions queued = options;
    queued.autostart = false;
    ServeCore core(queued);
    core.submit(request);  // never admitted
  }
  {
    ServeCore core(options);  // resumes the queued job
    request.client = "bob";     // not queued behind alice's job
    running = core.submit(request).id;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (core.status(running)->state == JobState::kQueued &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_NE(core.status(running)->state, JobState::kQueued);
  }
  // Both files still read back: a later core restores both jobs, each
  // resumable (or done, had the core been slow to go).
  options.autostart = false;
  ServeCore restored(options);
  ASSERT_EQ(restored.status().size(), 2u);
  for (const JobStatus& job : restored.status()) {
    EXPECT_TRUE(job.state == JobState::kQueued ||
                job.state == JobState::kDone)
        << job.id;
  }
}

TEST(ServeCore, StreamDeliversEveryCellLineThenEnds) {
  ServeCore core(core_options("stream"));
  const JobStatus accepted = core.submit(request_for(kSmall, "alice"));
  ASSERT_TRUE(core.attach(accepted.id));
  const std::vector<std::string> lines = drain_stream(core, accepted.id);
  EXPECT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_EQ(parse_line(line).type, "sweep_cell");
  }
  core.detach(accepted.id);
  EXPECT_FALSE(core.attach("job-999"));
}

// ---- the job file ------------------------------------------------------

TEST(ServeCore, RestoredFinishedJobStreamsEveryCellLine) {
  // A job that finished before a restart holds nothing in memory: its
  // backlog is read back from its file, one line per cell, in plan order.
  const ServeOptions options = core_options("restored_stream");
  std::string id;
  {
    ServeCore core(options);
    id = core.submit(request_for(kSmall, "alice")).id;
    ASSERT_TRUE(core.wait_job(id));
  }
  ServeCore restored(options);
  ASSERT_TRUE(restored.attach(id));
  std::vector<std::uint64_t> indices;
  for (const std::string& line : drain_stream(restored, id)) {
    const obs::Event event = parse_line(line);
    EXPECT_EQ(event.type, "sweep_cell");
    indices.push_back(event.u64_or("index", 99));
  }
  EXPECT_EQ(indices, (std::vector<std::uint64_t>{0, 1, 2}));
  restored.detach(id);
  EXPECT_EQ(restored.report_bytes(id), one_shot_bytes(kSmall, "restored"));
}

/// Counts the durable syncs and the file opens and closes that go
/// through the backend.
class CountingIo final : public robust::IoBackend {
 public:
  int open_trunc(const char* path) override {
    ++opens;
    return inner_.open_trunc(path);
  }
  int open_append(const char* path) override {
    ++opens;
    return inner_.open_append(path);
  }
  std::int64_t write(int fd, const void* data, std::size_t size) override {
    return inner_.write(fd, data, size);
  }
  int fsync(int fd) override {
    ++syncs;
    return inner_.fsync(fd);
  }
  int close(int fd) override {
    ++closes;
    return inner_.close(fd);
  }
  std::int64_t seek_end(int fd) override { return inner_.seek_end(fd); }
  int rename(const char* from, const char* to) override {
    return inner_.rename(from, to);
  }
  int remove(const char* path) override { return inner_.remove(path); }
  int fsync_parent(const char* path) override {
    ++syncs;
    return inner_.fsync_parent(path);
  }

  std::atomic<std::uint64_t> syncs{0};
  std::atomic<std::uint64_t> opens{0};
  std::atomic<std::uint64_t> closes{0};

 private:
  robust::IoBackend& inner_ = robust::system_io();
};

TEST(ServeCore, AJobCostsItsCellsPlusThreeSyncsAndReleasesItsFile) {
  // k cells: the header commit and its directory sync, one commit per
  // cell, and one finalize commit. A finished job closes its file.
  CountingIo io;
  ServeOptions options = core_options("sync_count");
  options.io = &io;
  ServeCore core(options);
  const JobStatus accepted = core.submit(request_for(kSix, "alice"));
  ASSERT_TRUE(core.wait_job(accepted.id));
  EXPECT_EQ(io.syncs.load(), accepted.cells_total + 3);
  EXPECT_GT(io.opens.load(), 0u);
  EXPECT_EQ(io.opens.load(), io.closes.load());
  // One file per job, and nothing else in the spool.
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.spool_dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{accepted.id + ".ckpt"});
}

/// How long a call may take while a neighbor's fsync is held.
constexpr std::chrono::seconds kBound{5};

// A one-cell job: its single cell commit is the one the gate below holds.
const char kOne[] =
    "name = serve_one\nalgos = 4:2:1\nprofiles = shuffled\n"
    "k = 2\ntrials = 4\nseed = 3\n";

/// Holds the `hold`th fsync of one file (by default the second: its first
/// cell commit; the first is the header's) until release(); every other
/// call passes through.
class GatedIo final : public robust::IoBackend {
 public:
  explicit GatedIo(std::string path, int hold = 2)
      : path_(std::move(path)),
        hold_(hold),
        released_(release_.get_future().share()) {}

  int open_trunc(const char* path) override {
    return note(path, inner_.open_trunc(path));
  }
  int open_append(const char* path) override {
    return note(path, inner_.open_append(path));
  }
  std::int64_t write(int fd, const void* data, std::size_t size) override {
    return inner_.write(fd, data, size);
  }
  int fsync(int fd) override {
    if (fd == gated_fd_.load() && ++syncs_ == hold_) {
      held.set_value();
      released_.wait();
    }
    return inner_.fsync(fd);
  }
  int close(int fd) override { return inner_.close(fd); }
  std::int64_t seek_end(int fd) override { return inner_.seek_end(fd); }
  int rename(const char* from, const char* to) override {
    return inner_.rename(from, to);
  }
  int remove(const char* path) override { return inner_.remove(path); }
  int fsync_parent(const char* path) override {
    return inner_.fsync_parent(path);
  }

  void release() { release_.set_value(); }

  std::promise<void> held;  ///< set once the gated fsync is waiting

 private:
  int note(const char* path, int fd) {
    if (path_ == path) gated_fd_.store(fd);
    return fd;
  }

  const std::string path_;
  const int hold_;
  std::promise<void> release_;
  std::shared_future<void> released_;
  std::atomic<int> gated_fd_{-1};
  std::atomic<int> syncs_{0};
  robust::IoBackend& inner_ = robust::system_io();
};

TEST(ServeCore, ACommitBlockedInFsyncDoesNotBlockStatusOrANeighbor) {
  // A cell's commit runs outside the core lock: while job-1's cell fsync
  // hangs on a slow disk, status answers, job-2's submit is acknowledged
  // and job-2 lands a cell. Every wait is bounded, so a core that commits
  // under its lock fails here rather than hanging.
  ServeOptions options = core_options("fsync_gate");
  GatedIo io(Spool(options.spool_dir).path_for("job-1"));
  options.io = &io;
  options.jobs = 2;  // one thread waits in job-1's fsync, one is free
  ServeCore core(options);
  const std::string first = core.submit(request_for(kOne, "alice")).id;
  ASSERT_EQ(first, "job-1");
  std::future<void> held = io.held.get_future();
  if (held.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    io.release();
    FAIL() << "job-1's cell commit never reached its fsync";
  }
  auto status = std::async(std::launch::async, [&core] {
    return core.status().size();
  });
  EXPECT_EQ(status.wait_for(kBound), std::future_status::ready)
      << "status() waited on another job's fsync";
  auto second = std::async(std::launch::async, [&core] {
    return core.submit(request_for(kSmall, "bob")).id;
  });
  EXPECT_EQ(second.wait_for(kBound), std::future_status::ready)
      << "a submit waited on another job's fsync";
  auto landed = std::async(std::launch::async, [&core] {
    const auto deadline = std::chrono::steady_clock::now() + kBound;
    while (std::chrono::steady_clock::now() < deadline) {
      const std::optional<JobStatus> job = core.status("job-2");
      if (job.has_value() && job->cells_done > 0) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  });
  EXPECT_EQ(landed.wait_for(kBound + kBound), std::future_status::ready)
      << "job-2 landed no cell while job-1's fsync was held";
  io.release();
  EXPECT_TRUE(landed.get());
  const std::string id = second.get();
  ASSERT_TRUE(core.wait_job(first));
  ASSERT_TRUE(core.wait_job(id));
  EXPECT_EQ(core.report_bytes(first), one_shot_bytes(kOne, "fsync_gate_1"));
  EXPECT_EQ(core.report_bytes(id), one_shot_bytes(kSmall, "fsync_gate_2"));
}

TEST(ServeCore, OlderSpoolLayoutIsRefusedNamingTheFile) {
  // A spool of the four-files-per-job layout: refused at startup, never
  // blended with the one-file layout.
  const ServeOptions options = core_options("old_layout");
  std::filesystem::create_directories(options.spool_dir);
  std::ofstream(options.spool_dir + "/job-1.manifest") << kSmall;
  std::ofstream(options.spool_dir + "/job-1.job")
      << obs::to_jsonl(submit_event(request_for(kSmall, "alice"))) << "\n";
  try {
    ServeCore core(options);
    FAIL() << "a spool of the older layout was accepted";
  } catch (const util::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(options.spool_dir + "/job-1."),
              std::string::npos)
        << e.what();
  }
}

TEST(ServeCore, ACancelledJobStaysCancelledAcrossARestart) {
  // The restart finds the job_done line, however long the client name
  // it carries; missing it, the job would resume and run its cancelled
  // cells.
  ServeOptions options = core_options("cancelled_restart");
  options.autostart = false;
  std::string id;
  {
    ServeCore core(options);
    id = core.submit(request_for(kSix, std::string(6000, 'c'))).id;
    ASSERT_TRUE(core.cancel(id));
  }
  options.autostart = true;
  ServeCore restarted(options);
  restarted.wait_idle();
  const JobStatus status = *restarted.status(id);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_TRUE(status.truncated);
  EXPECT_EQ(status.reason, robust::CancelReason::kExternal);
  EXPECT_EQ(status.cells_done, 0u);
  EXPECT_TRUE(parsed_report(restarted, id).truncated);
}

/// What a core answers for a job: its status line, and its report bytes
/// or the named error report_bytes throws.
std::pair<std::string, std::string> answers(const ServeCore& core,
                                            const std::string& id) {
  const std::string status = obs::to_jsonl(status_event(*core.status(id)));
  try {
    return {status, core.report_bytes(id)};
  } catch (const util::IoError& e) {
    return {status, std::string("IoError: ") + e.what()};
  }
}

/// Runs `drive`'s job on `options`' spool to its end, shuts the core down,
/// and requires a new core (not started) to answer for it as the live
/// one did. Returns the live status.
JobStatus expect_same_after_restart(
    ServeOptions options, const std::function<std::string(ServeCore&)>& drive) {
  std::string id;
  std::pair<std::string, std::string> live;
  JobStatus status;
  {
    ServeCore core(options);
    id = drive(core);
    EXPECT_TRUE(core.wait_job(id));
    live = answers(core, id);
    status = *core.status(id);
    core.shutdown();
  }
  options.autostart = false;
  const ServeCore restarted(options);
  EXPECT_EQ(answers(restarted, id), live);
  return status;
}

// Two cells of more than 256 trials, so a resume places their trial lines.
const char kTwoChunked[] =
    "name = serve_two_chunked\nalgos = 4:2:1\nprofiles = shuffled\n"
    "k = 1..2\ntrials = 300\nseed = 3\n";

TEST(ServeCore, EveryOutcomeReadsTheSameAfterARestart) {
  // Every outcome ends its job file with job_done, so a restarted daemon
  // reports each job as the live one did.
  const auto submit = [](const SubmitRequest& request) {
    return [request](ServeCore& core) { return core.submit(request).id; };
  };
  ServeOptions options = core_options("outcome_done");
  options.jobs = 1;
  EXPECT_EQ(expect_same_after_restart(options,
                                      submit(request_for(kSmall, "alice")))
                .state,
            JobState::kDone);

  SubmitRequest budget = request_for(kSix, "alice");
  budget.box_budget = 1;
  options.spool_dir = fresh_dir("serve_outcome_budget");
  JobStatus status = expect_same_after_restart(options, submit(budget));
  EXPECT_EQ(status.reason, robust::CancelReason::kBudget);

  SubmitRequest deadline = request_for(kSlow, "alice");
  deadline.deadline_ms = 30;
  options.spool_dir = fresh_dir("serve_outcome_deadline");
  status = expect_same_after_restart(options, submit(deadline));
  EXPECT_EQ(status.reason, robust::CancelReason::kDeadline);

  options.spool_dir = fresh_dir("serve_outcome_cancelled");
  status = expect_same_after_restart(options, [](ServeCore& core) {
    const std::string id = core.submit(request_for(kSlow, "alice")).id;
    EXPECT_TRUE(core.cancel(id));
    return id;
  });
  EXPECT_EQ(status.state, JobState::kCancelled);

  // Failed by a runner error: cell 1's trial lines hold a trial out of
  // range, so claiming the cell throws when the job resumes.
  options.spool_dir = fresh_dir("serve_outcome_runner");
  const std::string path = Spool(options.spool_dir).path_for("job-1");
  {
    ServeOptions queued = options;
    queued.autostart = false;
    ServeCore core(queued);
    core.submit(request_for(kTwoChunked, "alice"));
  }
  robust::TrialRecord bad;
  bad.trial = 300;
  std::ofstream(path, std::ios::app)
      << obs::to_jsonl(robust::trial_record_event(bad).u64("cell", 1)) << "\n";
  status = expect_same_after_restart(
      options, [](ServeCore&) { return std::string("job-1"); });
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_NE(status.error.find("trial 300 of cell 1 is out of range"),
            std::string::npos)
      << status.error;
  EXPECT_EQ(status.cells_done, 1u);
  const obs::Event last = parse_line(robust::last_line(path));
  EXPECT_EQ(last.type, "job_done");
  EXPECT_EQ(last.str_or("state", ""), "failed");

  // Failed by an I/O error: the job's own file refused a commit, so it
  // holds no job_done line. The file wins: a restart resumes the job as
  // it resumes one killed mid-run, to one-shot bytes.
  options.spool_dir = fresh_dir("serve_outcome_io");
  SubmitRequest faulty = request_for(kSmall, "alice");
  faulty.fault_spec = "io_fsync=0.3";
  // Syncs 1-3 pass (the header, the directory, cell 0), the 4th (cell 1)
  // fails; a resume's two syncs (cell 2, the finalize) pass.
  faulty.fault_seed = 4;
  {
    ServeCore core(options);
    ASSERT_EQ(core.submit(faulty).id, "job-1");
    ASSERT_TRUE(core.wait_job("job-1"));
    status = *core.status("job-1");
    core.shutdown();
  }
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_NE(status.error.find("fsync of"), std::string::npos) << status.error;
  EXPECT_EQ(status.cells_done, 1u);
  const std::string faulty_path = Spool(options.spool_dir).path_for("job-1");
  EXPECT_EQ(parse_line(robust::last_line(faulty_path)).type, "sweep_cell");
  options.autostart = false;
  ServeCore restarted(options);
  EXPECT_EQ(restarted.status("job-1")->state, JobState::kQueued);
  restarted.start();
  ASSERT_TRUE(restarted.wait_job("job-1"));
  EXPECT_EQ(restarted.status("job-1")->state, JobState::kDone);
  EXPECT_EQ(restarted.report_bytes("job-1"),
            one_shot_bytes(kSmall, "outcome_io"));

  // Failed at the finalize commit: its write reaches the file, its fsync
  // fails. The live core reports the job failed; the file already ends
  // with the job_done line it was committing, and the file wins, so a
  // restarted core restores the job as done with the one-shot bytes.
  options.spool_dir = fresh_dir("serve_outcome_finalize");
  options.autostart = true;
  faulty.fault_seed = 8;  // syncs 1-5 pass, the 6th (the finalize) fails
  {
    ServeCore core(options);
    ASSERT_EQ(core.submit(faulty).id, "job-1");
    ASSERT_TRUE(core.wait_job("job-1"));
    status = *core.status("job-1");
    core.shutdown();
  }
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_NE(status.error.find("fsync of"), std::string::npos) << status.error;
  EXPECT_EQ(status.cells_done, 3u);
  const obs::Event done = parse_line(
      robust::last_line(Spool(options.spool_dir).path_for("job-1")));
  EXPECT_EQ(done.type, "job_done");
  EXPECT_EQ(done.str_or("state", ""), "done");
  options.autostart = false;
  const ServeCore reread(options);
  EXPECT_EQ(reread.status("job-1")->state, JobState::kDone);
  EXPECT_EQ(reread.report_bytes("job-1"),
            one_shot_bytes(kSmall, "outcome_finalize"));
}

TEST(ServeCore, TornJobHeaderIsSkippedAndItsIdIsNeverReused) {
  // A header cut mid-commit is a submit that was never acknowledged: no
  // job, but its id stays taken. A header cut just before its '\n' is
  // torn too, although it parses.
  const ServeOptions options = core_options("torn_header");
  std::filesystem::create_directories(options.spool_dir);
  std::ofstream(options.spool_dir + "/job-1.ckpt")
      << "{\"type\":\"serve_job\",\"version\":1,\"jo";
  obs::Event header = submit_event(request_for(kSmall, "bob"));
  header.type = "serve_job";
  std::ofstream(options.spool_dir + "/job-2.ckpt") << obs::to_jsonl(header);
  ServeCore core(options);
  EXPECT_TRUE(core.status().empty());
  const JobStatus accepted = core.submit(request_for(kSmall, "alice"));
  EXPECT_EQ(accepted.id, "job-3");
  ASSERT_TRUE(core.wait_job(accepted.id));
  EXPECT_EQ(core.report_bytes(accepted.id), one_shot_bytes(kSmall, "torn"));
}

// ---- trial-grain scheduling: a served job's heavy tail cell ------------

// The last cell is the heavy one: a trial costs about 8x one of the cell
// before it, so once the light cells are admitted, every idle pool thread
// helps the last cell's 128 trials.
const char kHeavyTail[] =
    "name = serve_heavy_tail\nalgos = 8:4:1\nprofiles = shuffled\n"
    "k = 1..5\ntrials = 128\nseed = 21\n";

TEST(ServeCore, HelpedTailCellGivesOneShotBytesAtEveryPoolSize) {
  const std::string reference = one_shot_bytes(kHeavyTail, "tail");
  for (const std::uint64_t jobs : {1u, 2u, 4u, 8u}) {
    ServeOptions options = core_options("tail_p" + std::to_string(jobs));
    options.jobs = jobs;
    ServeCore core(options);
    const JobStatus accepted = core.submit(request_for(kHeavyTail, "alice"));
    ASSERT_TRUE(core.wait_job(accepted.id));
    EXPECT_EQ(core.report_bytes(accepted.id), reference) << "jobs=" << jobs;
  }
}

// A light adaptive sort cell (direct runs, no capture) and a heavy funnel
// cell, the only cell of its program: its first trial captures the trace
// while every other trial of the cell waits on that capture. Admission is
// capture-first, so the heavy cell is dispatched first and the light one
// right after it; the capture (tens of milliseconds at 16K keys) outlasts
// that second dispatch by far.
const char kCaptureTail[] =
    "name = serve_capture_tail\nworkload = sort\nsorts = adaptive funnel\n"
    "profiles = const:16\nkeys = 16384\nblock = 4\ntrace_replay = 1\n"
    "trials = 16\nseed = 5\n";

/// Holds the trace_capture event, inside the heavy cell's first trial,
/// until release(). Each thread has then claimed at most one trial of
/// the heavy cell (all wait on the capture), so whatever the test does
/// meanwhile provably comes before the rest of its trials start. Every
/// trace write waits while it holds, so the light cell must have been
/// dispatched (its cell_scheduled written) before: light_first says so.
class CaptureGate final : public obs::TraceSink {
 public:
  void write(const obs::Event& event) override {
    if (event.type == "cell_scheduled" && event.u64_or("cell", 1) == 0) {
      light_scheduled_ = true;
    }
    if (event.type != "trace_capture") return;
    light_first = light_scheduled_;
    held.set_value();
    released_.wait();
  }
  void release() {
    std::call_once(once_, [this] { release_.set_value(); });
  }

  std::promise<void> held;
  bool light_first = false;  ///< read after `held` is ready

 private:
  bool light_scheduled_ = false;
  std::once_flag once_;
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

/// Runs kCaptureTail until its heavy cell's capture is held and its light
/// cell is durable (the header, the directory and the cell commit synced).
std::string hold_capture_tail(ServeCore& core, CaptureGate& gate,
                              const CountingIo& io) {
  const std::string id = core.submit(request_for(kCaptureTail, "alice")).id;
  EXPECT_EQ(gate.held.get_future().wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  if (!gate.light_first) {
    ADD_FAILURE() << "the heavy cell's capture ended before the light cell "
                     "was dispatched";
    gate.release();  // the light cell waits on the trace stream
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (io.syncs.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(io.syncs.load(), 3u);
  return id;
}

TEST(ServeCore, CancelMidHelpedCellDiscardsItWholeAndResumes) {
  // The serve twin of SweepRunner's: a client cancel while the heavy cell
  // is being helped truncates the report to the light cell.
  {
    CaptureGate gate;
    CountingIo io;
    ServeOptions options = core_options("tail_cancel");
    options.jobs = 4;
    options.trace = &gate;
    options.io = &io;
    ServeCore core(options);
    const std::string id = hold_capture_tail(core, gate, io);
    EXPECT_TRUE(core.cancel(id));
    gate.release();  // before any ASSERT: the core's teardown waits on it
    ASSERT_TRUE(core.wait_job(id));
    const campaign::Report cut = parsed_report(core, id);
    EXPECT_TRUE(cut.truncated);
    EXPECT_EQ(cut.truncate_reason, robust::CancelReason::kExternal);
    ASSERT_EQ(cut.cells.size(), 1u);
    EXPECT_EQ(cut.cells[0].index, 0u);
  }
  // A shutdown cancels the helped cell the same way; the checkpoint keeps
  // only the light cell, and a new core on the same spool resumes to
  // one-shot bytes.
  ServeOptions options = core_options("tail_restart");
  options.jobs = 4;
  std::string id;
  {
    CaptureGate gate;
    CountingIo io;
    ServeOptions gated = options;
    gated.trace = &gate;
    gated.io = &io;
    ServeCore core(gated);
    id = hold_capture_tail(core, gate, io);
    auto stopped = std::async(std::launch::async, [&core] { core.shutdown(); });
    EXPECT_TRUE(core.wait_job(id));  // returns once the shutdown began
    gate.release();
    stopped.get();
  }
  const std::map<std::uint64_t, campaign::CellResult> committed =
      read_job(Spool(options.spool_dir).path_for(id)).cells;
  EXPECT_EQ(committed.size(), 1u);
  EXPECT_EQ(committed.count(1), 0u);
  ServeCore resumed(options);
  ASSERT_TRUE(resumed.wait_job(id));
  EXPECT_EQ(resumed.report_bytes(id),
            one_shot_bytes(kCaptureTail, "tail_restart"));
}

// Three cells of 2048 trials: each commits eight 256-trial chunks of trial
// lines before its sweep_cell line.
const char kHeavyCells[] =
    "name = serve_heavy_cells\nalgos = 8:4:1\nprofiles = shuffled\n"
    "k = 1..3\ntrials = 2048\nseed = 23\n";

TEST(ServeCore, AHeavyCellResumesMidCellAcrossARestart) {
  // A shutdown while the heavy cells commit chunks: the committed trials
  // survive in the job file, and a new core on the same spool runs only
  // the rest — to one-shot bytes, with no (cell, trial) line twice.
  const ServeOptions options = core_options("heavy_restart");
  const std::string path = Spool(options.spool_dir).path_for("job-1");
  {
    // The header's fsync, two chunks', then the third chunk's is held: no
    // cell can have landed (each needs nine commits).
    GatedIo io(path, 4);
    ServeOptions gated = options;
    gated.io = &io;
    gated.jobs = 2;
    ServeCore core(gated);
    const std::string id = core.submit(request_for(kHeavyCells, "alice")).id;
    ASSERT_EQ(id, "job-1");
    std::future<void> held = io.held.get_future();
    if (held.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      io.release();
      FAIL() << "the third chunk commit never reached its fsync";
    }
    auto stopped = std::async(std::launch::async, [&core] { core.shutdown(); });
    EXPECT_TRUE(core.wait_job(id));  // returns once the shutdown began
    io.release();
    stopped.get();
  }
  const JobFile cut = read_job(path);
  EXPECT_FALSE(cut.done.has_value());
  EXPECT_TRUE(cut.cells.empty());
  std::uint64_t committed = 0;
  for (const auto& [cell, records] : cut.trials) committed += records.size();
  EXPECT_GE(committed, campaign::kTrialChunk);

  ServeCore resumed(options);
  ASSERT_TRUE(resumed.wait_job("job-1"));
  EXPECT_EQ(resumed.report_bytes("job-1"),
            one_shot_bytes(kHeavyCells, "heavy_restart"));
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  (void)robust::read_checkpoint(path, [&seen](const robust::JsonlLine& line) {
    if (line.event.type != "trial_result" && line.event.type != "trial_error") {
      return;
    }
    const std::pair<std::uint64_t, std::uint64_t> key(
        line.event.u64_or("cell", 0), line.event.u64_or("trial", 0));
    EXPECT_TRUE(seen.insert(key).second)
        << "cell " << key.first << " trial " << key.second << " twice";
  });
  EXPECT_EQ(seen.size(), 3 * 2048u);
}

// ---- served sort jobs: one capture per program ------------------------

// Twelve sort cells (three programs x two profiles x two policies) on
// one input per program: the oblivious programs' cells replay one
// capture each, funnel's with seed 5 + 4 and merge2's with seed 5 + 8.
const char kSort[] =
    "name = serve_sort\nworkload = sort\nsorts = adaptive funnel merge2\n"
    "profiles = const:32 uniform:4:64\npolicies = lru clock\n"
    "keys = 2048\nblock = 8\ntrials = 4\nseed = 5\ntrace_replay = 1\n";
// One funnel cell whose capture (128K keys, about 0.3 s) outlasts a
// cancel by far: the admitting thread captures while the idle threads
// help, waiting on it.
const char kLongCapture[] =
    "name = serve_long_capture\nworkload = sort\nsorts = funnel\n"
    "profiles = const:32\nkeys = 131072\nblock = 8\ntrials = 8\n"
    "seed = 9\ntrace_replay = 1\n";

/// A trace sink the test thread may read and wait on while the core's
/// threads write to it.
class WaitableSink final : public obs::TraceSink {
 public:
  void write(const obs::Event& event) override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      events_.push_back(event);
    }
    cv_.notify_all();
  }

  std::vector<obs::Event> events(const std::string& type) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<obs::Event> out;
    for (const obs::Event& event : events_) {
      if (event.type == type) out.push_back(event);
    }
    return out;
  }

  /// Whether an event of `type` arrived within `timeout`.
  bool wait_for(const std::string& type, std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [this, &type] {
      return std::any_of(
          events_.begin(), events_.end(),
          [&type](const obs::Event& event) { return event.type == type; });
    });
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<obs::Event> events_;
};

TEST(ServeCore, SortJobCapturesOncePerProgramAndMatchesOneShot) {
  const std::string reference = one_shot_bytes(kSort, "sort");
  for (const std::uint64_t jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    WaitableSink trace;
    ServeOptions options = core_options("sort_p" + std::to_string(jobs));
    options.jobs = jobs;
    options.trace = &trace;
    ServeCore core(options);
    const std::string id = core.submit(request_for(kSort, "alice")).id;
    ASSERT_TRUE(core.wait_job(id));
    EXPECT_EQ(core.report_bytes(id), reference);
    std::vector<std::pair<std::string, std::uint64_t>> captured;
    for (const obs::Event& event : trace.events("trace_capture")) {
      captured.emplace_back(event.str_or("program", ""),
                            event.u64_or("seed", 0));
      EXPECT_EQ(event.u64_or("cells", 0), 4u);  // the program's row
    }
    std::sort(captured.begin(), captured.end());
    const std::vector<std::pair<std::string, std::uint64_t>> want = {
        {"funnel", 5 + 4}, {"merge2", 5 + 8}};
    EXPECT_EQ(captured, want);
    EXPECT_EQ(trace.events("trace_release").size(), 2u);
  }
}

TEST(ServeCore, CancelMidCaptureOutlivedByAHelperLeavesTheCoreServing) {
  // The job ends (and drops its plan, trace cache and file) as soon as
  // the capturing trial unwinds, while the helpers that waited on the
  // capture are still inside their trials: they must finish on the
  // claimed cell's hold on them. A sort job submitted afterwards on the
  // same core still gives one-shot bytes.
  WaitableSink trace;
  ServeOptions options = core_options("sort_cancel");
  options.jobs = 4;
  options.trace = &trace;
  ServeCore core(options);
  const std::string id = core.submit(request_for(kLongCapture, "alice")).id;
  ASSERT_TRUE(trace.wait_for("cell_scheduled", std::chrono::seconds(30)));
  ASSERT_TRUE(core.cancel(id));
  ASSERT_TRUE(core.wait_job(id));
  const JobStatus cancelled = *core.status(id);
  EXPECT_EQ(cancelled.state, JobState::kCancelled);
  EXPECT_EQ(cancelled.reason, robust::CancelReason::kExternal);
  EXPECT_EQ(cancelled.cells_done, 0u);
  EXPECT_TRUE(trace.events("trace_capture").empty());  // cut mid-capture
  const std::string next = core.submit(request_for(kSort, "bob")).id;
  ASSERT_TRUE(core.wait_job(next));
  EXPECT_EQ(core.report_bytes(next), one_shot_bytes(kSort, "sort_cancel"));
}

// ---- daemon wire edges ------------------------------------------------

TEST(ServeDaemon, OversizedRequestLineGetsAnErrorAndTheDaemonServesOn) {
  ServeCore core(core_options("oversized"));
  const std::string socket_path = temp_path("serve_oversized.sock");
  const int listen_fd = listen_unix(socket_path);
  // The daemon's accept loop, cut to the two connections this test makes.
  std::thread daemon([&core, listen_fd] {
    for (int served = 0; served < 2;) {
      const std::optional<int> fd = accept_unix(listen_fd, 200);
      if (!fd.has_value()) continue;
      serve_connection(core, *fd);
      ++served;
    }
  });

  // 2 MiB without a newline: the daemon stops reading past its 1 MiB cap
  // and answers with an input error (exit code 3), so our write may fail
  // once it closes the connection. Half-closing afterwards means an
  // uncapped reader fails this test instead of hanging it.
  const int hostile = connect_unix(socket_path);
  try {
    write_all(hostile, std::string(std::size_t{2} << 20, 'x'));
  } catch (const util::IoError&) {
  }
  ::shutdown(hostile, SHUT_WR);
  const std::optional<std::string> error = LineReader(hostile).next();
  close_fd(hostile);

  const int polite = connect_unix(socket_path);
  write_all(polite, "{\"type\":\"hello\"}\n");
  const std::optional<std::string> hello = LineReader(polite).next();
  close_fd(polite);
  daemon.join();
  close_fd(listen_fd);

  ASSERT_TRUE(error.has_value());
  const obs::Event error_line = parse_line(*error);
  EXPECT_EQ(error_line.type, "error");
  EXPECT_EQ(error_line.u64_or("code", 0), 3u);
  EXPECT_NE(error_line.str_or("message", "").find("exceeds"),
            std::string::npos)
      << *error;
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(parse_line(*hello).type, "serve_hello");
}

TEST(ServeDaemon, ASubmitWhoseHeaderSyncFailsGetsAnErrorAndLeavesNoJob) {
  // The job file's header commit fails: the client gets a named input
  // error (exit code 3), and the file is left empty, so a restart neither
  // runs a job no client was told about nor reuses its id.
  const ServeOptions options = core_options("submit_fsync");
  std::optional<std::string> reply;
  {
    ServeCore core(options);
    const std::string socket_path = temp_path("serve_submit_fsync.sock");
    const int listen_fd = listen_unix(socket_path);
    std::thread daemon([&core, listen_fd] {
      for (bool served = false; !served;) {
        const std::optional<int> fd = accept_unix(listen_fd, 200);
        if (!fd.has_value()) continue;
        serve_connection(core, *fd);
        served = true;
      }
    });
    SubmitRequest request = request_for(kSmall, "alice");
    request.fault_spec = "io_fsync=1";
    const int client = connect_unix(socket_path);
    write_all(client, obs::to_jsonl(submit_event(request)) + "\n");
    reply = LineReader(client).next();
    close_fd(client);
    daemon.join();
    close_fd(listen_fd);
    EXPECT_TRUE(core.status().empty());
  }
  ASSERT_TRUE(reply.has_value()) << "the daemon closed without a reply";
  const obs::Event error = parse_line(*reply);
  EXPECT_EQ(error.type, "error");
  EXPECT_EQ(error.u64_or("code", 0), 3u);
  EXPECT_NE(error.str_or("message", "").find("fsync"), std::string::npos)
      << *reply;
  EXPECT_EQ(std::filesystem::file_size(options.spool_dir + "/job-1.ckpt"),
            0u);
  ServeCore restarted(options);
  EXPECT_TRUE(restarted.status().empty());
  EXPECT_EQ(restarted.submit(request_for(kSmall, "bob")).id, "job-2");
}

TEST(ServeDaemon, HalfLineClientGetsAnErrorAtTheReadDeadline) {
  // A client that sends half a request line and waits is answered with
  // one error line and closed once the read deadline passes — no drain
  // needed — and the daemon serves the next connection.
  ServeCore core(core_options("read_deadline"));
  const std::string socket_path = temp_path("serve_read_deadline.sock");
  const int listen_fd = listen_unix(socket_path);
  std::thread daemon([&core, listen_fd] {
    for (int served = 0; served < 2;) {
      const std::optional<int> fd = accept_unix(listen_fd, 200);
      if (!fd.has_value()) continue;
      serve_connection(core, *fd, /*read_deadline_ms=*/200);
      ++served;
    }
  });

  const int hostile = connect_unix(socket_path);
  write_all(hostile, "{\"type\":\"hel");
  // A daemon without a deadline never answers: give up after 10 s and
  // half-close, which lets its reader see EOF, so a failure here never
  // hangs the suite.
  pollfd pfd{};
  pfd.fd = hostile;
  pfd.events = POLLIN;
  const bool answered = ::poll(&pfd, 1, 10'000) == 1;
  ::shutdown(hostile, SHUT_WR);
  LineReader hostile_reader(hostile);
  const std::optional<std::string> error = hostile_reader.next();
  const std::optional<std::string> eof = hostile_reader.next();
  close_fd(hostile);

  const int polite = connect_unix(socket_path);
  write_all(polite, "{\"type\":\"hello\"}\n");
  const std::optional<std::string> hello = LineReader(polite).next();
  close_fd(polite);
  daemon.join();
  close_fd(listen_fd);

  EXPECT_TRUE(answered) << "the half-line client was never answered";
  ASSERT_TRUE(error.has_value());
  const obs::Event error_line = parse_line(*error);
  EXPECT_EQ(error_line.type, "error");
  EXPECT_EQ(error_line.u64_or("code", 0), 3u);
  EXPECT_NE(error_line.str_or("message", "").find("incomplete"),
            std::string::npos)
      << *error;
  EXPECT_FALSE(eof.has_value());
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(parse_line(*hello).type, "serve_hello");
}

TEST(ServeDaemon, ResultsWithoutProgressSendsOnlyTheReport) {
  // "progress":false (what `cadapt results` sends without --progress):
  // no cell line reaches the client, which gets job_done and the same
  // report bytes as a streaming subscriber.
  ServeCore core(core_options("no_progress"));
  const std::string socket_path = temp_path("serve_no_progress.sock");
  const int listen_fd = listen_unix(socket_path);
  std::thread daemon([&core, listen_fd] {
    for (int served = 0; served < 2;) {
      const std::optional<int> fd = accept_unix(listen_fd, 200);
      if (!fd.has_value()) continue;
      serve_connection(core, *fd);
      ++served;
    }
  });

  const std::string id = core.submit(request_for(kSmall, "alice")).id;
  const int quiet = connect_unix(socket_path);
  write_all(quiet, "{\"type\":\"results\",\"job\":\"" + id +
                       "\",\"progress\":false}\n");
  LineReader quiet_reader(quiet);
  const std::optional<std::string> first = quiet_reader.next();
  const std::string quiet_report = quiet_reader.remaining();
  close_fd(quiet);

  std::uint64_t cell_lines = 0;
  const ResultsEnd streamed = stream_results(
      socket_path, id, [&cell_lines](const std::string& line) {
        cell_lines += parse_line(line).type == "sweep_cell";
      });
  daemon.join();
  close_fd(listen_fd);

  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(parse_line(*first).type, "job_done") << *first;
  EXPECT_EQ(parse_line(*first).str_or("state", ""), "done");
  EXPECT_EQ(quiet_report, one_shot_bytes(kSmall, "no_progress"));
  EXPECT_EQ(cell_lines, 3u);
  EXPECT_EQ(streamed.report_bytes, quiet_report);
}

TEST(ServeDaemon, DrainShutsDownAClientThatSentHalfALine) {
  // The real accept loop. It stops on the process cancel token, which
  // never resets, so this is the only test that runs run_daemon.
  DaemonOptions options;
  options.socket_path = temp_path("serve_drain.sock");
  options.core = core_options("drain");
  std::filesystem::remove(options.socket_path);
  std::promise<int> exit_code;
  std::future<int> exited = exit_code.get_future();
  std::thread daemon([&options, &exit_code] {
    try {
      exit_code.set_value(run_daemon(options));
    } catch (...) {
      exit_code.set_exception(std::current_exception());
    }
  });

  // Nothing may leave the test body before the daemon is joined: a
  // joinable thread must not be destroyed.
  int hostile = -1;
  std::optional<std::string> hello;
  std::string failure;
  try {
    for (int attempt = 0; hostile < 0; ++attempt) {
      try {
        hostile = connect_unix(options.socket_path);
      } catch (const util::IoError&) {  // not listening yet
        if (attempt == 500) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    write_all(hostile, "{\"type\":\"hel");
    // Connections are accepted in order: once a later hello is answered,
    // the hostile one has a handler, blocked reading the rest of its line.
    const int polite = connect_unix(options.socket_path);
    write_all(polite, "{\"type\":\"hello\"}\n");
    hello = LineReader(polite).next();
    close_fd(polite);
  } catch (const std::exception& e) {
    failure = e.what();
  }

  robust::process_cancel_token().request(robust::CancelReason::kExternal);
  // The bound stays well below the request-line read deadline, which
  // would otherwise close the half-line connection and hide a drain that
  // does not shut it down.
  constexpr int kDrainBoundMs = 3'000;
  static_assert(2 * kDrainBoundMs < kRequestDeadlineMs);
  const bool drained =
      exited.wait_for(std::chrono::milliseconds(kDrainBoundMs)) ==
      std::future_status::ready;
  // Closing our end lets a daemon that did not drain exit, so a failure
  // here never hangs the suite.
  close_fd(hostile);
  daemon.join();
  ASSERT_EQ(failure, "");
  ASSERT_TRUE(hello.has_value());
  EXPECT_TRUE(drained) << "a half-line client blocked the drain";
  EXPECT_EQ(exited.get(), 0);
}

}  // namespace
}  // namespace cadapt::serve
