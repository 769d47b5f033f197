// The serve subsystem (docs/SERVE.md): fair-share scheduler unit tests,
// protocol round-trips, spool durability, and ServeCore end-to-end
// drills — above all the headline invariant, asserted at the BYTE level
// throughout: a job's final report equals one-shot run_sweep on the same
// manifest regardless of tenant interleaving, pool size, backpressure,
// cancellation of a NEIGHBOR, or a daemon restart mid-job.
#include "serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/sweep.hpp"
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

TEST(Spool, PersistScanAndIdAllocationSurviveReopen) {
  const std::string dir = fresh_dir("spool_unit");
  robust::IoBackend& io = robust::system_io();
  {
    Spool spool(dir, io);
    EXPECT_TRUE(spool.scan().empty());
    const std::string id1 = spool.allocate_id();
    const std::string id2 = spool.allocate_id();
    EXPECT_EQ(id1, "job-1");
    EXPECT_EQ(id2, "job-2");
    spool.persist_job(spool.files_for(id2), kSmall,
                      submit_event(request_for(kSmall, "bob")));
    spool.persist_job(spool.files_for(id1), kSix,
                      submit_event(request_for(kSix, "alice")));
  }
  Spool reopened(dir, io);
  const std::vector<JobFiles> jobs = reopened.scan();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, "job-1");  // numeric order = submission order
  EXPECT_EQ(jobs[1].id, "job-2");
  EXPECT_EQ(reopened.load_manifest_text(jobs[0]), kSix);
  EXPECT_EQ(submit_from_event(reopened.load_meta(jobs[1])).client, "bob");
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
  EXPECT_TRUE(
      Spool(options.spool_dir, robust::system_io()).scan().empty());
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
  ServeCore core(options);
  const JobStatus a = core.submit(request_for(kSix, "alice", 2));
  const JobStatus b = core.submit(request_for(kSmall, "bob", 1));
  const JobStatus c = core.submit(request_for(kWide, "carol", 1));
  core.start();
  core.wait_idle();
  MultiTenantRun run;
  run.dispatch = core.dispatch_log();
  run.report_bytes["alice"] = core.report_bytes(a.id);
  run.report_bytes["bob"] = core.report_bytes(b.id);
  run.report_bytes["carol"] = core.report_bytes(c.id);
  return run;
}

TEST(ServeCore, DispatchOrderAndReportsAreIdenticalAcrossPoolSizes) {
  // The determinism pillar: the WRR pick sequence is a pure function of
  // the submission set, so pool sizes 1, 2, and 8 must produce the SAME
  // dispatch log — and byte-identical reports.
  const MultiTenantRun p1 = run_multi_tenant("det_p1", 1);
  const MultiTenantRun p2 = run_multi_tenant("det_p2", 2);
  const MultiTenantRun p8 = run_multi_tenant("det_p8", 8);
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
  // The cancelled job still committed a (truncated) report artifact.
  const campaign::Report truncated_report = campaign::load_report_file(
      Spool(options.spool_dir, robust::system_io()).files_for(b.id)
          .report_path);
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
  std::uint64_t lines = 0;
  while (core.next_stream_line(a.id).has_value()) ++lines;
  EXPECT_EQ(lines, stalled.cells_total);
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
  const campaign::Report report = campaign::load_report_file(
      Spool(options.spool_dir, robust::system_io())
          .files_for(accepted.id).report_path);
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
    id_b = core.submit(request_for(kSmall, "bob")).id;
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

TEST(ServeCore, StreamDeliversEveryCellLineThenEnds) {
  ServeCore core(core_options("stream"));
  const JobStatus accepted = core.submit(request_for(kSmall, "alice"));
  ASSERT_TRUE(core.attach(accepted.id));
  std::vector<std::string> lines;
  while (const std::optional<std::string> line =
             core.next_stream_line(accepted.id)) {
    lines.push_back(*line);
  }
  EXPECT_EQ(lines.size(), 3u);
  for (const std::string& line : lines) {
    EXPECT_EQ(parse_line(line).type, "sweep_cell");
  }
  core.detach(accepted.id);
  EXPECT_FALSE(core.attach("job-999"));
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

}  // namespace
}  // namespace cadapt::serve
