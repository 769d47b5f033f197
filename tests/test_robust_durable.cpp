// Durability differentials (docs/ROBUSTNESS.md, "Durability & crash
// safety"): every failure mode of the fault registry's I/O sites —
// ENOSPC, EIO, short write, fsync failure — is driven through the real
// writers, and in every case the previous artifact survives byte-for-byte
// with no partial file at the final path. The chaos lane
// (tools/chaos_sweep.sh) proves the same guarantees against SIGKILL; this
// file proves them against the syscalls failing politely.
#include "robust/io.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault.hpp"
#include "util/check.hpp"

namespace cadapt::robust {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_raw(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary);
  os << content;
}

/// A plan whose four I/O sites fire at rate 1 for exactly one site.
FaultPlan always(FaultSite site) {
  FaultPlan plan(0);
  plan.set_rate(site, 1.0);
  return plan;
}

TEST(AtomicWriteFile, CommitsWholeContentAndRemovesTemp) {
  const std::string path = temp_path("atomic_clean.txt");
  std::remove(path.c_str());
  atomic_write_file(path, "line one\nline two\n");
  EXPECT_EQ(read_file(path), "line one\nline two\n");
  EXPECT_FALSE(file_exists(path + ".tmp"));
  atomic_write_file(path, "replaced\n");  // overwrite goes through rename too
  EXPECT_EQ(read_file(path), "replaced\n");
}

TEST(AtomicWriteFile, EnospcLeavesPreviousVersionIntact) {
  const std::string path = temp_path("atomic_enospc.txt");
  atomic_write_file(path, "version 1\n");
  const FaultPlan plan = always(FaultSite::kIoEnospc);
  FaultyIo io(system_io(), &plan);
  EXPECT_THROW(atomic_write_file(path, "version 2\n", io), util::IoError);
  EXPECT_EQ(read_file(path), "version 1\n");  // byte-for-byte survivor
  EXPECT_FALSE(file_exists(path + ".tmp"));   // no litter either
}

TEST(AtomicWriteFile, EioLeavesPreviousVersionIntact) {
  const std::string path = temp_path("atomic_eio.txt");
  atomic_write_file(path, "version 1\n");
  const FaultPlan plan = always(FaultSite::kIoWrite);
  FaultyIo io(system_io(), &plan);
  EXPECT_THROW(atomic_write_file(path, "version 2\n", io), util::IoError);
  EXPECT_EQ(read_file(path), "version 1\n");
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(AtomicWriteFile, ShortWriteNeverLeavesAPartialFinalFile) {
  // The injected short write persists a real torn prefix — but only in
  // the temp file, which the failed commit removes. The final path must
  // never exist half-written, even when it did not exist before.
  const std::string path = temp_path("atomic_short.txt");
  std::remove(path.c_str());
  const FaultPlan plan = always(FaultSite::kIoShortWrite);
  FaultyIo io(system_io(), &plan);
  try {
    atomic_write_file(path, "0123456789", io);
    FAIL() << "expected IoError";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("short write"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("left untouched"),
              std::string::npos);
  }
  EXPECT_FALSE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(AtomicWriteFile, FsyncFailureAbortsBeforeRename) {
  const std::string path = temp_path("atomic_fsync.txt");
  atomic_write_file(path, "version 1\n");
  const FaultPlan plan = always(FaultSite::kIoFsync);
  FaultyIo io(system_io(), &plan);
  EXPECT_THROW(atomic_write_file(path, "version 2\n", io), util::IoError);
  EXPECT_EQ(read_file(path), "version 1\n");
  EXPECT_FALSE(file_exists(path + ".tmp"));
}

TEST(DurableAppender, CommittedRecordsSurviveReopen) {
  const std::string path = temp_path("appender_reopen.jsonl");
  {
    DurableAppender out(path, /*truncate=*/true);
    EXPECT_EQ(out.initial_size(), 0u);
    out.write("first\n");
    out.commit();
  }
  {
    DurableAppender out(path, /*truncate=*/false);
    EXPECT_EQ(out.initial_size(), 6u);  // "first\n"
    out.write("second\n");
    out.commit();
  }
  EXPECT_EQ(read_file(path), "first\nsecond\n");
}

TEST(DurableAppender, FailedCommitKeepsCommittedRecordsAndDropsTheBatch) {
  const std::string path = temp_path("appender_enospc.jsonl");
  {
    DurableAppender out(path, /*truncate=*/true);
    out.write("committed\n");
    out.commit();
  }
  const FaultPlan plan = always(FaultSite::kIoEnospc);
  FaultyIo io(system_io(), &plan);
  DurableAppender out(path, /*truncate=*/false, io);
  out.write("doomed\n");
  EXPECT_THROW(out.commit(), util::IoError);
  EXPECT_EQ(read_file(path), "committed\n");  // the disk never saw "doomed"
  // The batch is either durable or abandoned, never half-owned: the
  // failed commit cleared the buffer, so a retry commit is an empty no-op
  // rather than a replay of the abandoned bytes.
  out.commit();
  EXPECT_EQ(read_file(path), "committed\n");
}

TEST(DurableAppender, CommitAfterAFailedCommitThrowsAndWritesNothing) {
  const std::string path = temp_path("appender_after_fail.jsonl");
  FaultPlan plan = always(FaultSite::kIoShortWrite);
  FaultyIo io(system_io(), &plan);
  DurableAppender out(path, /*truncate=*/true, io);
  out.write("0123456789");
  EXPECT_THROW(out.commit(), util::IoError);
  // The disk recovered, but the file ends in a torn record: appending
  // after it would bury the tear mid-file, where no resume repairs it.
  plan.set_rate(FaultSite::kIoShortWrite, 0.0);
  out.write("next\n");
  try {
    out.commit();
    FAIL() << "expected IoError";
  } catch (const util::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("5 of 10 bytes"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(read_file(path), "01234");
}

TEST(DurableAppender, ShortWriteReportsByteCountsAndLeavesATornTail) {
  const std::string path = temp_path("appender_short.jsonl");
  const FaultPlan plan = always(FaultSite::kIoShortWrite);
  FaultyIo io(system_io(), &plan);
  {
    DurableAppender out(path, /*truncate=*/true, io);
    out.write("0123456789");
    try {
      out.commit();
      FAIL() << "expected IoError";
    } catch (const util::IoError& e) {
      // The message carries the byte accounting — the operator should see
      // how torn the tail is without hexdumping the file.
      EXPECT_NE(std::string(e.what()).find("5 of 10 bytes"),
                std::string::npos)
          << e.what();
    }
  }
  // Append-only torn tail IS visible at the final path (unlike the
  // atomic writer); truncate_torn_tail is the documented recovery.
  EXPECT_EQ(read_file(path), "01234");
  EXPECT_EQ(truncate_torn_tail(path), 5u);
  EXPECT_EQ(read_file(path), "");
}

TEST(TruncateTornTail, CleanAndMissingFilesAreUntouched) {
  const std::string path = temp_path("torn_clean.jsonl");
  write_raw(path, "a\nb\n");
  EXPECT_EQ(truncate_torn_tail(path), 0u);
  EXPECT_EQ(read_file(path), "a\nb\n");
  EXPECT_EQ(truncate_torn_tail(temp_path("torn_never_written.jsonl")), 0u);
}

obs::Event drill_header() {
  obs::Event header("mc_checkpoint");
  header.u64("version", 2).u64("trials", 4).u64("seed", 99).str(
      "config_hash", "durable drill");
  return header;
}

// One committed batch, as run_cell_trials commits a chunk.
void commit_records(DurableAppender& out,
                    const std::vector<TrialRecord>& records) {
  for (const TrialRecord& record : records) {
    out.write(obs::to_jsonl(trial_record_event(record)));
    out.write("\n");
  }
  out.commit();
}

std::vector<TrialRecord> reload_records(const std::string& path) {
  std::vector<TrialRecord> records;
  (void)open_checkpoint(path, drill_header(), true,
                        [&records](const JsonlLine& line) {
                          records.push_back(trial_record_from(line));
                        });
  return records;
}

TEST(OpenCheckpoint, FailedCommitLeavesPriorRecordsLoadable) {
  const std::string path = temp_path("ckpt_io_fail.jsonl");
  TrialRecord first;
  first.trial = 0;
  first.seed = 1;
  first.completed = true;
  first.boxes = 10;
  commit_records(*open_checkpoint(path, drill_header(), false, {}), {first});

  const FaultPlan plan = always(FaultSite::kIoEnospc);
  FaultyIo io(system_io(), &plan);
  const std::unique_ptr<DurableAppender> resumed = open_checkpoint(
      path, drill_header(), true, [](const JsonlLine&) {}, io);
  TrialRecord second = first;
  second.trial = 1;
  EXPECT_THROW(commit_records(*resumed, {second}), util::IoError);

  // The failed chunk vanished wholesale; header + trial 0 still load.
  const std::vector<TrialRecord> records = reload_records(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], first);
}

TEST(OpenCheckpoint, ResumeRecoversATornTail) {
  const std::string path = temp_path("ckpt_torn_recover.jsonl");
  (void)open_checkpoint(path, drill_header(), false, {});
  const std::string committed = read_file(path);
  write_raw(path, committed + "{\"type\":\"trial_res");  // kill mid-write

  std::size_t loaded = 0;
  const std::unique_ptr<DurableAppender> resumed = open_checkpoint(
      path, drill_header(), true, [&loaded](const JsonlLine&) { ++loaded; });
  EXPECT_EQ(read_file(path), committed);  // the torn bytes are gone
  EXPECT_EQ(loaded, 0u);
  TrialRecord record;
  record.trial = 0;
  record.seed = 3;
  record.completed = true;
  commit_records(*resumed, {record});

  // The new record landed on a fresh line, not glued onto the torn one.
  const std::vector<TrialRecord> records = reload_records(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], record);
}

TEST(FaultyIo, OccurrenceDecisionsAreDeterministicAcrossInstances) {
  FaultPlan plan(31337);
  plan.set_rate(FaultSite::kIoEnospc, 0.5);
  FaultyIo a(system_io(), &plan);
  FaultyIo b(system_io(), &plan);
  IoBackend& raw = system_io();
  const int fd_a = raw.open_trunc(temp_path("faulty_det_a.bin").c_str());
  const int fd_b = raw.open_trunc(temp_path("faulty_det_b.bin").c_str());
  ASSERT_GE(fd_a, 0);
  ASSERT_GE(fd_b, 0);
  int failures = 0;
  for (int occurrence = 0; occurrence < 200; ++occurrence) {
    const bool fail_a = a.write(fd_a, "x", 1) < 0;
    const bool fail_b = b.write(fd_b, "x", 1) < 0;
    // Same plan, same occurrence index -> same verdict: two shards of a
    // differential run inject identical fault schedules.
    EXPECT_EQ(fail_a, fail_b) << occurrence;
    if (fail_a) ++failures;
  }
  raw.close(fd_a);
  raw.close(fd_b);
  EXPECT_GT(failures, 50);
  EXPECT_LT(failures, 150);
}

TEST(WriteReportFile, CommitFailureKeepsThePreviousReportLoadable) {
  const std::string path = temp_path("report_durable.jsonl");
  campaign::Report report;
  report.name = "survivor";
  report.config_hash = 42;
  campaign::write_report_file(path, report);
  const std::string before = read_file(path);

  campaign::Report doomed;
  doomed.name = "never-lands";
  doomed.config_hash = 43;
  const FaultPlan plan = always(FaultSite::kIoEnospc);
  FaultyIo io(system_io(), &plan);
  EXPECT_THROW(campaign::write_report_file(path, doomed, io), util::IoError);

  EXPECT_EQ(read_file(path), before);  // bitwise, not just parseable
  EXPECT_FALSE(file_exists(path + ".tmp"));
  const campaign::Report loaded = campaign::load_report_file(path);
  EXPECT_EQ(loaded.name, "survivor");
  EXPECT_EQ(loaded.config_hash, 42u);
}

TEST(CrashPoint, ArmAccountingAndDisarm) {
  CrashPoint& point = CrashPoint::instance();
  point.arm(3);
  EXPECT_TRUE(point.armed());
  IoBackend& io = system_io();
  // Two of the three armed visits: not yet fatal, io untouched.
  point.visit(io, -1, "abc", 3);
  point.visit(io, -1, "abc", 3);
  EXPECT_TRUE(point.armed());
  point.arm(0);  // disarm before the fatal third visit
  EXPECT_FALSE(point.armed());
  for (int i = 0; i < 10; ++i) point.visit(io, -1, "abc", 3);  // no-ops
  EXPECT_FALSE(point.armed());
}

TEST(CrashPointDeathTest, ArmedVisitPersistsATornPrefixThenKills) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = temp_path("crash_victim.bin");
  std::remove(path.c_str());
  const std::string payload = "0123456789";
  EXPECT_EXIT(
      {
        IoBackend& io = system_io();
        const int fd = io.open_trunc(path.c_str());
        CrashPoint::instance().arm(1);
        CrashPoint::instance().visit(io, fd, payload.data(), payload.size());
      },
      ::testing::KilledBySignal(SIGKILL), "");
  // The kill is a modelled power cut: half the payload reached the disk
  // before the process died — exactly the wound the torn-tail recovery
  // paths are built for.
  EXPECT_EQ(read_file(path), "01234");
}

}  // namespace
}  // namespace cadapt::robust
