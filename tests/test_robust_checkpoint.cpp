// Checkpoint/resume: the JSONL round trip through open_checkpoint
// (including doubles, escapes, and failed-trial records), kill-tolerance
// of the loader, and the headline guarantee — a campaign killed mid-run
// and resumed through campaign::run_cell_trials produces a summary
// bit-identical to the uninterrupted run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/sweep.hpp"
#include "core/workloads.hpp"
#include "engine/montecarlo.hpp"
#include "obs/event.hpp"
#include "obs/recorder.hpp"
#include "obs/sink.hpp"
#include "profile/distributions.hpp"
#include "robust/checkpoint.hpp"
#include "robust/error.hpp"
#include "robust/fault.hpp"
#include "robust/io.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cadapt::robust {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
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

obs::Event sample_header() {
  obs::Event header("mc_checkpoint");
  header.u64("version", 2)
      .u64("trials", 16)
      .u64("seed", 0xDEADBEEF)
      .str("config_hash", "iid n=64 dist=\"uniform\"\nwith newline");
  return header;
}

std::vector<TrialRecord> sample_records() {
  TrialRecord ok;
  ok.trial = 0;
  ok.seed = 12345;
  ok.completed = true;
  ok.boxes = 77;
  ok.ratio = 1.0 / 3.0;  // exercises shortest-round-trip double encoding
  ok.unit_ratio = 0.1;

  TrialRecord capped;
  capped.trial = 1;
  capped.seed = 999;
  capped.completed = false;
  capped.boxes = 5;

  TrialRecord failed;
  failed.trial = 2;
  failed.seed = 31337;
  failed.attempts = 3;
  failed.failed = true;
  failed.category = ErrorCategory::kInjected;
  failed.what = "injected fault at box_draw (\"quoted\", line\nbreak)";
  return {ok, capped, failed};
}

// One durable commit of `records`, as run_cell_trials commits a chunk.
void commit(DurableAppender& out, const std::vector<TrialRecord>& records) {
  for (const TrialRecord& record : records) {
    out.write(obs::to_jsonl(trial_record_event(record)));
    out.write("\n");
  }
  out.commit();
}

// Collects decoded records, keyed by trial (the last duplicate wins).
RecordFn collect(std::map<std::uint64_t, TrialRecord>& records) {
  return [&records](const JsonlLine& line) {
    TrialRecord record = trial_record_from(line);
    records.insert_or_assign(record.trial, std::move(record));
  };
}

std::map<std::uint64_t, TrialRecord> reload(const std::string& path) {
  std::map<std::uint64_t, TrialRecord> records;
  (void)open_checkpoint(path, sample_header(), true, collect(records));
  return records;
}

// The records of any checkpoint, read without opening it for appending.
std::map<std::uint64_t, TrialRecord> records_in(const std::string& path) {
  std::ifstream is(path);
  std::vector<JsonlLine> lines = load_jsonl_tolerant(is, "checkpoint");
  std::map<std::uint64_t, TrialRecord> records;
  for (std::size_t i = 1; i < lines.size(); ++i) collect(records)(lines[i]);
  return records;
}

// The checkpoint `text` parses (through open_checkpoint and the record
// decoder) to a util::ParseError; returns its message.
std::string parse_error_of(const std::string& name, const std::string& text) {
  const std::string path = temp_path(name);
  write_raw(path, text);
  try {
    (void)reload(path);
  } catch (const util::ParseError& e) {
    std::remove(path.c_str());
    return e.what();
  }
  std::remove(path.c_str());
  ADD_FAILURE() << "expected ParseError for " << name;
  return "";
}

TEST(Checkpoint, WriteLoadRoundTrip) {
  const std::string path = temp_path("ckpt_roundtrip.jsonl");
  const std::vector<TrialRecord> records = sample_records();
  commit(*open_checkpoint(path, sample_header(), false, {}), records);
  const auto loaded = reload(path);
  ASSERT_EQ(loaded.size(), records.size());
  for (const TrialRecord& expected : records) {
    const auto it = loaded.find(expected.trial);
    ASSERT_NE(it, loaded.end()) << expected.trial;
    EXPECT_EQ(it->second, expected) << "trial " << expected.trial;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, AppendContinuesAndDuplicatesKeepLast) {
  const std::string path = temp_path("ckpt_append.jsonl");
  commit(*open_checkpoint(path, sample_header(), false, {}),
         sample_records());
  const std::string before = read_file(path);
  TrialRecord redo = sample_records()[2];
  redo.failed = false;
  redo.completed = true;
  redo.boxes = 42;
  // Not persisted for non-failed records; reset so the loaded record can
  // compare equal.
  redo.category = ErrorCategory::kOther;
  redo.what.clear();
  // A resume on an existing non-empty file must not re-write the header.
  std::map<std::uint64_t, TrialRecord> before_redo;
  commit(*open_checkpoint(path, sample_header(), true, collect(before_redo)),
         {redo});
  EXPECT_EQ(before_redo.size(), 3u);
  EXPECT_EQ(read_file(path).rfind(before, 0), 0u);
  const auto loaded = reload(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.at(2), redo);
  std::remove(path.c_str());
}

TEST(Checkpoint, TornFinalLineIsDropped) {
  const std::string path = temp_path("ckpt_torn.jsonl");
  commit(*open_checkpoint(path, sample_header(), false, {}),
         sample_records());
  {
    // Simulate a kill landing mid-write of trial 3's record.
    std::ofstream os(path, std::ios::app);
    os << "{\"type\":\"trial_result\",\"trial\":3,\"se";
  }
  const auto loaded = reload(path);
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.count(3), 0u);
  std::remove(path.c_str());
}

TEST(Checkpoint, TornFinalLineIsDroppedEvenWhenItParses) {
  // A short write can stop exactly before a record's '\n': the prefix
  // parses, but the repair before appending will erase it, so the loader
  // must not hand it to the run either — it is re-derived and committed
  // again, and the file keeps every record the run used.
  const std::string path = temp_path("ckpt_torn_parses.jsonl");
  commit(*open_checkpoint(path, sample_header(), false, {}),
         sample_records());
  std::string text = read_file(path);
  text.pop_back();  // strip the final '\n' only
  write_raw(path, text);

  std::map<std::uint64_t, TrialRecord> loaded;
  std::unique_ptr<DurableAppender> resumed =
      open_checkpoint(path, sample_header(), true, collect(loaded));
  EXPECT_EQ(read_file(path), text.substr(0, text.rfind('\n') + 1));
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.count(2), 0u);
  commit(*resumed, {sample_records()[2]});
  resumed.reset();
  EXPECT_EQ(reload(path).size(), 3u);
  std::remove(path.c_str());
}

TEST(Checkpoint, TornMiddleLineIsAnError) {
  const std::string path = temp_path("ckpt_torn_middle.jsonl");
  write_raw(path,
            obs::to_jsonl(sample_header()) + "\n" +
                "{\"type\":\"trial_res\n"
                "{\"type\":\"trial_result\",\"trial\":0,\"seed\":1,"
                "\"attempts\":1,\"completed\":true,\"boxes\":1,\"ratio\":1,"
                "\"unit_ratio\":1}\n");
  try {
    (void)reload(path);
    FAIL() << "expected ParseError";
  } catch (const util::ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsStructuralDamage) {
  const std::string header = obs::to_jsonl(sample_header()) + "\n";
  const std::string record =
      "{\"type\":\"trial_result\",\"trial\":0,\"seed\":1,\"attempts\":1,"
      "\"completed\":true,\"boxes\":1,\"ratio\":1,\"unit_ratio\":1}\n";

  // No header at all: the first line is named against the header.
  EXPECT_NE(parse_error_of("ckpt_no_header.jsonl", record)
                .find("type is 'trial_result' but campaign has "
                      "'mc_checkpoint'"),
            std::string::npos);

  // A version-1 file (its key was `config`) is refused by name.
  const std::string v1 = parse_error_of(
      "ckpt_v1.jsonl",
      "{\"type\":\"mc_checkpoint\",\"version\":1,\"trials\":16,\"seed\":"
      "3735928559,\"config\":\"x\"}\n");
  EXPECT_NE(v1.find("version is 1 but campaign has 2"), std::string::npos)
      << v1;
  EXPECT_NE(v1.find("config is 'x' but campaign has none"), std::string::npos)
      << v1;

  // A duplicate header, and an unknown error category in a record.
  EXPECT_NE(parse_error_of("ckpt_dup_header.jsonl", header + record + header)
                .find("unexpected event type 'mc_checkpoint'"),
            std::string::npos);
  EXPECT_NE(parse_error_of("ckpt_bad_category.jsonl",
                           header +
                               "{\"type\":\"trial_error\",\"trial\":0,"
                               "\"seed\":1,\"attempts\":1,\"category\":"
                               "\"gremlins\",\"what\":\"x\"}\n")
                .find("unknown error category 'gremlins'"),
            std::string::npos);

  // A path that cannot be opened is an IoError, not a parse error.
  EXPECT_THROW(open_checkpoint(temp_path("ckpt_no_dir/never.jsonl"),
                               sample_header(), true, {}),
               util::IoError);
}

// ---- Resume through run_cell_trials: the bit-identical guarantee ----

struct McRun {
  engine::McSummary summary;
  std::vector<std::string> jsonl;
};

constexpr std::uint64_t kTrials = 32;

// The campaign run by run_cell_trials (with no `trials`, unchunked and
// without a checkpoint) on `threads` threads (0 = default pool).
McRun run_campaign(const campaign::CellTrials* trials,
                   std::size_t threads = 0) {
  const model::RegularParams params{8, 4, 1.0};
  const auto dist = std::make_shared<profile::UniformPowers>(4, 0, 3);
  obs::MemorySink sink;
  obs::McRecorder recorder(&sink, /*record_timing=*/false);
  std::optional<util::ThreadPool> pool;
  engine::McOptions options;
  options.trials = kTrials;
  options.seed = 20260806;
  options.recorder = &recorder;
  if (threads != 0) options.pool = &pool.emplace(threads);
  McRun run;
  run.summary = campaign::run_cell_trials(
      options,
      engine::make_regular_trial_runner(params, 64, core::iid_source(dist),
                                        options),
      trials != nullptr ? *trials : campaign::CellTrials{});
  for (const obs::Event& event : sink.events())
    run.jsonl.push_back(obs::to_jsonl(event));
  return run;
}

void expect_bit_identical(const McRun& a, const McRun& b) {
  ASSERT_EQ(a.summary.ratio_samples.size(), b.summary.ratio_samples.size());
  for (std::size_t i = 0; i < a.summary.ratio_samples.size(); ++i) {
    EXPECT_EQ(a.summary.ratio_samples[i], b.summary.ratio_samples[i]) << i;
    EXPECT_EQ(a.summary.unit_ratio_samples[i], b.summary.unit_ratio_samples[i])
        << i;
  }
  EXPECT_EQ(a.summary.incomplete, b.summary.incomplete);
  EXPECT_EQ(a.summary.failed, b.summary.failed);
  EXPECT_EQ(a.summary.truncated, b.summary.truncated);
  EXPECT_EQ(a.summary.trials_run, b.summary.trials_run);
  EXPECT_EQ(a.summary.ratio.mean(), b.summary.ratio.mean());
  EXPECT_EQ(a.summary.ratio.variance(), b.summary.ratio.variance());
  EXPECT_EQ(a.summary.unit_ratio.mean(), b.summary.unit_ratio.mean());
  EXPECT_EQ(a.summary.boxes.mean(), b.summary.boxes.mean());
  ASSERT_EQ(a.jsonl.size(), b.jsonl.size());
  for (std::size_t i = 0; i < a.jsonl.size(); ++i)
    EXPECT_EQ(a.jsonl[i], b.jsonl[i]) << "event " << i;
}

campaign::CellTrials checkpointed(const std::string& path, bool resume) {
  campaign::CellTrials trials;
  trials.chunk = 4;
  trials.config = "resume-test n=64";
  trials.checkpoint_path = path;
  trials.resume = resume;
  return trials;
}

TEST(CheckpointResume, InterruptedThenResumedIsBitIdentical) {
  const std::string path = temp_path("ckpt_resume.jsonl");
  std::remove(path.c_str());

  // Reference: the uninterrupted campaign (no checkpointing at all).
  const McRun reference = run_campaign(nullptr);
  ASSERT_FALSE(reference.summary.truncated);

  // "Kill" a checkpointed campaign partway via a box budget: the fold
  // stops after the first chunk, and at one thread only it is persisted.
  campaign::CellTrials interrupted = checkpointed(path, false);
  interrupted.budget.max_total_boxes = 1;
  const McRun partial = run_campaign(&interrupted, 1);
  ASSERT_TRUE(partial.summary.truncated);
  ASSERT_EQ(partial.summary.trials_run, 4u);
  ASSERT_EQ(records_in(path).size(), 4u);

  // Resume with the budget lifted: known chunks come from the file, the
  // rest are re-run, and the merged outcome must be indistinguishable
  // from never having been interrupted — summary and event stream alike.
  const campaign::CellTrials resumed = checkpointed(path, true);
  const McRun merged = run_campaign(&resumed);
  expect_bit_identical(merged, reference);

  // The checkpoint now covers the whole campaign: resuming again runs
  // zero new trials and still reproduces the same summary.
  const McRun replay = run_campaign(&resumed);
  expect_bit_identical(replay, reference);
  EXPECT_EQ(records_in(path).size(), kTrials);
  std::remove(path.c_str());
}

TEST(CheckpointResume, SurvivesATornTailAndPoolChanges) {
  const std::string path = temp_path("ckpt_resume_torn.jsonl");
  std::remove(path.c_str());
  const McRun reference = run_campaign(nullptr);

  campaign::CellTrials interrupted = checkpointed(path, false);
  interrupted.budget.max_total_boxes = 1;
  (void)run_campaign(&interrupted, 1);
  {
    // The kill landed mid-write this time.
    std::ofstream os(path, std::ios::app);
    os << "{\"type\":\"trial_result\",\"trial\":30,\"boxe";
  }

  // Resume under a different pool size.
  const campaign::CellTrials resumed = checkpointed(path, true);
  expect_bit_identical(run_campaign(&resumed, 8), reference);

  // The torn tail was repaired before appending: the file is fully
  // loadable again (a second kill/resume cycle would work too).
  EXPECT_EQ(records_in(path).size(), kTrials);
  std::remove(path.c_str());
}

TEST(CheckpointResume, KeepsARecordWhoseNewlineWasTorn) {
  // A final record that parses but lacks its '\n' is torn: the resume
  // re-runs its trial, and the file keeps every record the run used.
  const std::string path = temp_path("ckpt_resume_newline.jsonl");
  std::remove(path.c_str());
  const campaign::CellTrials fresh = checkpointed(path, false);
  const McRun reference = run_campaign(&fresh, 1);
  std::string text = read_file(path);
  text.pop_back();
  write_raw(path, text);

  const campaign::CellTrials resumed = checkpointed(path, true);
  expect_bit_identical(run_campaign(&resumed), reference);
  EXPECT_EQ(records_in(path).size(), kTrials);
  EXPECT_EQ(read_file(path).back(), '\n');
  std::remove(path.c_str());
}

TEST(CheckpointResume, AFailedCommitStopsTheRunAndLeavesItResumable) {
  // Disk full mid-commit: the first chunk this run commits is cut in half.
  // The run must stop there — no later chunk may be admitted, and none
  // appended after the torn record — so the tail stays the one torn line
  // a resume repairs.
  const std::string path = temp_path("ckpt_resume_short_write.jsonl");
  std::remove(path.c_str());
  const McRun reference = run_campaign(nullptr);
  campaign::CellTrials interrupted = checkpointed(path, false);
  interrupted.budget.max_total_boxes = 1;  // commits chunk 0 only
  (void)run_campaign(&interrupted, 1);
  ASSERT_EQ(records_in(path).size(), 4u);

  FaultPlan plan(0);
  plan.set_rate(FaultSite::kIoShortWrite, 1.0);
  FaultyIo io(system_io(), &plan);
  campaign::CellTrials faulty = checkpointed(path, true);
  faulty.io = &io;
  EXPECT_THROW(run_campaign(&faulty, 1), util::IoError);
  EXPECT_NE(read_file(path).back(), '\n');  // the torn half of chunk 1
  for (const auto& [trial, record] : records_in(path)) {
    EXPECT_LT(trial, 8u) << "a chunk after the failed one was committed";
  }

  const campaign::CellTrials resumed = checkpointed(path, true);
  expect_bit_identical(run_campaign(&resumed), reference);
  EXPECT_EQ(records_in(path).size(), kTrials);
  std::remove(path.c_str());
}

TEST(CheckpointResume, ResumesAnOlderFileWithoutCellKeysCutMidChunk) {
  // Older builds wrote mc trial lines without a "cell" key, and a commit
  // torn mid-chunk kept part of a chunk: such a file resumes as cell 0,
  // runs only the trials it lacks, and writes none of them twice.
  const std::string path = temp_path("ckpt_resume_older.jsonl");
  std::remove(path.c_str());
  const McRun reference = run_campaign(nullptr);
  const campaign::CellTrials fresh = checkpointed(path, false);
  (void)run_campaign(&fresh, 1);  // one thread: trials in file order
  std::vector<JsonlLine> lines;
  {
    std::ifstream is(path);
    lines = load_jsonl_tolerant(is, "checkpoint");
  }
  ASSERT_EQ(lines.size(), 1 + kTrials);
  std::string older = obs::to_jsonl(lines[0].event) + "\n";
  for (std::size_t i = 1; i <= 6; ++i) {  // chunk [0,4) and half of [4,8)
    EXPECT_EQ(lines[i].event.u64_or("cell", 99), 0u);
    older += obs::to_jsonl(lines[i].event.without("cell")) + "\n";
  }
  ASSERT_EQ(older.find("cell"), std::string::npos);
  write_raw(path, older);

  const campaign::CellTrials resumed = checkpointed(path, true);
  expect_bit_identical(run_campaign(&resumed), reference);
  std::ifstream is(path);
  const std::vector<JsonlLine> after = load_jsonl_tolerant(is, "checkpoint");
  EXPECT_EQ(after.size(), 1 + kTrials);
  EXPECT_EQ(records_in(path).size(), kTrials);
  std::remove(path.c_str());
}

TEST(CheckpointResume, RefusesAForeignCheckpoint) {
  const std::string path = temp_path("ckpt_foreign.jsonl");
  std::remove(path.c_str());
  const campaign::CellTrials first = checkpointed(path, false);
  (void)run_campaign(&first);

  campaign::CellTrials other = checkpointed(path, true);
  other.config = "another campaign";
  EXPECT_THROW(run_campaign(&other), util::ParseError);
  std::remove(path.c_str());
}

TEST(CheckpointResume, MissingFileIsAFreshStart) {
  const std::string path = temp_path("ckpt_fresh.jsonl");
  std::remove(path.c_str());
  // Nothing to resume from: run everything.
  const campaign::CellTrials resumed = checkpointed(path, true);
  expect_bit_identical(run_campaign(&resumed), run_campaign(nullptr));

  // ... and it left a complete checkpoint behind.
  EXPECT_EQ(records_in(path).size(), kTrials);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cadapt::robust
