// Checkpoints: append-only JSONL logs that make a killed campaign
// resumable. Every checkpoint in the repo — a sweep's, a serve job's and
// `cadapt mc`'s — is one header line naming its driver's campaign
// (sweep_checkpoint, serve_job, mc_checkpoint), then one record grammar,
// written by campaign::CheckpointWriter and decoded by
// campaign::restore_cells:
//
//   {"type":"trial_result","trial":0,"seed":...,"attempts":1,
//    "completed":true,"boxes":...,"ratio":...,"unit_ratio":...,"cell":C}
//   {"type":"trial_error","trial":7,"seed":...,"attempts":2,
//    "category":"injected","what":"...","cell":C}
//                            — a chunk's trials, one commit (cell 0 when
//                              the key is absent, as older mc files were)
//   {"type":"sweep_cell",...} — a finished cell; supersedes its trials
//
// Every file is opened through open_checkpoint, the one place that
// repairs a torn tail, opens the DurableAppender, writes the header into
// an empty file and loads what a resume restores. Because each trial's
// outcome is a pure function of (cell seed, trial index), resuming from
// a checkpoint and running only the missing trials yields a result
// bit-identical to an uninterrupted run — doubles round-trip exactly
// through the shortest-round-trip encoding (obs/event.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "robust/error.hpp"
#include "robust/io.hpp"

namespace cadapt::robust {

/// One parsed line of a JSONL checkpoint stream, with its 1-based line
/// number for error reporting.
struct JsonlLine {
  std::size_t line_no = 0;
  obs::Event event;
};

/// Parse a JSONL stream with torn-final-line tolerance: every line must
/// parse as an obs::Event, except that a malformed *final* line is
/// silently dropped — the expected wound of a process killed mid-write.
/// A malformed line anywhere else throws util::ParseError (line-numbered,
/// prefixed with `what`). Empty lines are skipped. This is the shared
/// substrate of every resumable JSONL format in the repo.
std::vector<JsonlLine> load_jsonl_tolerant(std::istream& is,
                                           const std::string& what);

/// Truncate a torn final line in place (no trailing '\n' means the last
/// write was cut mid-line, whether or not the cut prefix happens to
/// parse). Appending to the file without this would concatenate the
/// first new record onto the torn tail and corrupt it for every later
/// load. Missing or empty files are left untouched. Returns the number
/// of torn bytes dropped (0 for a clean tail) so callers can report the
/// recovery instead of hiding it.
std::uint64_t truncate_torn_tail(const std::string& path);

/// The last line of the file at `path`, without its '\n', read backwards
/// from the end; empty for a missing or empty file. Call it after
/// truncate_torn_tail, so that the line is complete.
std::string last_line(const std::string& path);

/// Receives each record line of a resumed checkpoint, in file order.
using RecordFn = std::function<void(const JsonlLine&)>;

/// Open the checkpoint at `path` whose first line is `header` and return
/// the appender new records commit through. Fresh
/// (resume == false): truncate and write the header. Resume: drop a torn
/// tail first — so a final line without '\n' is torn even if it parses,
/// and is re-derived rather than loaded and then erased — then append,
/// writing the header into an empty or missing file, and pass every
/// record after the header to `on_record`, with the tolerance rules of
/// load_jsonl_tolerant (line by line: a resume never holds the whole
/// file). Throws util::ParseError when the file's header differs from
/// `header`, naming every differing field with both values ("seed is 7
/// but campaign has 8"), and util::IoError when the file cannot be opened
/// or the header commit fails.
std::unique_ptr<DurableAppender> open_checkpoint(
    const std::string& path, const obs::Event& header, bool resume,
    const RecordFn& on_record, IoBackend& io = system_io());

/// Read a checkpoint no writer appends to any more (a finished serve
/// job's) without opening it for append: return its first line and pass
/// every later record to `on_record`, with the tolerance rules of
/// load_jsonl_tolerant. Throws util::IoError when the file cannot be
/// opened and util::ParseError when it holds no line.
obs::Event read_checkpoint(const std::string& path, const RecordFn& on_record);

/// The header check of open_checkpoint: throws util::ParseError (at
/// `line_no`) unless `have`, the header of the file at `path`, equals
/// `want`, naming every differing field with both values.
void check_header(const std::string& path, const obs::Event& have,
                  const obs::Event& want, std::size_t line_no = 1);

/// Outcome of one finished trial, as persisted. Exactly one of
/// {failed, completed, !completed} interpretations applies:
///   failed           — contained TrialError (category/what are set)
///   !failed &&  completed — normal trial, ratio/unit_ratio meaningful
///   !failed && !completed — trial hit the per-trial box cap
struct TrialRecord {
  std::uint64_t trial = 0;
  std::uint64_t seed = 0;      ///< derived seed of the decisive attempt
  std::uint32_t attempts = 1;  ///< attempts burned (retries + 1)
  bool failed = false;
  bool completed = false;
  /// Incomplete because the max_boxes cap fired (vs. the source running
  /// dry); always false when completed.
  bool capped = false;
  std::uint64_t boxes = 0;
  double ratio = 0;
  double unit_ratio = 0;
  std::uint64_t duration_ns = 0;
  /// Total backoff slept before this trial's attempts (0 unless a
  /// BackoffPolicy is enabled AND the trial retried; emitted to the
  /// checkpoint only when nonzero, so backoff-free campaigns stay
  /// byte-identical).
  std::uint64_t backoff_ns = 0;
  // Set only when failed:
  ErrorCategory category = ErrorCategory::kOther;
  std::string what;

  bool operator==(const TrialRecord&) const = default;
};

/// The record's checkpoint line: trial_result, or trial_error when failed.
obs::Event trial_record_event(const TrialRecord& record);

/// Decode a trial_result/trial_error line. Throws util::ParseError
/// (line-numbered) for any other line type or an unknown error category.
TrialRecord trial_record_from(const JsonlLine& line);

}  // namespace cadapt::robust
