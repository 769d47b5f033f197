#include "robust/checkpoint.hpp"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <fstream>
#include <istream>
#include <optional>
#include <sstream>
#include <variant>

#include "obs/event.hpp"
#include "util/check.hpp"

namespace cadapt::robust {

namespace {

// A header value as the mismatch error shows it; "none" when absent.
std::string value_text(const obs::Value* value) {
  if (value == nullptr) return "none";
  if (const auto* text = std::get_if<std::string>(value)) {
    return "'" + *text + "'";
  }
  std::ostringstream os;
  std::visit([&os](const auto& v) { os << v; }, *value);
  return os.str();
}

// "F is A but campaign has B" for every field (and the type tag) where
// the file's header differs from the campaign's: "does not match" alone
// sends the user diffing JSONL headers by hand.
std::string header_diff(const obs::Event& have, const obs::Event& want) {
  std::string detail;
  const auto note = [&detail](const std::string& field,
                              const std::string& a, const std::string& b) {
    if (a == b) return;
    if (!detail.empty()) detail += ", ";
    detail += field + " is " + a + " but campaign has " + b;
  };
  note("type", "'" + have.type + "'", "'" + want.type + "'");
  for (const obs::Field& field : want.fields) {
    note(field.key, value_text(have.find(field.key)), value_text(&field.value));
  }
  for (const obs::Field& field : have.fields) {
    if (want.find(field.key) == nullptr) {
      note(field.key, value_text(&field.value), "none");
    }
  }
  if (detail.empty()) detail = "fields are in a different order";
  return detail;
}

// Parse `is` line by line with the torn-final-line rule of
// load_jsonl_tolerant, handing each parsed line to `on_line`.
void scan_jsonl_tolerant(std::istream& is, const std::string& what,
                         const std::function<void(JsonlLine&)>& on_line) {
  std::string text;
  std::size_t line_no = 0;
  bool pending_torn = false;  // a parse failure that may be a torn tail
  std::string pending_error;
  std::size_t pending_line = 0;
  while (std::getline(is, text)) {
    ++line_no;
    if (text.empty()) continue;
    if (pending_torn) {
      // The malformed line was not the final one after all.
      throw util::ParseError(pending_error, pending_line);
    }
    JsonlLine line{line_no, {}};
    std::string error;
    if (!obs::parse_jsonl(text, &line.event, &error)) {
      pending_torn = true;
      pending_error = what + " line " + std::to_string(line_no) + ": " + error;
      pending_line = line_no;
      continue;
    }
    on_line(line);
  }
}

// Where the line holding byte end - 1 starts: just past the last '\n'
// before it, or 0.
std::streamoff line_start(std::istream& is, std::streamoff end) {
  for (std::streamoff pos = end - 1; pos > 0; --pos) {
    is.seekg(pos - 1);
    if (is.get() == '\n') return pos;
  }
  return 0;
}

}  // namespace

obs::Event trial_record_event(const TrialRecord& record) {
  if (record.failed) {
    obs::Event event("trial_error");
    event.u64("trial", record.trial)
        .u64("seed", record.seed)
        .u64("attempts", record.attempts)
        .str("category", error_category_name(record.category))
        .str("what", record.what);
    if (record.backoff_ns != 0) event.u64("backoff_ns", record.backoff_ns);
    return event;
  }
  obs::Event event("trial_result");
  event.u64("trial", record.trial)
      .u64("seed", record.seed)
      .u64("attempts", record.attempts)
      .flag("completed", record.completed)
      .u64("boxes", record.boxes)
      .f64("ratio", record.ratio)
      .f64("unit_ratio", record.unit_ratio);
  if (record.duration_ns != 0) event.u64("duration_ns", record.duration_ns);
  // Emitted only when set so checkpoints from cap-free campaigns stay
  // byte-identical to ones written before the field existed.
  if (record.capped) event.flag("capped", true);
  // Same only-when-set discipline: backoff-free campaigns (the default)
  // keep their historical byte layout.
  if (record.backoff_ns != 0) event.u64("backoff_ns", record.backoff_ns);
  return event;
}

TrialRecord trial_record_from(const JsonlLine& line) {
  const obs::Event& event = line.event;
  const std::string where = "checkpoint line " + std::to_string(line.line_no);
  if (event.type != "trial_result" && event.type != "trial_error") {
    throw util::ParseError(
        where + ": unexpected event type '" + event.type + "'", line.line_no);
  }
  TrialRecord record;
  record.trial = event.u64_or("trial", 0);
  record.seed = event.u64_or("seed", 0);
  record.attempts = static_cast<std::uint32_t>(event.u64_or("attempts", 1));
  record.backoff_ns = event.u64_or("backoff_ns", 0);
  if (event.type == "trial_error") {
    record.failed = true;
    const std::string name = event.str_or("category", "");
    const auto category = parse_error_category(name);
    if (!category) {
      throw util::ParseError(
          where + ": unknown error category '" + name + "'", line.line_no);
    }
    record.category = *category;
    record.what = event.str_or("what", "");
    return record;
  }
  record.completed = event.flag_or("completed", false);
  record.capped = event.flag_or("capped", false);
  record.boxes = event.u64_or("boxes", 0);
  record.ratio = event.f64_or("ratio", 0);
  record.unit_ratio = event.f64_or("unit_ratio", 0);
  record.duration_ns = event.u64_or("duration_ns", 0);
  return record;
}

std::vector<JsonlLine> load_jsonl_tolerant(std::istream& is,
                                           const std::string& what) {
  std::vector<JsonlLine> lines;
  scan_jsonl_tolerant(is, what,
                      [&lines](JsonlLine& line) {
                        lines.push_back(std::move(line));
                      });
  return lines;
}

std::uint64_t truncate_torn_tail(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return 0;  // missing file: append mode will create it
  is.seekg(0, std::ios::end);
  const std::streamoff size = is.tellg();
  if (size <= 0) return 0;
  is.seekg(size - 1);
  if (is.get() == '\n') return 0;  // clean tail, nothing to repair
  const std::streamoff keep = line_start(is, size);  // the torn line
  is.close();
  std::filesystem::resize_file(path, static_cast<std::uintmax_t>(keep));
  return static_cast<std::uint64_t>(size - keep);
}

std::string last_line(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  const std::streamoff end = is ? std::streamoff(is.tellg()) - 1 : 0;
  if (end <= 0) return {};
  std::string line(static_cast<std::size_t>(end - line_start(is, end)), 0);
  is.seekg(end - static_cast<std::streamoff>(line.size()));
  is.read(line.data(), static_cast<std::streamsize>(line.size()));
  return line;
}

void check_header(const std::string& path, const obs::Event& have,
                  const obs::Event& want, std::size_t line_no) {
  if (have == want) return;
  throw util::ParseError("checkpoint '" + path +
                             "' belongs to a different campaign (its " +
                             header_diff(have, want) +
                             ") — refusing to resume",
                         line_no);
}

obs::Event read_checkpoint(const std::string& path,
                           const RecordFn& on_record) {
  std::ifstream is(path);
  if (!is) throw util::IoError("cannot open checkpoint '" + path + "'");
  std::optional<obs::Event> header;
  scan_jsonl_tolerant(is, "checkpoint", [&](JsonlLine& line) {
    if (header.has_value()) return on_record(line);
    header = std::move(line.event);
  });
  if (!header.has_value()) {
    throw util::ParseError("checkpoint '" + path + "' is empty");
  }
  return *header;
}

std::unique_ptr<DurableAppender> open_checkpoint(
    const std::string& path, const obs::Event& header, bool resume,
    const RecordFn& on_record, IoBackend& io) {
  // Repair before loading: a record the loader accepted and the repair
  // then erased would be used by this run but missing from the next.
  if (resume) truncate_torn_tail(path);
  auto out = std::make_unique<DurableAppender>(path, /*truncate=*/!resume, io);
  bool headed = false;
  if (out->initial_size() != 0) {
    std::ifstream is(path);
    std::string what = header.type;
    std::replace(what.begin(), what.end(), '_', ' ');
    scan_jsonl_tolerant(is, what, [&](JsonlLine& line) {
      if (headed) return on_record(line);
      check_header(path, line.event, header, line.line_no);
      headed = true;
    });
  }
  if (!headed) {
    out->write(obs::to_jsonl(header));
    out->write("\n");
    out->commit();
  }
  return out;
}

}  // namespace cadapt::robust
