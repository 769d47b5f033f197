// The streaming JSONL codec under obs::Event (docs/OBSERVABILITY.md):
// one flat-object grammar, read by FlatScanner and written by
// JsonlWriter, with no Event in between.
//
// FlatScanner walks one line and yields (key, scalar) pairs as views. It
// allocates nothing unless a string carries an escape, so a loader can
// decode a line straight into its own columns (report::load_store_jsonl)
// instead of materializing an Event per line. parse_jsonl is the same
// scanner feeding an Event, so there is one tokenizer and one grammar.
//
// JsonlWriter appends one object to a caller-owned buffer, escaping in
// place. to_jsonl(Event) is the same writer fed from an Event's fields,
// so a record written field by field (campaign::append_cell_jsonl) is
// byte-identical to the Event route.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace cadapt::obs {

/// One scanned scalar. `str` points into the scanned line, or into the
/// scanner's scratch buffer when the string carried an escape; either
/// way it is valid only until the next FlatScanner::next call.
struct ScalarView {
  enum class Kind : std::uint8_t { kU64, kI64, kF64, kBool, kStr };
  Kind kind = Kind::kU64;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  double f64 = 0;
  bool flag = false;
  std::string_view str;

  /// Typed reads with fallback, the rules of Event::u64_or and friends:
  /// u64_or accepts a non-negative int64 but never narrows a double;
  /// f64_or widens either integer kind.
  std::uint64_t u64_or(std::uint64_t fallback) const;
  double f64_or(double fallback) const;
  bool flag_or(bool fallback) const;
  std::string_view str_or(std::string_view fallback) const;
};

/// Pull scanner over one flat JSON object line:
///
///   FlatScanner scan(line);
///   std::string_view key;
///   ScalarView value;
///   while (scan.next(key, value)) { ... }
///   if (scan.error() != nullptr) { /* malformed line */ }
///
/// next() returns false at the closing '}' (after checking that only
/// whitespace follows) or at the first syntax error, which error() then
/// names. Nested objects, arrays and null are rejected by design.
/// Integers without sign/fraction/exponent scan as kU64 (kI64 if
/// negative); other numbers scan as kF64 and must be finite. The "type"
/// key is an ordinary field here; parse_jsonl gives it its meaning.
class FlatScanner {
 public:
  explicit FlatScanner(std::string_view line) : text_(line) {}

  bool next(std::string_view& key, ScalarView& value);
  const char* error() const { return error_; }

 private:
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool expect(char c);
  void skip_ws();
  bool fail(const char* message);
  bool close();
  bool parse_string(std::string_view& out, std::string& scratch);
  bool parse_value(ScalarView& out);
  bool parse_number(ScalarView& out);

  enum class State : std::uint8_t { kOpen, kFields, kDone };
  std::string_view text_;
  std::size_t pos_ = 0;
  State state_ = State::kOpen;
  const char* error_ = nullptr;
  std::string key_scratch_;
  std::string str_scratch_;
};

/// Append `s` to `out` escaped for a JSON string literal (no surrounding
/// quotes). UTF-8 payload bytes pass through untouched.
void append_escaped(std::string& out, std::string_view s);

/// Append doubles as one space-separated run of shortest-round-trip
/// numbers (the report's samples encoding; no quotes).
void append_f64s(std::string& out, std::span<const double> values);

/// Append-only writer of one flat JSON object into a caller's buffer:
///
///   JsonlWriter(buf).begin("box").u64("s", 4).str("tag", "x").end();
///
/// appends {"type":"box","s":4,"tag":"x"} (no newline). Doubles use the
/// shortest round-trip form and must be finite (CADAPT_CHECKed, as
/// Event::f64 does), so 2.0 is written as 2 and -0.0 as -0.
class JsonlWriter {
 public:
  explicit JsonlWriter(std::string& out) : out_(out) {}

  /// Open the object with its "type" tag.
  JsonlWriter& begin(std::string_view type);
  JsonlWriter& u64(std::string_view key, std::uint64_t v);
  JsonlWriter& i64(std::string_view key, std::int64_t v);
  JsonlWriter& f64(std::string_view key, double v);
  JsonlWriter& flag(std::string_view key, bool v);
  JsonlWriter& str(std::string_view key, std::string_view v);
  /// A string field holding append_f64s(values).
  JsonlWriter& f64s(std::string_view key, std::span<const double> values);
  /// Close the object.
  void end() { out_ += '}'; }

 private:
  void key(std::string_view k);

  std::string& out_;
};

}  // namespace cadapt::obs
