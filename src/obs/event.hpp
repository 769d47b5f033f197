// Structured trace events and their JSONL (one JSON object per line)
// encoding — the interchange format of the observability layer
// (docs/OBSERVABILITY.md).
//
// Events are flat: a mandatory "type" tag plus an ordered list of
// (key, scalar) fields. Flatness keeps the writer allocation-light on the
// per-box hot path and lets the parser stay small enough to be obviously
// correct — it exists so that traces can be *validated* (every emitted
// line must re-parse and re-sum; see the `cadapt trace` subcommand).
//
// The codec itself lives in obs/jsonl.hpp: to_jsonl is JsonlWriter fed
// from an Event, and parse_jsonl is FlatScanner feeding one. Bulk
// readers and writers (the report's sweep_cell lines) use that codec
// directly and never build an Event; anything field-by-field equal
// encodes to the same bytes either way.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/jsonl.hpp"

namespace cadapt::obs {

/// Scalar payload of one event field. Doubles must be finite (JSON has no
/// NaN/Inf); the builder CADAPT_CHECKs this.
using Value =
    std::variant<std::uint64_t, std::int64_t, double, bool, std::string>;

struct Field {
  std::string key;
  Value value;

  bool operator==(const Field&) const = default;
};

/// One trace event: a type tag plus ordered fields. Field order is part of
/// the encoding (traces are diffed line-by-line), so builders append in a
/// fixed order.
struct Event {
  std::string type;
  std::vector<Field> fields;

  Event() = default;
  explicit Event(std::string type_tag) : type(std::move(type_tag)) {}

  /// Builder-style appenders; return *this for chaining.
  Event& u64(std::string key, std::uint64_t v);
  Event& i64(std::string key, std::int64_t v);
  Event& f64(std::string key, double v);
  Event& flag(std::string key, bool v);
  Event& str(std::string key, std::string v);
  /// A string field holding append_f64s(values) — the same bytes as
  /// JsonlWriter::f64s.
  Event& f64s(std::string key, std::span<const double> values);

  /// First field with the given key, or nullptr.
  const Value* find(std::string_view key) const;
  /// Typed lookups with fallback. f64_or widens either integer
  /// alternative; u64_or accepts a non-negative int64_t but never
  /// narrows a double (it may be non-integral).
  std::uint64_t u64_or(std::string_view key, std::uint64_t fallback) const;
  double f64_or(std::string_view key, double fallback) const;
  bool flag_or(std::string_view key, bool fallback) const;
  std::string str_or(std::string_view key, std::string fallback) const;

  /// Remove every field with the given key (used by trace diff tools to
  /// drop nondeterministic fields such as durations). Returns *this.
  Event& without(std::string_view key);

  bool operator==(const Event&) const = default;
};

/// View of one field value, for the typed-fallback rules shared with
/// the scanner (ScalarView::u64_or and friends).
ScalarView view_of(const Value& value);

/// Escape a string for inclusion in a JSON string literal (adds no
/// surrounding quotes). UTF-8 payload bytes pass through untouched.
std::string json_escape(std::string_view s);

/// Encode as one JSON object line, "type" first, without the trailing
/// newline: {"type":"box","s":4,...}
std::string to_jsonl(const Event& event);

/// Buffer-reuse encoder for streaming writers: clears `out` and fills
/// it with the same bytes to_jsonl returns, reusing its capacity so the
/// per-line hot path (report export, checkpoints, serve streams) stops
/// allocating a fresh string per event.
void to_jsonl(const Event& event, std::string& out);

/// Parse one JSONL line produced by to_jsonl (flat object, "type"
/// required; the last "type" wins and must be a string). Returns false
/// and fills *error (if given) on malformed input; nested
/// objects/arrays and null are rejected by design.
/// Integers without sign/fraction/exponent parse as uint64_t (int64_t if
/// negative); other numbers parse as double. to_jsonl ∘ parse_jsonl is
/// the identity on events built from u64/i64(negative)/f64/flag/str.
bool parse_jsonl(std::string_view line, Event* out,
                 std::string* error = nullptr);

}  // namespace cadapt::obs
