#include "obs/jsonl.hpp"

#include <array>
#include <charconv>
#include <cmath>

#include "util/check.hpp"

namespace cadapt::obs {

std::uint64_t ScalarView::u64_or(std::uint64_t fallback) const {
  if (kind == Kind::kU64) return u64;
  if (kind == Kind::kI64) {
    return i64 >= 0 ? static_cast<std::uint64_t>(i64) : fallback;
  }
  return fallback;
}

double ScalarView::f64_or(double fallback) const {
  switch (kind) {
    case Kind::kF64: return f64;
    case Kind::kU64: return static_cast<double>(u64);
    case Kind::kI64: return static_cast<double>(i64);
    default: return fallback;
  }
}

bool ScalarView::flag_or(bool fallback) const {
  return kind == Kind::kBool ? flag : fallback;
}

std::string_view ScalarView::str_or(std::string_view fallback) const {
  return kind == Kind::kStr ? str : fallback;
}

// ---- FlatScanner ------------------------------------------------------

bool FlatScanner::expect(char c) {
  if (peek() != c) return false;
  ++pos_;
  return true;
}

void FlatScanner::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r')) {
    ++pos_;
  }
}

bool FlatScanner::fail(const char* message) {
  state_ = State::kDone;
  error_ = message;
  return false;
}

bool FlatScanner::close() {
  ++pos_;  // the '}'
  state_ = State::kDone;
  skip_ws();
  if (pos_ != text_.size()) return fail("trailing content after '}'");
  return false;
}

bool FlatScanner::next(std::string_view& key, ScalarView& value) {
  switch (state_) {
    case State::kDone:
      return false;
    case State::kOpen:
      skip_ws();
      if (!expect('{')) return fail("expected '{'");
      skip_ws();
      if (peek() == '}') return close();
      state_ = State::kFields;
      break;
    case State::kFields:
      skip_ws();
      if (peek() == '}') return close();
      if (!expect(',')) return fail("expected ',' or '}'");
      break;
  }
  skip_ws();
  if (!parse_string(key, key_scratch_)) return fail("expected field name");
  skip_ws();
  if (!expect(':')) return fail("expected ':'");
  skip_ws();
  return parse_value(value);
}

bool FlatScanner::parse_string(std::string_view& out, std::string& scratch) {
  if (!expect('"')) return false;
  // Fast path: no escape before the closing quote means the view can
  // point straight into the line.
  const std::size_t start = pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      out = text_.substr(start, pos_ - start);
      ++pos_;
      return true;
    }
    if (c == '\\') break;
    if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
    ++pos_;
  }
  if (pos_ >= text_.size()) return false;  // unterminated string
  scratch.assign(text_.substr(start, pos_ - start));
  while (pos_ < text_.size()) {
    const char c = text_[pos_++];
    if (c == '"') {
      out = scratch;
      return true;
    }
    if (c != '\\') {
      if (static_cast<unsigned char>(c) < 0x20) return false;
      scratch += c;
      continue;
    }
    if (pos_ >= text_.size()) return false;
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': scratch += '"'; break;
      case '\\': scratch += '\\'; break;
      case '/': scratch += '/'; break;
      case 'b': scratch += '\b'; break;
      case 'f': scratch += '\f'; break;
      case 'n': scratch += '\n'; break;
      case 'r': scratch += '\r'; break;
      case 't': scratch += '\t'; break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return false;
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return false;
          }
        }
        // Encode the code point as UTF-8 (surrogate pairs are not
        // emitted by our writer; a lone surrogate is rejected).
        if (code >= 0xD800 && code <= 0xDFFF) return false;
        if (code < 0x80) {
          scratch += static_cast<char>(code);
        } else if (code < 0x800) {
          scratch += static_cast<char>(0xC0 | (code >> 6));
          scratch += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          scratch += static_cast<char>(0xE0 | (code >> 12));
          scratch += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          scratch += static_cast<char>(0x80 | (code & 0x3F));
        }
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated string
}

bool FlatScanner::parse_value(ScalarView& out) {
  const char c = peek();
  if (c == '"') {
    out.kind = ScalarView::Kind::kStr;
    if (!parse_string(out.str, str_scratch_)) return fail("malformed string");
    return true;
  }
  if (c == 't' || c == 'f') {
    const std::string_view word = c == 't' ? "true" : "false";
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    out.kind = ScalarView::Kind::kBool;
    out.flag = c == 't';
    return true;
  }
  if (c == '{' || c == '[') {
    return fail("nested objects/arrays are not part of the schema");
  }
  if (c == 'n') return fail("null is not part of the schema");
  return parse_number(out);
}

bool FlatScanner::parse_number(ScalarView& out) {
  const std::size_t start = pos_;
  bool is_double = false;
  if (peek() == '-') ++pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c >= '0' && c <= '9') {
      ++pos_;
    } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
      is_double = true;
      ++pos_;
    } else {
      break;
    }
  }
  const std::string_view token = text_.substr(start, pos_ - start);
  if (token.empty() || token == "-") return fail("expected a value");
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  if (is_double) {
    const auto res = std::from_chars(begin, end, out.f64);
    if (res.ec != std::errc() || res.ptr != end) {
      return fail("malformed number");
    }
    out.kind = ScalarView::Kind::kF64;
    return true;
  }
  if (token.front() == '-') {
    const auto res = std::from_chars(begin, end, out.i64);
    if (res.ec != std::errc() || res.ptr != end) {
      return fail("integer out of range");
    }
    out.kind = ScalarView::Kind::kI64;
    return true;
  }
  const auto res = std::from_chars(begin, end, out.u64);
  if (res.ec != std::errc() || res.ptr != end) {
    return fail("integer out of range");
  }
  out.kind = ScalarView::Kind::kU64;
  return true;
}

// ---- writing ----------------------------------------------------------

namespace {

/// Integers, and doubles via shortest-round-trip to_chars: the parsed
/// value is bit-identical to the written one.
template <typename T>
void append_number(std::string& out, T v) {
  std::array<char, 32> buf;
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  CADAPT_CHECK(res.ec == std::errc());
  out.append(buf.data(), res.ptr);
}

bool needs_escape(char ch) {
  return ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 0x20;
}

}  // namespace

void append_escaped(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    if (!needs_escape(ch)) continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const auto byte = static_cast<unsigned char>(ch);
        const char escaped[] = {'\\', 'u', '0', '0', kHex[byte >> 4],
                                kHex[byte & 0xF]};
        out.append(escaped, sizeof escaped);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

void append_f64s(std::string& out, std::span<const double> values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ' ';
    append_number(out, values[i]);
  }
}

void JsonlWriter::key(std::string_view k) {
  out_ += ",\"";
  append_escaped(out_, k);
  out_ += "\":";
}

JsonlWriter& JsonlWriter::begin(std::string_view type) {
  out_ += "{\"type\":\"";
  append_escaped(out_, type);
  out_ += '"';
  return *this;
}

JsonlWriter& JsonlWriter::u64(std::string_view k, std::uint64_t v) {
  key(k);
  append_number(out_, v);
  return *this;
}

JsonlWriter& JsonlWriter::i64(std::string_view k, std::int64_t v) {
  key(k);
  append_number(out_, v);
  return *this;
}

JsonlWriter& JsonlWriter::f64(std::string_view k, double v) {
  CADAPT_CHECK_MSG(std::isfinite(v),
                   "JSON cannot represent non-finite field '" << k << "'");
  key(k);
  append_number(out_, v);
  return *this;
}

JsonlWriter& JsonlWriter::flag(std::string_view k, bool v) {
  key(k);
  out_ += v ? "true" : "false";
  return *this;
}

JsonlWriter& JsonlWriter::str(std::string_view k, std::string_view v) {
  key(k);
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
  return *this;
}

JsonlWriter& JsonlWriter::f64s(std::string_view k,
                               std::span<const double> values) {
  key(k);
  out_ += '"';
  append_f64s(out_, values);
  out_ += '"';
  return *this;
}

}  // namespace cadapt::obs
