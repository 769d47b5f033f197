// Test-only oracle for obs::parse_jsonl: an independent char-by-char
// recursive-descent parser of the same flat grammar, filling an Event
// directly. The fuzz differential (test_jsonl_fuzz.cpp) requires the
// production parser (obs::FlatScanner feeding an Event) to agree with
// it on every input — the same verdict, the same error message, and the
// same Event.
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "obs/event.hpp"

namespace cadapt::test_support {

using obs::Event;
using obs::Value;

class OracleParser {
 public:
  explicit OracleParser(std::string_view text) : text_(text) {}

  bool parse(Event* out, std::string* error) {
    skip_ws();
    if (!expect('{')) return fail(error, "expected '{'");
    bool first = true;
    bool saw_type = false;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      while (true) {
        if (!first && !expect(',')) return fail(error, "expected ',' or '}'");
        first = false;
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return fail(error, "expected field name");
        skip_ws();
        if (!expect(':')) return fail(error, "expected ':'");
        skip_ws();
        Value value;
        if (!parse_value(&value)) return fail(error, error_ptr_);
        if (key == "type") {
          const auto* s = std::get_if<std::string>(&value);
          if (s == nullptr) return fail(error, "\"type\" must be a string");
          out->type = *s;
          saw_type = true;
        } else {
          out->fields.push_back({std::move(key), std::move(value)});
        }
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          break;
        }
      }
    }
    skip_ws();
    if (pos_ != text_.size()) return fail(error, "trailing content after '}'");
    if (!saw_type) return fail(error, "missing \"type\" field");
    return true;
  }

 private:
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  bool expect(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }

  static bool fail(std::string* error, const char* message) {
    if (error != nullptr) *error = message;
    return false;
  }

  bool set_error(const char* message) {
    error_ptr_ = message;
    return false;
  }

  bool parse_string(std::string* out) {
    if (!expect('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return false;
          }
          // Encode the code point as UTF-8 (surrogate pairs are not
          // emitted by our writer; a lone surrogate is rejected).
          if (code >= 0xD800 && code <= 0xDFFF) return false;
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated string
  }

  bool parse_value(Value* out) {
    const char c = peek();
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return set_error("malformed string");
      *out = std::move(s);
      return true;
    }
    if (c == 't') {
      if (text_.substr(pos_, 4) != "true") return set_error("bad literal");
      pos_ += 4;
      *out = true;
      return true;
    }
    if (c == 'f') {
      if (text_.substr(pos_, 5) != "false") return set_error("bad literal");
      pos_ += 5;
      *out = false;
      return true;
    }
    if (c == '{' || c == '[')
      return set_error("nested objects/arrays are not part of the schema");
    if (c == 'n') return set_error("null is not part of the schema");
    return parse_number(out);
  }

  bool parse_number(Value* out) {
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
    if (token.empty() || token == "-") return set_error("expected a value");
    const char* begin = token.data();
    const char* end = token.data() + token.size();
    if (is_double) {
      double d = 0;
      const auto res = std::from_chars(begin, end, d);
      if (res.ec != std::errc() || res.ptr != end)
        return set_error("malformed number");
      *out = d;
      return true;
    }
    if (token.front() == '-') {
      std::int64_t i = 0;
      const auto res = std::from_chars(begin, end, i);
      if (res.ec != std::errc() || res.ptr != end)
        return set_error("integer out of range");
      *out = i;
      return true;
    }
    std::uint64_t u = 0;
    const auto res = std::from_chars(begin, end, u);
    if (res.ec != std::errc() || res.ptr != end)
      return set_error("integer out of range");
    *out = u;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  const char* error_ptr_ = "parse error";
};


/// parse_jsonl's contract, answered by the oracle parser.
inline bool oracle_parse_jsonl(std::string_view line, Event* out,
                               std::string* error) {
  out->type.clear();
  out->fields.clear();
  return OracleParser(line).parse(out, error);
}

}  // namespace cadapt::test_support
