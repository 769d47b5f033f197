#include "obs/event.hpp"

#include <cmath>

#include "util/check.hpp"

namespace cadapt::obs {

Event& Event::u64(std::string key, std::uint64_t v) {
  fields.push_back({std::move(key), Value{v}});
  return *this;
}

Event& Event::i64(std::string key, std::int64_t v) {
  fields.push_back({std::move(key), Value{v}});
  return *this;
}

Event& Event::f64(std::string key, double v) {
  CADAPT_CHECK_MSG(std::isfinite(v),
                   "JSON cannot represent non-finite field '" << key << "'");
  fields.push_back({std::move(key), Value{v}});
  return *this;
}

Event& Event::flag(std::string key, bool v) {
  fields.push_back({std::move(key), Value{v}});
  return *this;
}

Event& Event::str(std::string key, std::string v) {
  fields.push_back({std::move(key), Value{std::move(v)}});
  return *this;
}

Event& Event::f64s(std::string key, std::span<const double> values) {
  std::string joined;
  append_f64s(joined, values);
  return str(std::move(key), std::move(joined));
}

const Value* Event::find(std::string_view key) const {
  for (const Field& f : fields)
    if (f.key == key) return &f.value;
  return nullptr;
}

ScalarView view_of(const Value& value) {
  ScalarView out;
  std::visit(
      [&out](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::uint64_t>) {
          out.kind = ScalarView::Kind::kU64;
          out.u64 = v;
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          out.kind = ScalarView::Kind::kI64;
          out.i64 = v;
        } else if constexpr (std::is_same_v<T, double>) {
          out.kind = ScalarView::Kind::kF64;
          out.f64 = v;
        } else if constexpr (std::is_same_v<T, bool>) {
          out.kind = ScalarView::Kind::kBool;
          out.flag = v;
        } else {
          out.kind = ScalarView::Kind::kStr;
          out.str = v;
        }
      },
      value);
  return out;
}

std::uint64_t Event::u64_or(std::string_view key,
                            std::uint64_t fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : view_of(*v).u64_or(fallback);
}

double Event::f64_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : view_of(*v).f64_or(fallback);
}

bool Event::flag_or(std::string_view key, bool fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : view_of(*v).flag_or(fallback);
}

std::string Event::str_or(std::string_view key, std::string fallback) const {
  const Value* v = find(key);
  if (v == nullptr) return fallback;
  if (const auto* s = std::get_if<std::string>(v)) return *s;
  return fallback;
}

Event& Event::without(std::string_view key) {
  std::erase_if(fields, [key](const Field& f) { return f.key == key; });
  return *this;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string to_jsonl(const Event& event) {
  std::string out;
  to_jsonl(event, out);
  return out;
}

void to_jsonl(const Event& event, std::string& out) {
  out.clear();
  if (out.capacity() < 32 + event.fields.size() * 16) {
    out.reserve(32 + event.fields.size() * 16);
  }
  JsonlWriter writer(out);
  writer.begin(event.type);
  for (const Field& f : event.fields) {
    std::visit(
        [&](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::uint64_t>) {
            writer.u64(f.key, v);
          } else if constexpr (std::is_same_v<T, std::int64_t>) {
            writer.i64(f.key, v);
          } else if constexpr (std::is_same_v<T, double>) {
            writer.f64(f.key, v);
          } else if constexpr (std::is_same_v<T, bool>) {
            writer.flag(f.key, v);
          } else {
            writer.str(f.key, v);
          }
        },
        f.value);
  }
  writer.end();
}

bool parse_jsonl(std::string_view line, Event* out, std::string* error) {
  CADAPT_CHECK(out != nullptr);
  out->type.clear();
  out->fields.clear();
  const auto fail = [error](const char* message) {
    if (error != nullptr) *error = message;
    return false;
  };
  FlatScanner scan(line);
  std::string_view key;
  ScalarView value;
  bool saw_type = false;
  while (scan.next(key, value)) {
    if (key == "type") {
      // Last "type" wins; it must be a string.
      if (value.kind != ScalarView::Kind::kStr) {
        return fail("\"type\" must be a string");
      }
      out->type = value.str;
      saw_type = true;
      continue;
    }
    Value v;
    switch (value.kind) {
      case ScalarView::Kind::kU64: v = value.u64; break;
      case ScalarView::Kind::kI64: v = value.i64; break;
      case ScalarView::Kind::kF64: v = value.f64; break;
      case ScalarView::Kind::kBool: v = value.flag; break;
      case ScalarView::Kind::kStr: v = std::string(value.str); break;
    }
    out->fields.push_back({std::string(key), std::move(v)});
  }
  if (scan.error() != nullptr) return fail(scan.error());
  if (!saw_type) return fail("missing \"type\" field");
  return true;
}

}  // namespace cadapt::obs
