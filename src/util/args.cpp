#include "util/args.hpp"

#include <charconv>
#include <cstdlib>
#include <utility>

#include "util/check.hpp"

namespace cadapt::util {

namespace {

bool parse_u64(const std::string& text, std::uint64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc{} && ptr == text.data() + text.size();
}

bool parse_double(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size();
}

// "" when `value` suits the row, else what the row expects, in words
// (the one uniform usage message).
std::string mismatch(const FlagSpec& spec, const std::string& value) {
  std::uint64_t u = 0;
  double d = 0;
  switch (spec.kind) {
    case FlagKind::kU64:
      if (parse_u64(value, &u) && u >= spec.min) return "";
      return spec.min == 0
                 ? "an unsigned integer"
                 : "an unsigned integer >= " + std::to_string(spec.min);
    case FlagKind::kDouble:
      return parse_double(value, &d) ? "" : "a number";
    case FlagKind::kChoice:
      return value.find('|') == std::string::npos &&
                     ("|" + spec.meta + "|").find("|" + value + "|") !=
                         std::string::npos
                 ? ""
                 : "one of " + spec.meta;
    default:
      return "";
  }
}

}  // namespace

ArgParser::ArgParser(const std::vector<std::string>& tokens,
                     const std::vector<FlagSpec>& flags) {
  for (const FlagSpec& spec : flags) {
    CADAPT_CHECK_MSG(spec.def.empty() || mismatch(spec, spec.def).empty(),
                     "flag --" << spec.name << " has a malformed default");
    CADAPT_CHECK_MSG(flags_.emplace(spec.name, spec).second,
                     "flag --" << spec.name << " declared twice");
  }
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    if (tok.rfind("--", 0) != 0) {
      positionals_.push_back(tok);
      continue;
    }
    const std::string name = tok.substr(2);
    if (name.empty()) throw UsageError("empty flag name");
    const auto it = flags_.find(name);
    if (it == flags_.end()) throw UsageError("unknown flag " + tok);
    const FlagSpec& row = it->second;
    if (row.kind == FlagKind::kRetired) {
      throw UsageError(tok + " is retired: " + row.help);
    }
    if (row.kind == FlagKind::kBool) {
      given_[name] = "";
      continue;
    }
    if (i + 1 == tokens.size() || tokens[i + 1].rfind("--", 0) == 0) {
      throw UsageError(tok + " expects a value (" + row.meta + ")");
    }
    const std::string& value = tokens[++i];
    const std::string expected = mismatch(row, value);
    if (!expected.empty()) {
      throw UsageError(tok + " expects " + expected + ", got '" + value + "'");
    }
    given_[name] = value;
  }
  for (const auto& [name, spec] : flags_) {
    if (spec.required && given_.count(name) == 0) {
      throw UsageError("--" + spec.name + " " + spec.meta + " is required");
    }
  }
}

const FlagSpec& ArgParser::read(const std::string& flag) const {
  const auto it = flags_.find(flag);
  CADAPT_CHECK_MSG(it != flags_.end(),
                   "flag --" << flag << " is not in this command's table");
  queried_.insert(flag);
  return it->second;
}

const std::string& ArgParser::value(const std::string& flag,
                                    FlagKind kind) const {
  const FlagSpec& spec = read(flag);
  CADAPT_CHECK_MSG(spec.kind == kind || (kind == FlagKind::kString &&
                                         spec.kind == FlagKind::kChoice),
                   "flag --" << flag << " read as the wrong kind");
  const auto it = given_.find(flag);
  return it == given_.end() ? spec.def : it->second;
}

bool ArgParser::has(const std::string& flag) const {
  read(flag);
  return given_.count(flag) != 0;
}

std::string ArgParser::get_string(const std::string& flag) const {
  return value(flag, FlagKind::kString);
}

std::uint64_t ArgParser::get_u64(const std::string& flag) const {
  std::uint64_t out = 0;
  parse_u64(value(flag, FlagKind::kU64), &out);
  return out;
}

double ArgParser::get_double(const std::string& flag) const {
  double out = 0;
  parse_double(value(flag, FlagKind::kDouble), &out);
  return out;
}

std::vector<std::string> ArgParser::unused_flags() const {
  std::vector<std::string> unused;
  for (const auto& given : given_) {
    if (queried_.count(given.first) == 0) unused.push_back(given.first);
  }
  return unused;
}

}  // namespace cadapt::util
