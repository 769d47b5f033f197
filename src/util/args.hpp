// Table-driven command-line flag parser for the cadapt CLI.
//
// A command declares its flags once, as FlagSpec rows, and ArgParser
// parses the words after the command against them: (--flag value |
// --flag | positional)*, where a bool row never takes a value and every
// other row always takes the next word. Every violation of a row (an
// undeclared or retired flag, a missing or malformed value, a missing
// required flag) is a util::UsageError before any work starts: CLI exit
// code 2 (docs/ROBUSTNESS.md). Call sites read values without defaults;
// reading a flag the table does not declare, or with the getter of
// another kind, is a CADAPT_CHECK failure, so a table and its readers
// cannot drift apart silently.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace cadapt::util {

/// kChoice takes one of the '|'-separated words in `meta`; a kRetired
/// row is a flag that no longer exists, and `help` names its
/// replacement.
enum class FlagKind { kBool, kU64, kDouble, kString, kChoice, kRetired };

/// One flag of one command.
struct FlagSpec {
  std::string name{};  ///< without the leading "--"
  FlagKind kind = FlagKind::kBool;
  std::string help{};  ///< one line for `cadapt help <cmd>`
  std::string meta{};  ///< value placeholder in help ("N", "F"); choices
  /// Value when the flag is absent. "" = unset: strings read "", numbers
  /// read 0 (the help line says what unset means).
  std::string def{};
  std::uint64_t min = 0;  ///< kU64: smallest value accepted
  bool required = false;
  bool hidden = false;  ///< accepted, but left out of help
};

class ArgParser {
 public:
  /// Parse `tokens` (the words after the command) against `flags`.
  /// Throws UsageError on any violation of the table.
  ArgParser(const std::vector<std::string>& tokens,
            const std::vector<FlagSpec>& flags);

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Was the flag given on the command line?
  bool has(const std::string& flag) const;
  /// The given value, else the row default (kString / kChoice rows).
  std::string get_string(const std::string& flag) const;
  std::uint64_t get_u64(const std::string& flag) const;
  double get_double(const std::string& flag) const;

  /// Flags that were given but never read: declared flags that the mode
  /// the command chose ignores (e.g. `mc --keys` without --sort).
  std::vector<std::string> unused_flags() const;

 private:
  /// The row of a declared flag, marked as read.
  const FlagSpec& read(const std::string& flag) const;
  /// The given value or the default of a declared row of `kind`.
  const std::string& value(const std::string& flag, FlagKind kind) const;

  std::map<std::string, FlagSpec> flags_;  // name (no --) -> row
  std::vector<std::string> positionals_;
  std::map<std::string, std::string> given_;  // name (no --) -> value
  mutable std::set<std::string> queried_;
};

}  // namespace cadapt::util
