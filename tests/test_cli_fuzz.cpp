// Seeded argv fuzz over every command table in tools/cli_flags.cpp (ctest
// label `fuzz`). The corpus is one valid argv per command: its positionals,
// and every row with a valid value. Mutants go beyond what
// CliFlags.HelpCoversEveryFlag checks row by row: a misspelled name per
// row, repeated flags, hostile values (u64 overflow, "-1", the empty
// string, a bare "--"), and random permutations, drops and insertions of
// the valid argv. The contract on every mutant: parse_args returns or
// throws util::UsageError (CLI exit 2), and nothing else. Every run uses
// the same seeds, so a failure reproduces exactly.
#include "cli_flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/random.hpp"

namespace cadapt::cli {
namespace {

const std::vector<std::string> kHostileValues = {
    "18446744073709551616", "-1", "", "--", "-", "0", "nan", "1e999", "|"};

std::string join(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& word : words) out += "'" + word + "' ";
  return out;
}

/// The words naming `command` ("report merge" is two).
std::vector<std::string> command_words(const Command& command) {
  std::vector<std::string> words;
  std::istringstream name(command.name);
  for (std::string word; name >> word;) words.push_back(word);
  return words;
}

std::string valid_value(const util::FlagSpec& flag) {
  switch (flag.kind) {
    case util::FlagKind::kU64:
      return std::to_string(flag.min + 1);
    case util::FlagKind::kDouble:
      return "0.5";
    case util::FlagKind::kChoice:
      return flag.meta.substr(0, flag.meta.find('|'));
    default:
      return "token";
  }
}

/// The tail of a valid argv: the minimum positionals, then every
/// non-retired row (bool rows bare, the rest with a valid value).
std::vector<std::string> valid_tail(const Command& command) {
  std::vector<std::string> tail;
  for (std::size_t i = 0; i < command.min_args; ++i) {
    tail.push_back("arg" + std::to_string(i));
  }
  for (const util::FlagSpec& flag : command.flags) {
    if (flag.kind == util::FlagKind::kRetired) continue;
    tail.push_back("--" + flag.name);
    if (flag.kind != util::FlagKind::kBool) tail.push_back(valid_value(flag));
  }
  return tail;
}

/// parse_args on the command words + `tail`. Returns true when it parsed,
/// false on a UsageError; any other exception fails the test.
bool parses(const Command& command, const std::vector<std::string>& tail) {
  std::vector<std::string> words = command_words(command);
  words.insert(words.end(), tail.begin(), tail.end());
  try {
    (void)parse_args(command, words);
    return true;
  } catch (const util::UsageError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << command.name << " " << join(tail) << "threw a non-usage "
                  << "error: " << e.what();
  } catch (...) {
    ADD_FAILURE() << command.name << " " << join(tail)
                  << "threw a non-std exception";
  }
  return false;
}

/// One edit of `name`: drop, double, replace or transpose a character.
std::string misspell(const std::string& name, util::Rng& rng) {
  std::string out = name;
  const std::size_t at = rng.below(out.size());
  switch (rng.below(4)) {
    case 0:
      out.erase(at, 1);
      break;
    case 1:
      out.insert(at, 1, out[at]);
      break;
    case 2:
      out[at] = out[at] == 'x' ? 'y' : 'x';
      break;
    default:
      if (out.size() > 1) {
        const std::size_t next = at + 1 < out.size() ? at + 1 : at - 1;
        std::swap(out[at], out[next]);
      }
      if (out == name) out += 's';
      break;
  }
  return out;
}

TEST(CliFuzz, ValidArgvOfEveryCommandParses) {
  for (const Command& command : commands()) {
    EXPECT_TRUE(parses(command, valid_tail(command))) << command.name;
  }
}

TEST(CliFuzz, MisspelledNamesAreUsageErrors) {
  util::Rng rng(0xA59F);
  for (const Command& command : commands()) {
    std::set<std::string> names;
    for (const util::FlagSpec& flag : command.flags) names.insert(flag.name);
    const std::vector<std::string> base = valid_tail(command);
    for (const util::FlagSpec& flag : command.flags) {
      for (int round = 0; round < 8; ++round) {
        const std::string wrong = misspell(flag.name, rng);
        std::vector<std::string> tail = base;
        tail.insert(tail.end(), {"--" + wrong, valid_value(flag)});
        const bool ok = parses(command, tail);
        // A misspelling can land on another row's name (or on nothing,
        // "--"): only an undeclared name is sure to be refused.
        if (!wrong.empty() && names.count(wrong) == 0) {
          EXPECT_FALSE(ok) << command.name << " --" << wrong;
        }
      }
    }
  }
}

TEST(CliFuzz, RepeatedFlagsParse) {
  for (const Command& command : commands()) {
    const std::vector<std::string> base = valid_tail(command);
    std::vector<std::string> twice = base;
    for (std::size_t i = command.min_args; i < base.size(); ++i) {
      twice.push_back(base[i]);
    }
    EXPECT_TRUE(parses(command, twice)) << command.name;
  }
}

TEST(CliFuzz, HostileValuesAreRefusedOrParse) {
  for (const Command& command : commands()) {
    const std::vector<std::string> base = valid_tail(command);
    for (const std::string& hostile : kHostileValues) {
      // As a positional, alone and after the valid argv.
      (void)parses(command, {hostile});
      std::vector<std::string> tail = base;
      tail.push_back(hostile);
      (void)parses(command, tail);
      for (const util::FlagSpec& flag : command.flags) {
        tail = base;
        tail.insert(tail.end(), {"--" + flag.name, hostile});
        const bool ok = parses(command, tail);
        if (flag.kind == util::FlagKind::kU64 && hostile != "0") {
          EXPECT_FALSE(ok) << command.name << " --" << flag.name << " '"
                           << hostile << "'";
        }
      }
    }
    // A bare "--" names no flag.
    std::vector<std::string> tail = base;
    tail.push_back("--");
    EXPECT_FALSE(parses(command, tail)) << command.name;
  }
}

TEST(CliFuzz, PermutedDroppedAndSplicedArgvKeepTheContract) {
  util::Rng rng(20261017);
  for (const Command& command : commands()) {
    const std::vector<std::string> base = valid_tail(command);
    for (int round = 0; round < 200; ++round) {
      std::vector<std::string> tail = base;
      for (std::size_t i = tail.size(); i > 1; --i) {
        std::swap(tail[i - 1], tail[rng.below(i)]);
      }
      const std::uint64_t drops = tail.empty() ? 0 : rng.below(tail.size());
      for (std::uint64_t d = 0; d < drops && !tail.empty(); ++d) {
        tail.erase(tail.begin() +
                   static_cast<std::ptrdiff_t>(rng.below(tail.size())));
      }
      if (rng.below(2) == 0) {
        const std::string& hostile =
            kHostileValues[rng.below(kHostileValues.size())];
        tail.insert(tail.begin() +
                        static_cast<std::ptrdiff_t>(rng.below(tail.size() + 1)),
                    hostile);
      }
      (void)parses(command, tail);
    }
  }
}

}  // namespace
}  // namespace cadapt::cli
