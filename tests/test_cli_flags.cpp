// The cadapt command tables (tools/cli_flags.cpp): every row is
// documented, parses a valid value of its kind, and rejects a wrong one
// as a usage error (exit 2) before any work starts.
#include "cli_flags.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/check.hpp"

namespace cadapt::cli {
namespace {

// The words of `command` plus its required flags (with valid values),
// positionals up to its minimum, and `extra`.
std::vector<std::string> words_for(const Command& command,
                                   std::vector<std::string> extra) {
  std::vector<std::string> words;
  std::istringstream name(command.name);
  for (std::string word; name >> word;) words.push_back(word);
  for (std::size_t i = 0; i < command.min_args; ++i) {
    words.push_back("arg" + std::to_string(i));
  }
  for (const util::FlagSpec& flag : command.flags) {
    if (flag.required && extra.front() != "--" + flag.name) {
      words.insert(words.end(), {"--" + flag.name, "x"});
    }
  }
  words.insert(words.end(), extra.begin(), extra.end());
  return words;
}

std::string valid_value(const util::FlagSpec& flag) {
  switch (flag.kind) {
    case util::FlagKind::kU64:
      return std::to_string(flag.min + 1);
    case util::FlagKind::kDouble:
      return "0.5";
    case util::FlagKind::kChoice:
      return flag.meta.substr(flag.meta.rfind('|') + 1);
    default:
      return "token";
  }
}

TEST(CliFlags, HelpCoversEveryFlag) {
  for (const Command& command : commands()) {
    std::ostringstream help;
    print_help(help, command.name.substr(0, command.name.find(' ')));
    EXPECT_EQ(&find_command(words_for(command, {"--x"})), &command);
    for (const util::FlagSpec& flag : command.flags) {
      const std::string dashed = "--" + flag.name;
      SCOPED_TRACE(command.name + " " + dashed);
      // --crash-after is the one hidden row: a chaos-drill hook.
      EXPECT_EQ(flag.hidden, flag.name == "crash-after");
      if (!flag.hidden) {
        EXPECT_NE(help.str().find(dashed + (flag.meta.empty() ? "" : " ")),
                  std::string::npos);
      }
      if (flag.kind == util::FlagKind::kRetired) {
        EXPECT_THROW(parse_args(command, words_for(command, {dashed})),
                     util::UsageError);
        continue;
      }
      if (flag.kind == util::FlagKind::kBool) {
        const util::ArgParser args =
            parse_args(command, words_for(command, {dashed}));
        EXPECT_TRUE(args.has(flag.name));
        // A bool row never takes a value: the word becomes a positional.
        if (command.max_args == command.min_args) {
          EXPECT_THROW(
              parse_args(command, words_for(command, {dashed, "3"})),
              util::UsageError);
        }
        continue;
      }
      const util::ArgParser args = parse_args(
          command, words_for(command, {dashed, valid_value(flag)}));
      EXPECT_TRUE(args.has(flag.name));
      EXPECT_THROW(parse_args(command, words_for(command, {dashed})),
                   util::UsageError);
      if (flag.kind != util::FlagKind::kString) {
        EXPECT_THROW(parse_args(command, words_for(command, {dashed, "z"})),
                     util::UsageError);
      }
    }
    EXPECT_THROW(parse_args(command, words_for(command, {"--no-such-flag"})),
                 util::UsageError);
  }
}

TEST(CliFlags, UnknownCommandsAndArityAreUsageErrors) {
  EXPECT_THROW(find_command({"frobnicate"}), util::UsageError);
  EXPECT_THROW(find_command({"report"}), util::UsageError);
  EXPECT_THROW(find_command({"report", "frob"}), util::UsageError);
  EXPECT_THROW(find_command({"--a", "8", "render"}), util::UsageError);
  const Command& sweep = find_command({"sweep"});
  EXPECT_THROW(parse_args(sweep, {"sweep"}), util::UsageError);
  EXPECT_THROW(parse_args(find_command({"report", "info"}),
                          {"report", "info", "a", "b"}),
               util::UsageError);
  std::ostringstream help;
  EXPECT_THROW(print_help(help, "frobnicate"), util::UsageError);
}

}  // namespace
}  // namespace cadapt::cli
