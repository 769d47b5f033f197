#include "util/args.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace cadapt::util {
namespace {

const std::vector<FlagSpec>& table() {
  using enum FlagKind;
  static const std::vector<FlagSpec> flags = {
      {"a", kU64, "a", "N", "8"},
      {"b", kU64, "b", "N", "4"},
      {"c", kDouble, "c", "X", "1.0"},
      {"t", kDouble, "t", "X"},
      {"kmax", kU64, "kmax", "K", "6"},
      {"n", kU64, "n", "N"},
      {"dist", kString, "dist", "D", "geometric"},
      {"mode", kChoice, "mode", "fast|slow", "fast"},
      {"epoch", kU64, "epoch", "E", "64", 1},
      {"unit-progress", kBool, "unit progress"},
      {"csv", kBool, "csv"},
      {"matched", kBool, "matched"},
      {"typo", kU64, "typo", "N", "0"},
      {"old", kRetired, "use --dist"},
  };
  return flags;
}

TEST(ArgParser, PositionalsAndFlags) {
  ArgParser args({"gap", "--a", "8", "--b", "4", "--unit-progress"}, table());
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "gap");
  EXPECT_EQ(args.get_u64("a"), 8u);
  EXPECT_EQ(args.get_u64("b"), 4u);
  EXPECT_TRUE(args.has("unit-progress"));
  EXPECT_FALSE(args.has("csv"));
}

TEST(ArgParser, Defaults) {
  ArgParser args({"gap"}, table());
  EXPECT_EQ(args.get_u64("kmax"), 6u);
  EXPECT_DOUBLE_EQ(args.get_double("c"), 1.0);
  EXPECT_EQ(args.get_string("dist"), "geometric");
  EXPECT_EQ(args.get_string("mode"), "fast");
  // An unset numeric row reads 0; has() tells it from an explicit value.
  EXPECT_EQ(args.get_u64("n"), 0u);
  EXPECT_FALSE(args.has("n"));
  // Reading a flag the table does not declare is an internal error.
  EXPECT_THROW(args.get_u64("undeclared"), CheckError);
  EXPECT_THROW(args.get_string("kmax"), CheckError);
}

TEST(ArgParser, DoubleValues) {
  ArgParser args({"x", "--c", "0.5", "--t", "2.25"}, table());
  EXPECT_DOUBLE_EQ(args.get_double("c"), 0.5);
  EXPECT_DOUBLE_EQ(args.get_double("t"), 2.25);
}

TEST(ArgParser, BooleanFlagBeforeAnotherFlag) {
  ArgParser args({"--csv", "--kmax", "5"}, table());
  EXPECT_TRUE(args.has("csv"));
  EXPECT_EQ(args.get_u64("kmax"), 5u);
  // A bool row never takes a value: the next word stays a positional.
  ArgParser before({"--csv", "m.manifest"}, table());
  EXPECT_TRUE(before.has("csv"));
  ASSERT_EQ(before.positionals().size(), 1u);
  EXPECT_EQ(before.positionals()[0], "m.manifest");
}

TEST(ArgParser, TrailingBooleanFlag) {
  ArgParser args({"cmd", "--matched"}, table());
  EXPECT_TRUE(args.has("matched"));
  // A value-taking flag at the end has no value: a usage error.
  EXPECT_THROW(ArgParser({"cmd", "--kmax"}, table()), UsageError);
}

TEST(ArgParser, BadNumbersThrow) {
  EXPECT_THROW(ArgParser({"--a", "abc"}, table()), UsageError);
  EXPECT_THROW(ArgParser({"--c", "1.x"}, table()), UsageError);
  EXPECT_THROW(ArgParser({"--a", "-1"}, table()), UsageError);
  EXPECT_THROW(ArgParser({"--mode", "medium"}, table()), UsageError);
  EXPECT_THROW(ArgParser({"--mode", "fast|slow"}, table()), UsageError);
  EXPECT_THROW(ArgParser({"--epoch", "0"}, table()), UsageError);
  EXPECT_EQ(ArgParser({"--epoch", "1"}, table()).get_u64("epoch"), 1u);
}

TEST(ArgParser, UnknownFlagsAreReported) {
  // Undeclared and retired flags are usage errors at parse time ...
  EXPECT_THROW(ArgParser({"gap", "--a", "8", "--tpyo", "3"}, table()),
               UsageError);
  try {
    ArgParser({"--old", "x"}, table());
    FAIL() << "retired flag accepted";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("use --dist"), std::string::npos);
  }
  // ... and a declared flag the code never read is reported as unused.
  ArgParser args({"gap", "--a", "8", "--typo", "3"}, table());
  (void)args.get_u64("a");
  const auto unused = args.unused_flags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(ArgParser, QueriedFlagsAreNotUnknown) {
  ArgParser args({"--a", "8"}, table());
  (void)args.get_u64("a");
  EXPECT_TRUE(args.unused_flags().empty());
}

TEST(ArgParser, MultiplePositionals) {
  ArgParser args({"render", "out.txt", "--n", "64"}, table());
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[1], "out.txt");
}

}  // namespace
}  // namespace cadapt::util
