// Unit tests for the CLI argument parser (tools/cli_args.h).
#include "tools/cli_args.h"

#include <vector>

#include <gtest/gtest.h>

namespace mclat::tools {
namespace {

// Builds a mutable argv from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs_.size()); }
  [[nodiscard]] char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(CliArgs, ParsesNumbersAndDefaults) {
  Argv a({"prog", "cmd", "--kps", "55.5", "--servers", "6", "--seconds",
          "2.5e-1"});
  CliArgs args(a.argc(), a.argv(), 2);
  EXPECT_DOUBLE_EQ(args.number("kps", 62.5, "rate"), 55.5);
  EXPECT_DOUBLE_EQ(args.number("servers", 4, "count"), 6.0);
  EXPECT_DOUBLE_EQ(args.number("seconds", 1.0, "horizon"), 0.25);
  EXPECT_DOUBLE_EQ(args.number("absent", 1.25, "missing"), 1.25);
}

TEST(CliArgs, ParsesTextAndFlags) {
  Argv a({"prog", "cmd", "--mode", "fast", "--verbose"});
  CliArgs args(a.argc(), a.argv(), 2);
  EXPECT_EQ(args.text("mode", "slow", "mode"), "fast");
  EXPECT_EQ(args.text("other", "dflt", "other"), "dflt");
  EXPECT_TRUE(args.flag("verbose", "chatty"));
  EXPECT_FALSE(args.flag("quiet", "quiet"));
}

TEST(CliArgs, BareFlagBeforeAnotherFlag) {
  Argv a({"prog", "cmd", "--json", "--kps", "10"});
  CliArgs args(a.argc(), a.argv(), 2);
  EXPECT_TRUE(args.flag("json", "json output"));
  EXPECT_DOUBLE_EQ(args.number("kps", 0.0, "rate"), 10.0);
}

TEST(CliArgs, FlagValueZeroMeansOff) {
  Argv a({"prog", "cmd", "--json", "0"});
  CliArgs args(a.argc(), a.argv(), 2);
  EXPECT_FALSE(args.flag("json", "json output"));
}

TEST(CliArgs, NegativeNumbersParse) {
  // "--x -3" would look like a flag; the parser requires "--x" then a
  // non-flag token, and "-3" does not start with "--", so it works.
  Argv a({"prog", "cmd", "--x", "-3.5"});
  CliArgs args(a.argc(), a.argv(), 2);
  EXPECT_DOUBLE_EQ(args.number("x", 0.0, "x"), -3.5);
}

TEST(CliArgs, CountParsesAndDefaults) {
  Argv a({"prog", "cmd", "--jobs", "8", "--reps", "3"});
  CliArgs args(a.argc(), a.argv(), 2);
  EXPECT_EQ(args.count("jobs", 1, "workers"), 8u);
  EXPECT_EQ(args.count("reps", 1, "replications"), 3u);
  EXPECT_EQ(args.count("absent", 4, "missing"), 4u);
}

TEST(CliArgsDeath, CountRejectsZero) {
  EXPECT_EXIT(
      {
        Argv a({"prog", "cmd", "--jobs", "0"});
        CliArgs args(a.argc(), a.argv(), 2);
        (void)args.count("jobs", 1, "workers");
      },
      ::testing::ExitedWithCode(2), "positive integer");
}

TEST(CliArgsDeath, CountRejectsNegative) {
  EXPECT_EXIT(
      {
        Argv a({"prog", "cmd", "--reps", "-2"});
        CliArgs args(a.argc(), a.argv(), 2);
        (void)args.count("reps", 1, "replications");
      },
      ::testing::ExitedWithCode(2), "positive integer");
}

TEST(CliArgsDeath, CountRejectsGarbage) {
  EXPECT_EXIT(
      {
        Argv a({"prog", "cmd", "--jobs", "many"});
        CliArgs args(a.argc(), a.argv(), 2);
        (void)args.count("jobs", 1, "workers");
      },
      ::testing::ExitedWithCode(2), "positive integer");
}

TEST(CliArgsDeath, CountRejectsFractional) {
  EXPECT_EXIT(
      {
        Argv a({"prog", "cmd", "--jobs", "2.5"});
        CliArgs args(a.argc(), a.argv(), 2);
        (void)args.count("jobs", 1, "workers");
      },
      ::testing::ExitedWithCode(2), "positive integer");
}

// A value must be entirely one finite number: no garbage, no unit
// suffix, no infinity.
TEST(CliArgsDeath, NumberRejectsMalformedValues) {
  for (const char* value : {"abc", "62.5k", "inf"}) {
    EXPECT_EXIT(
        {
          Argv a({"prog", "cmd", "--kps", value});
          CliArgs args(a.argc(), a.argv(), 2);
          (void)args.number("kps", 62.5, "rate");
        },
        ::testing::ExitedWithCode(2), "--kps must be a finite number")
        << value;
  }
}

TEST(CliArgsDeath, RejectsPositionalArguments) {
  EXPECT_EXIT(
      {
        Argv a({"prog", "cmd", "oops"});
        CliArgs args(a.argc(), a.argv(), 2);
      },
      ::testing::ExitedWithCode(2), "unexpected positional");
}

TEST(CliArgsDeath, RejectsUnknownFlagsAtFinish) {
  EXPECT_EXIT(
      {
        Argv a({"prog", "cmd", "--typo", "1"});
        CliArgs args(a.argc(), a.argv(), 2);
        (void)args.number("kps", 1.0, "rate");
        args.finish("usage");
      },
      ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(CliArgsDeath, HelpPrintsAndExitsZero) {
  EXPECT_EXIT(
      {
        Argv a({"prog", "cmd", "--help"});
        CliArgs args(a.argc(), a.argv(), 2);
        (void)args.number("kps", 1.0, "per-server rate");
        args.finish("usage line");
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace mclat::tools
