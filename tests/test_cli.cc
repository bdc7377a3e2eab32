// Tests for the bench CLI parsing.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>
#include <sys/stat.h>
#include <sys/wait.h>

#include "experiments/cli.h"

#ifndef BBSCHED_BINARY_DIR
#define BBSCHED_BINARY_DIR "."
#endif

namespace bbsched::experiments {
namespace {

CliOptions parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return parse_cli(static_cast<int>(args.size()),
                   const_cast<char**>(args.data()));
}

TEST(Cli, Defaults) {
  const auto opt = parse({});
  EXPECT_DOUBLE_EQ(opt.time_scale, 1.0);
  EXPECT_FALSE(opt.csv);
  EXPECT_TRUE(opt.app.empty());
  EXPECT_EQ(opt.seed, 42u);
}

TEST(Cli, FastSetsScale) {
  const auto opt = parse({"--fast"});
  EXPECT_DOUBLE_EQ(opt.time_scale, 0.2);
}

TEST(Cli, ExplicitScaleWins) {
  const auto opt = parse({"--fast", "--scale=0.5"});
  EXPECT_DOUBLE_EQ(opt.time_scale, 0.5);
}

TEST(Cli, CsvAppSeed) {
  const auto opt = parse({"--csv", "--app=Raytrace", "--seed=99"});
  EXPECT_TRUE(opt.csv);
  EXPECT_EQ(opt.app, "Raytrace");
  EXPECT_EQ(opt.seed, 99u);
}

TEST(Cli, NumericFlags) {
  const auto opt = parse({"--scale=1e-2", "--jobs=4",
                          "--seed=18446744073709551615"});
  EXPECT_DOUBLE_EQ(opt.time_scale, 0.01);
  EXPECT_EQ(opt.jobs, 4);
  EXPECT_EQ(opt.seed, 18446744073709551615u);
}

TEST(Cli, UnknownFlagsIgnored) {
  const auto opt = parse({"--benchmark_filter=x", "--seeds=3", "--app=CG"});
  EXPECT_EQ(opt.app, "CG");
  EXPECT_EQ(opt.seed, 42u);
}

TEST(CliDeathTest, MalformedValueExitsTwoNamingTheFlag) {
  EXPECT_EXIT(parse({"--scale=abc"}), ::testing::ExitedWithCode(2),
              "invalid value 'abc' for --scale");
  EXPECT_EXIT(parse({"--jobs=4x"}), ::testing::ExitedWithCode(2),
              "invalid value '4x' for --jobs");
  EXPECT_EXIT(parse({"--seed=-1"}), ::testing::ExitedWithCode(2),
              "for --seed");
  EXPECT_EXIT(parse({"--seed="}), ::testing::ExitedWithCode(2), "for --seed");
  EXPECT_EXIT(parse({"--scale=0"}), ::testing::ExitedWithCode(2),
              "for --scale");
  EXPECT_EXIT(parse({"--scale=nan"}), ::testing::ExitedWithCode(2),
              "for --scale");
}

TEST(CliDeathTest, HelpExitsZero) {
  EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parse({"--app=SP", "-h"}), ::testing::ExitedWithCode(0), "");
}

/// Runs `command` through the shell; returns its exit code and fills `out`
/// with its stdout and stderr.
int run(const std::string& command, std::string& out) {
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, got);
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// The same contract at a real bench binary: --help prints the flag list
// instead of running the sweep, and a malformed value is a usage error.
TEST(Cli, BenchBinaryHelpAndMalformedFlag) {
  const std::string bin = std::string(BBSCHED_BINARY_DIR) + "/bench/fig2_sweep";
  struct stat st{};
  if (::stat(bin.c_str(), &st) != 0) GTEST_SKIP() << "fig2_sweep not built";

  std::string help;
  EXPECT_EQ(run(bin + " --help", help), 0);
  EXPECT_NE(help.find("--scale=X"), std::string::npos) << help;
  EXPECT_EQ(help.find("Fig 2 sweep"), std::string::npos) << "the sweep ran";

  std::string bad;
  EXPECT_EQ(run(bin + " --scale=abc", bad), 2);
  EXPECT_NE(bad.find("--scale"), std::string::npos) << bad;
  std::string bad_jobs;
  EXPECT_EQ(run(bin + " --jobs=4x", bad_jobs), 2);
}

}  // namespace
}  // namespace bbsched::experiments
