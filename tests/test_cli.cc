// Tests for the flag table (experiments/cli.h) and for its contract at every
// binary that takes flags.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "experiments/cli.h"

#ifndef BBSCHED_BINARY_DIR
#define BBSCHED_BINARY_DIR "."
#endif

namespace bbsched::experiments {
namespace {

CliOptions parse(std::vector<const char*> args, std::vector<Flag> own = {}) {
  args.insert(args.begin(), "prog");
  return parse_cli(static_cast<int>(args.size()),
                   const_cast<char**>(args.data()), std::move(own));
}

/// Parses `args` against `flags` alone.
std::vector<std::string_view> parse_table(std::vector<const char*> args,
                                          const std::vector<Flag>& flags,
                                          std::string_view operands = {}) {
  args.insert(args.begin(), "prog");
  return parse_flags(static_cast<int>(args.size()),
                     const_cast<char**>(args.data()), flags, operands);
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

TEST(Cli, UnknownFlagExitsTwo) {
  EXPECT_EXIT(parse({"--no-such-flag"}), ::testing::ExitedWithCode(2),
              "unknown flag '--no-such-flag'");
  EXPECT_EXIT(parse({"--app=CG", "--benchmark_filter=x"}),
              ::testing::ExitedWithCode(2), "unknown flag '--benchmark_filter'");
  EXPECT_EXIT(parse({"stray"}), ::testing::ExitedWithCode(2),
              "unexpected argument 'stray'");
  EXPECT_EXIT(parse({"--fast=1"}), ::testing::ExitedWithCode(2),
              "--fast takes no value");
  EXPECT_EXIT(parse({"--seed"}), ::testing::ExitedWithCode(2),
              "--seed needs a value");
}

TEST(Cli, OperandsOnlyWhereNamed) {
  bool demo = false;
  const std::vector<Flag> flags = {{"--demo", "", "", set_true(demo)}};
  const auto operands = parse_table({"a.jsonl", "--demo", "b"}, flags, "FILE");
  ASSERT_EQ(operands.size(), 2u);
  EXPECT_EQ(operands[0], "a.jsonl");
  EXPECT_EQ(operands[1], "b");
  EXPECT_TRUE(demo);
  EXPECT_EXIT(parse_table({"a.jsonl"}, flags), ::testing::ExitedWithCode(2),
              "unexpected argument 'a.jsonl'");
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

TEST(CliDeathTest, AppMustBeAPaperApplication) {
  EXPECT_EQ(parse({"--app=LU-CB"}).app, "LU-CB");
  EXPECT_EXIT(parse({"--app=Nope"}), ::testing::ExitedWithCode(2),
              "invalid value 'Nope' for --app");
  EXPECT_EXIT(parse({"--app=BBMA"}), ::testing::ExitedWithCode(2),
              "for --app");
  EXPECT_EXIT(parse({"--app="}), ::testing::ExitedWithCode(2), "for --app");
}

TEST(Cli, FlagReadsOnlyItsOwnName) {
  int seeds = 5;
  int workers = 4;
  const std::vector<Flag> own = {{"--seeds", "N", "", number(seeds, 1)},
                                 {"--workers", "N", "", number(workers, 0)}};
  EXPECT_EQ(parse({"--seed=3"}, own).seed, 3u);
  EXPECT_EQ(seeds, 5);
  EXPECT_EXIT(parse({"--seedsx=3"}, own), ::testing::ExitedWithCode(2),
              "unknown flag '--seedsx'");
  (void)parse({"--seeds=1"}, own);
  EXPECT_EQ(seeds, 1);
  (void)parse({"--workers=0"}, own);
  EXPECT_EQ(workers, 0);
}

TEST(CliDeathTest, FlagRejectsMalformedAndOutOfRangeValues) {
  int seeds = 5;
  std::uint64_t ticks = 1;
  int workers = 0;
  const std::vector<Flag> flags = {{"--seeds", "N", "", number(seeds, 1)},
                                   {"--ticks", "N", "", number(ticks, 1)},
                                   {"--workers", "N", "", number(workers, 0)}};
  for (const char* arg :
       {"--seeds=0", "--seeds=abc", "--seeds=3x", "--seeds=-1", "--seeds="}) {
    EXPECT_EXIT(parse_table({arg}, flags), ::testing::ExitedWithCode(2),
                "for --seeds")
        << arg;
  }
  EXPECT_EXIT(parse_table({"--ticks=abc"}, flags),
              ::testing::ExitedWithCode(2), "invalid value 'abc' for --ticks");
  EXPECT_EXIT(parse_table({"--ticks=0"}, flags), ::testing::ExitedWithCode(2),
              "for --ticks");
  EXPECT_EXIT(parse_table({"--workers=-1"}, flags),
              ::testing::ExitedWithCode(2), "for --workers");
}

TEST(CliDeathTest, HelpExitsZero) {
  EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parse({"--app=SP", "-h"}), ::testing::ExitedWithCode(0), "");
}

/// Runs `command` through the shell under a 20 s timeout; returns its exit
/// code and fills `out` with its stdout and stderr.
int run(const std::string& command, std::string& out) {
  FILE* pipe = ::popen(("timeout 20 " + command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, got);
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string binary(const std::string& name) {
  return std::string(BBSCHED_BINARY_DIR) + "/" + name;
}

// Every binary that takes flags (google-benchmark owns micro_benchmarks'
// flags): --help exits 0 having printed only the usage line and the
// binary's exact flag table, and an unknown flag exits 2.
TEST(Cli, EveryBinaryHelpAndUnknownFlag) {
  const std::vector<std::string> shared = {
      "--fast",   "--scale=X", "--csv",           "--app=NAME",
      "--seed=N", "--jobs=N",  "--trace-out=FILE", "--metrics-out=FILE"};
  struct Binary {
    const char* path;
    bool shares_bench_flags;
    std::vector<std::string> own;
  };
  const std::vector<Binary> binaries = {
      {"bench/ablation_counter_semantics", true, {}},
      {"bench/ablation_fitness", true, {}},
      {"bench/ablation_overhead", true, {}},
      {"bench/ablation_quantum", true, {}},
      {"bench/ablation_window", true, {}},
      {"bench/ext_adversarial", false,
       {"--fast", "--strict", "--csv", "--seed=N"}},
      {"bench/ext_faults", true, {"--json-out=FILE"}},
      {"bench/ext_io_workloads", true, {}},
      {"bench/ext_open_system", true, {}},
      {"bench/ext_predictive", true, {}},
      {"bench/ext_qos", true, {}},
      {"bench/ext_recovery", false,
       {"--fast", "--strict", "--seed=N", "--json-out=FILE",
        "--trace-out=FILE"}},
      {"bench/ext_scalability", true, {}},
      {"bench/ext_smt", true, {}},
      {"bench/ext_spacesharing", true, {}},
      {"bench/ext_syschaos", false,
       {"--fast", "--csv", "--seed=N", "--schedules=N"}},
      {"bench/fig1a_bus_transactions", true, {}},
      {"bench/fig1b_slowdown", true, {}},
      {"bench/fig2", true, {}},
      {"bench/fig2_sweep", true, {"--seeds=N"}},
      {"tools/bbsched_kernel", false,
       {"--kind=KIND", "--socket=PATH", "--name=NAME", "--tps=X",
        "--seconds=S", "--threads=N"}},
      {"tools/bbsched_lint", false,
       {"--root=DIR", "--format=FORMAT", "--json", "--show-suppressed",
        "--list-rules"}},
      {"tools/bbsched_managerd", false,
       {"--socket=PATH", "--quantum-ms=N", "--policy=NAME", "--window=N",
        "--procs=N", "--bus-tps=X", "--run-seconds=S",
        "--status-interval=S"}},
      {"tools/opt_solve", true, {"--procs=N"}},
      {"tools/perf_compare", false, {}},
      {"tools/proto_fuzz", false,
       {"--frames=N", "--seconds=N", "--seed=N", "--verbose"}},
      {"examples/trace_inspect", false, {"--demo", "--quantum=N", "--limit=N"}},
  };
  for (const Binary& b : binaries) {
    const std::string bin = binary(b.path);
    struct stat st{};
    if (::stat(bin.c_str(), &st) != 0) {
      ADD_FAILURE() << b.path << " not built";
      continue;
    }
    std::vector<std::string> flags = b.own;
    if (b.shares_bench_flags) {
      flags.insert(flags.begin(), shared.begin(), shared.end());
    }

    std::string help;
    EXPECT_EQ(run(bin + " --help", help), 0) << b.path << ": " << help;
    EXPECT_EQ(help.rfind("Usage: ", 0), 0u) << b.path << " ran: " << help;
    EXPECT_TRUE(help.ends_with("exits 2.\n")) << b.path << " ran: " << help;
    std::size_t listed = 0;
    for (std::size_t at = help.find("\n  --"); at != std::string::npos;
         at = help.find("\n  --", at + 1)) {
      ++listed;
    }
    EXPECT_EQ(listed, flags.size() + 1) << b.path << ": " << help;
    for (const std::string& flag : flags) {
      EXPECT_NE(help.find("  " + flag + " "), std::string::npos)
          << b.path << " --help omits " << flag << ": " << help;
    }

    std::string unknown;
    EXPECT_EQ(run(bin + " --no-such-flag", unknown), 2)
        << b.path << ": " << unknown;
    EXPECT_NE(unknown.find("--no-such-flag"), std::string::npos)
        << b.path << ": " << unknown;
  }
}

// A malformed or out-of-range value exits 2 before any work starts, with a
// line naming the flag (or, for the examples' positional arguments, the
// argument).
TEST(Cli, BinariesRejectBadValuesNamingTheFlag) {
  const struct {
    const char* command;
    const char* named;
  } cases[] = {
      {"bench/fig2_sweep --scale=abc", "--scale"},
      {"bench/fig2_sweep --jobs=4x", "--jobs"},
      {"bench/fig2_sweep --seeds=0", "--seeds"},
      {"bench/fig2_sweep --seeds=abc", "--seeds"},
      {"bench/fig2_sweep --seeds=3x", "--seeds"},
      {"bench/fig2_sweep --seeds=-1", "--seeds"},
      {"bench/fig1a_bus_transactions --app=Nope", "--app"},
      {"bench/fig2 --app=Nope", "--app"},
      {"bench/fig2_sweep --app=Nope", "--app"},
      {"bench/ext_predictive --app=Nope", "--app"},
      {"bench/ext_recovery --seed=abc", "--seed"},
      {"bench/ext_adversarial --seed=abc", "--seed"},
      {"bench/ext_syschaos --schedules=abc", "--schedules"},
      {"tools/opt_solve --procs=abc", "--procs"},
      {"tools/proto_fuzz --frames=abc", "--frames"},
      {"tools/proto_fuzz --seed=1x", "--seed"},
      {"examples/trace_inspect --demo --quantum=x", "--quantum"},
      {"examples/schedule_gantt SP abc", "SECONDS"},
      {"examples/policy_playground latest abc", "QUANTA"},
      {"examples/native_manager abc", "SECONDS"},
      {"examples/workload_explorer SPx99999999999", "NAMExN"},
  };
  for (const auto& c : cases) {
    std::string out;
    EXPECT_EQ(run(binary(c.command), out), 2) << c.command << ": " << out;
    EXPECT_NE(out.find(std::string("invalid value")), std::string::npos)
        << c.command << ": " << out;
    EXPECT_NE(out.find(c.named), std::string::npos) << c.command << ": " << out;
  }
}

// Started without --policy, managerd elects with the policy that its --help
// names as the default.
TEST(Cli, ManagerdStartsWithTheDefaultPolicyItsHelpNames) {
  const std::string bin = binary("tools/bbsched_managerd");
  std::string help;
  ASSERT_EQ(run(bin + " --help", help), 0) << help;
  const std::string marker = "(default ";
  const std::size_t from = help.find(marker, help.find("--policy"));
  ASSERT_NE(from, std::string::npos) << help;
  const std::size_t start = from + marker.size();
  const std::string named = help.substr(start, help.find(')', start) - start);
  // --policy's names, and the names the listening line prints for them.
  const std::map<std::string, std::string> printed = {
      {"latest", "latest-quantum"},
      {"window", "quanta-window"},
      {"predictive", "predictive"}};
  ASSERT_TRUE(printed.contains(named)) << help;

  const std::string socket =
      "/tmp/bbsched-cli-managerd-" + std::to_string(::getpid()) + ".sock";
  std::string out;
  EXPECT_EQ(run(bin + " --socket=" + socket +
                    " --run-seconds=0.05 --status-interval=0",
                out),
            0)
      << out;
  EXPECT_NE(out.find("listening on " + socket + " (" + printed.at(named) +
                     ", "),
            std::string::npos)
      << "--help names " << named << "; managerd printed: " << out;
}

// perf_compare reads the files `perfbench/compare.py --perf-compare-out`
// writes: it prints each shared metric's old and new value per workload,
// and exits 2 naming a file it cannot parse.
TEST(Cli, PerfCompareReadsCompareOutput) {
  const std::string base =
      "/tmp/bbsched-perfcmp-" + std::to_string(::getpid());
  const std::string parent = base + ".b.json";
  const std::string change = base + ".a.json";
  const std::string bad = base + ".bad.json";
  std::ofstream(parent) << R"({"eval_serial": {"wall_s": 6.5, )"
                           R"("setup_s": 0.002}, "managerd": {"wall_s": 5}})";
  std::ofstream(change) << R"({"eval_serial": {"wall_s": 6.25, )"
                           R"("setup_s": 0.0021}, "managerd": {"wall_s": 5}})";
  std::ofstream(bad) << R"({"eval_serial": {"wall_s": 6.5,)";
  const std::string tool = binary("tools/perf_compare");

  std::string out;
  EXPECT_EQ(run(tool + " " + parent + " " + change, out), 0) << out;
  for (const char* want :
       {"eval_serial\n", "managerd\n", "wall_s", "6.5 ->", "6.25",
        "-3.8%", "setup_s", "0.002 ->", "0.0021", "+5.0%", "+0.0%"}) {
    EXPECT_NE(out.find(want), std::string::npos) << want << " in: " << out;
  }

  std::string rejected;
  EXPECT_EQ(run(tool + " " + parent + " " + bad, rejected), 2) << rejected;
  EXPECT_NE(rejected.find(bad), std::string::npos) << rejected;
  for (const std::string& file : {parent, change, bad}) {
    std::remove(file.c_str());
  }
}

}  // namespace
}  // namespace bbsched::experiments
