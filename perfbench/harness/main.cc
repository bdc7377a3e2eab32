// perfbench_harness: the in-process half of the benchmark (run.py drives it).
//
// Usage:
//   perfbench_harness idle_bus|managerd|eval_layers --seed=N --seconds=S
//                     --tmp=DIR [--trace] [--expect-digest=HEX]
//   perfbench_harness selftest
//
// Prints progress lines, then one "RESULT {json}" line with attempted,
// failed, metrics and errors. A traced run of any workload reports every
// per-layer metric: the layers the workload runs are measured on it, the
// others by the probes named in perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "daemon.h"
#include "sim_layers.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s idle_bus|managerd|eval_layers|selftest "
                         "[--seed=N] [--seconds=S] [--tmp=DIR] [--trace] "
                         "[--expect-digest=HEX]\n", argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--tmp") {
      opt.tmp_dir = value;
    } else if (flag == "--expect-digest") {
      opt.expect_digest = value;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.tmp_dir.empty()) opt.tmp_dir = ".bench_build/harness-tmp";

  Result res;
  if (cmd == "idle_bus") {
    res = run_idle_bus(opt);
    if (opt.trace) add_daemon_probe_layers(opt, res);
  } else if (cmd == "managerd") {
    res = run_managerd(opt);
  } else if (cmd == "eval_layers") {
    res = run_eval_layers(opt);
    add_daemon_probe_layers(opt, res);
  } else if (cmd == "selftest") {
    decorator_selftest(res);
    res.print();
    return res.failed == 0 ? 0 : 1;
  } else {
    std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
    return 2;
  }
  res.print();
  return 0;
}
