// Simulator side of the benchmark: the idle_bus workload, the traced
// rebuild of the Fig-2 grids, BusModel::resolve timing and the decorator
// equivalence self-test.
#pragma once

#include <cstdint>
#include <string>

#include "util.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;          ///< scratch directory inside the checkout
  std::string expect_digest;    ///< empty = no golden digest for this seed
};

/// idle_bus: Fig. 2B (two app instances + four nBBMA) for every paper
/// application under Linux, Latest and Window, one run_workload call per
/// simulation. Untraced: end-to-end metrics. Traced: simulator layers.
Result run_idle_bus(const Options& opt);

/// Traced rebuild of eval_serial's Fig-2 grid (the runs fig2_sweep makes
/// with --jobs=1): simulator layers and experiments.sweep_ms.
Result run_eval_layers(const Options& opt);

/// Simulator layer probe for workloads that do not run the simulator
/// (managerd): the idle_bus grid at one seed.
void add_sim_probe_layers(const Options& opt, Result& res);

/// Decorated runs must equal run_workload's bit for bit (RunResult and
/// EngineStats) on a saturated and an idle-bus triple under Linux and
/// Latest. Records one attempt per comparison into `res`.
void decorator_selftest(Result& res);

}  // namespace perfbench
