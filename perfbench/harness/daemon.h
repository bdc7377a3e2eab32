// Native-manager side of the benchmark: the managerd workload (a live
// runtime::ManagerServer in a forked child, driven by in-process
// runtime::Client applications) and the daemon layer probes.
#pragma once

#include "sim_layers.h"

namespace perfbench {

/// managerd: untraced, end-to-end metrics over several fixed wall-clock
/// windows, each against a freshly forked manager. Traced: daemon layers
/// (plus the simulator probe, since managerd never runs the simulator).
Result run_managerd(const Options& opt);

/// Daemon layer probes for workloads that do not run the daemon: the
/// CpuManager/JournalWriter replay, signal latency, and one traced window.
void add_daemon_probe_layers(const Options& opt, Result& res);

}  // namespace perfbench
