// Experiment runner: executes one workload under one scheduler and collects
// the measurements the paper reports (turnaround times, cumulative bus
// transaction rates, machine statistics).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/managed_scheduler.h"
#include "linuxsched/linux_sched.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/engine.h"
#include "spacesched/equipartition.h"
#include "workload/workload.h"

namespace bbsched::experiments {

enum class SchedulerKind {
  kPinned,                ///< static placement (Fig. 1 calibration sets)
  kLinux,                 ///< Linux 2.4 baseline
  kLatestQuantum,         ///< CPU manager, Eq. 1 policy
  kQuantaWindow,          ///< CPU manager, Eq. 2 policy
  kPredictiveThroughput,  ///< model-driven (§6 future work), max throughput
  kPredictiveFair,        ///< model-driven, max worst-thread speed
  kEquipartition,         ///< §2 related work: dynamic space sharing
  kCreditReservation,     ///< credit/reservation QoS tier (docs/POLICIES.md)
  kManagedCustom,         ///< CPU manager with cfg.managed used verbatim
};

[[nodiscard]] const char* to_string(SchedulerKind kind);

struct ExperimentConfig {
  sim::MachineConfig machine{};
  sim::EngineConfig engine{};
  linuxsched::LinuxSchedConfig linux_sched{};
  core::ManagedSchedulerConfig managed{};

  /// Scales every finite job's work (uniprogrammed duration) — quick modes
  /// for tests (< 1.0) without touching rates or policy dynamics.
  double time_scale = 1.0;

  /// Optional observability sinks (non-owning; keep alive across the run).
  /// When set, the engine and — for managed schedulers — the CPU manager
  /// record structured events / metrics into them. Null = zero overhead.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Everything measured in one run.
struct RunResult {
  std::string scheduler;
  sim::SimTime end_time_us = 0;

  /// Turnaround per job (µs); 0 for jobs that never finished (infinite
  /// microbenchmarks).
  std::vector<double> turnaround_us;

  /// Mean turnaround over the workload's measured jobs (µs).
  double measured_mean_turnaround_us = 0.0;

  /// Cumulative machine transaction rate over the run (transactions/µs).
  double machine_rate_tps = 0.0;

  /// Per-job cumulative transactions issued during the run.
  std::vector<double> job_transactions;

  sim::EngineStats engine_stats;

  /// Gang elections performed (managed schedulers only).
  std::uint64_t elections = 0;

  /// Total thread migrations across the run.
  std::uint64_t migrations = 0;
};

/// Builds the scheduler for `kind` from `cfg`.
[[nodiscard]] std::unique_ptr<sim::Scheduler> make_scheduler(
    SchedulerKind kind, const ExperimentConfig& cfg);

/// Builds an engine loaded with `workload` (jobs scaled by cfg.time_scale)
/// and with cfg.tracer / cfg.metrics attached. Callers that need the live
/// engine afterwards — e.g. to export its ScheduleTrace — use this plus
/// collect_result(); everyone else calls run_workload().
[[nodiscard]] std::unique_ptr<sim::Engine> make_engine(
    const workload::Workload& workload, SchedulerKind kind,
    const ExperimentConfig& cfg);

/// Harvests the measurements from an engine that already ran. Also records
/// run-level metrics (run.elections, run.migrations, ...) into cfg.metrics
/// when attached.
[[nodiscard]] RunResult collect_result(sim::Engine& engine,
                                       const workload::Workload& workload,
                                       SchedulerKind kind,
                                       const ExperimentConfig& cfg);

/// Runs `workload` to completion of all finite jobs (or engine max time).
/// Equivalent to make_engine() + engine.run() + collect_result().
[[nodiscard]] RunResult run_workload(const workload::Workload& workload,
                                     SchedulerKind kind,
                                     const ExperimentConfig& cfg);

/// Improvement of a policy's turnaround over the baseline's, in percent of
/// the baseline (both in one time unit; positive: the policy is faster).
[[nodiscard]] inline double improvement_pct(double baseline_us,
                                            double policy_us) {
  return 100.0 * (baseline_us - policy_us) / baseline_us;
}

}  // namespace bbsched::experiments
