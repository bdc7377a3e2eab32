// Multi-seed sweeps: every stochastic ingredient of a run (OS-noise phases,
// Linux slice jitter, burst patterns) is seed-driven, so re-running an
// experiment across seeds yields a sampling distribution for each reported
// improvement. The paper reports single measurements; the sweep quantifies
// how much of each number is signal.
#pragma once

#include <cstdint>

#include "experiments/runner.h"
#include "stats/percentile.h"

namespace bbsched::experiments {

/// Summary of a sampled improvement distribution (percent).
struct ImprovementStats {
  int n = 0;
  double mean_pct = 0.0;
  double stddev_pct = 0.0;
  double min_pct = 0.0;
  double max_pct = 0.0;
  /// Half-width of the normal-approximation 95% confidence interval.
  double ci95_pct = 0.0;
};

/// `cfg` with every per-run seed shifted by seed index `s` (engine and
/// Linux-scheduler seeds move together). Both the serial and the parallel
/// sweep derive their per-seed configs through this helper, which is what
/// keeps the two paths bit-identical.
[[nodiscard]] ExperimentConfig seed_shifted(const ExperimentConfig& cfg,
                                            int s);

/// Runs `workload` under `policy` and `baseline` across `seeds` consecutive
/// seeds (starting at cfg.engine.seed) and returns the distribution of
///   100 * (T_baseline - T_policy) / T_baseline.
/// This is the serial reference path; experiments::parallel_sweep_improvement
/// (experiments/parallel.h) produces bit-identical results at any worker count.
[[nodiscard]] ImprovementStats sweep_improvement(
    const workload::Workload& workload, SchedulerKind policy,
    SchedulerKind baseline, const ExperimentConfig& cfg, int seeds);

/// Computes the summary of an arbitrary sample set (exposed for tests).
[[nodiscard]] ImprovementStats summarize_samples(
    const stats::SampleSet& samples);

}  // namespace bbsched::experiments
