#include "experiments/sweep.h"

#include <cmath>

#include "stats/online_stats.h"

namespace bbsched::experiments {

ImprovementStats summarize_samples(const stats::SampleSet& samples) {
  ImprovementStats out;
  out.n = static_cast<int>(samples.size());
  if (samples.empty()) return out;
  stats::OnlineStats acc;
  for (double x : samples.samples()) acc.add(x);
  out.mean_pct = acc.mean();
  out.stddev_pct = std::sqrt(acc.sample_variance());
  out.min_pct = acc.min();
  out.max_pct = acc.max();
  if (out.n > 1) {
    out.ci95_pct = 1.96 * out.stddev_pct / std::sqrt(static_cast<double>(out.n));
  }
  return out;
}

ExperimentConfig seed_shifted(const ExperimentConfig& cfg, int s) {
  ExperimentConfig run_cfg = cfg;
  run_cfg.engine.seed = cfg.engine.seed + static_cast<std::uint64_t>(s);
  run_cfg.linux_sched.seed =
      cfg.linux_sched.seed + static_cast<std::uint64_t>(s);
  return run_cfg;
}

ImprovementStats sweep_improvement(const workload::Workload& workload,
                                   SchedulerKind policy,
                                   SchedulerKind baseline,
                                   const ExperimentConfig& cfg, int seeds) {
  stats::SampleSet samples;
  for (int s = 0; s < seeds; ++s) {
    const ExperimentConfig run_cfg = seed_shifted(cfg, s);
    const auto base = run_workload(workload, baseline, run_cfg);
    const auto pol = run_workload(workload, policy, run_cfg);
    samples.add(improvement_pct(base.measured_mean_turnaround_us,
                                pol.measured_mean_turnaround_us));
  }
  return summarize_samples(samples);
}

}  // namespace bbsched::experiments
