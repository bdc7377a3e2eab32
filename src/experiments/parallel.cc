#include "experiments/parallel.h"

#include "stats/percentile.h"

namespace bbsched::experiments {

std::vector<RunResult> run_workloads_parallel(
    std::span<const RunRequest> requests, ParallelExecutor& executor) {
  return executor.map(requests.size(), [&](std::size_t i) {
    const RunRequest& r = requests[i];
    return run_workload(r.workload, r.kind, r.cfg);
  });
}

std::vector<RunResult> run_workloads_parallel(
    std::span<const RunRequest> requests, int workers) {
  ParallelExecutor executor(workers);
  return run_workloads_parallel(requests, executor);
}

std::vector<ImprovementStats> parallel_sweep_improvements(
    const workload::Workload& workload,
    std::span<const SchedulerKind> policies, SchedulerKind baseline,
    const ExperimentConfig& cfg, int seeds, ParallelExecutor& executor) {
  // Seed s owns tasks [s * stride, (s + 1) * stride): its baseline run, then
  // one run per policy — the serial loop's runs in a fixed index layout,
  // with the baseline run shared by every policy instead of repeated.
  const std::size_t stride = policies.size() + 1;
  const auto turnaround = executor.map(
      static_cast<std::size_t>(seeds) * stride, [&](std::size_t task) {
        const std::size_t slot = task % stride;
        const SchedulerKind kind = slot == 0 ? baseline : policies[slot - 1];
        return run_workload(workload, kind,
                            seed_shifted(cfg, static_cast<int>(task / stride)))
            .measured_mean_turnaround_us;
      });

  // Fold each policy's samples in seed order, mirroring the serial
  // accumulation exactly.
  std::vector<ImprovementStats> out;
  out.reserve(policies.size());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    stats::SampleSet samples;
    for (std::size_t s = 0; s < static_cast<std::size_t>(seeds); ++s) {
      const double base = turnaround[s * stride];
      const double pol = turnaround[s * stride + 1 + p];
      samples.add(100.0 * (base - pol) / base);
    }
    out.push_back(summarize_samples(samples));
  }
  return out;
}

ImprovementStats parallel_sweep_improvement(const workload::Workload& workload,
                                            SchedulerKind policy,
                                            SchedulerKind baseline,
                                            const ExperimentConfig& cfg,
                                            int seeds,
                                            ParallelExecutor& executor) {
  return parallel_sweep_improvements(
             workload, std::span<const SchedulerKind>(&policy, 1), baseline,
             cfg, seeds, executor)
      .front();
}

ImprovementStats parallel_sweep_improvement(const workload::Workload& workload,
                                            SchedulerKind policy,
                                            SchedulerKind baseline,
                                            const ExperimentConfig& cfg,
                                            int seeds, int workers) {
  ParallelExecutor executor(workers);
  return parallel_sweep_improvement(workload, policy, baseline, cfg, seeds,
                                    executor);
}

}  // namespace bbsched::experiments
