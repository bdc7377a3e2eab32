// Determinism tests for the parallel experiment harness: the parallel sweep
// must be bit-identical to the serial reference path at every worker count,
// and batched runs must land in their request slots.
#include <gtest/gtest.h>

#include <stdexcept>

#include "experiments/parallel.h"
#include "experiments/sweep.h"

namespace bbsched::experiments {
namespace {

ExperimentConfig quick_config() {
  ExperimentConfig cfg;
  cfg.time_scale = 0.05;
  return cfg;
}

void expect_identical(const ImprovementStats& a, const ImprovementStats& b) {
  EXPECT_EQ(a.n, b.n);
  // EXPECT_EQ on doubles is exact: bit-identical, not merely close.
  EXPECT_EQ(a.mean_pct, b.mean_pct);
  EXPECT_EQ(a.stddev_pct, b.stddev_pct);
  EXPECT_EQ(a.min_pct, b.min_pct);
  EXPECT_EQ(a.max_pct, b.max_pct);
  EXPECT_EQ(a.ci95_pct, b.ci95_pct);
}

TEST(ParallelSweep, BitIdenticalToSerialAtAnyWorkerCount) {
  const auto cfg = quick_config();
  const auto w = workload::fig2_mixed(
      workload::paper_application("Volrend"), cfg.machine.bus);
  const int seeds = 3;

  const auto serial =
      sweep_improvement(w, SchedulerKind::kQuantaWindow,
                        SchedulerKind::kLinux, cfg, seeds);
  ASSERT_EQ(serial.n, seeds);

  for (int workers : {1, 2, 8}) {
    const auto parallel = parallel_sweep_improvement(
        w, SchedulerKind::kQuantaWindow, SchedulerKind::kLinux, cfg, seeds,
        workers);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_identical(serial, parallel);
  }
}

TEST(ParallelSweep, MultiPolicySweepMatchesSinglePolicySweeps) {
  // One baseline run per seed, scored against every policy, must reproduce
  // each policy's own sweep bit for bit, serial or parallel.
  const auto cfg = quick_config();
  const auto w = workload::fig2_mixed(
      workload::paper_application("Volrend"), cfg.machine.bus);
  const int seeds = 3;
  const SchedulerKind policies[] = {SchedulerKind::kLatestQuantum,
                                    SchedulerKind::kQuantaWindow};
  std::vector<ImprovementStats> serial;
  for (const auto policy : policies) {
    serial.push_back(
        sweep_improvement(w, policy, SchedulerKind::kLinux, cfg, seeds));
  }

  for (int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ParallelExecutor executor(workers);
    const auto multi = parallel_sweep_improvements(
        w, policies, SchedulerKind::kLinux, cfg, seeds, executor);
    ASSERT_EQ(multi.size(), 2u);
    for (std::size_t p = 0; p < multi.size(); ++p) {
      expect_identical(multi[p], serial[p]);
      expect_identical(multi[p], parallel_sweep_improvement(
                                     w, policies[p], SchedulerKind::kLinux,
                                     cfg, seeds, executor));
    }
  }
}

TEST(ParallelSweep, ExecutorReusableAcrossSweeps) {
  const auto cfg = quick_config();
  const auto w = workload::fig2_idle_bus(
      workload::paper_application("Radiosity"), cfg.machine.bus);
  ParallelExecutor executor(2);
  const auto first = parallel_sweep_improvement(
      w, SchedulerKind::kLatestQuantum, SchedulerKind::kLinux, cfg, 2,
      executor);
  const auto second = parallel_sweep_improvement(
      w, SchedulerKind::kLatestQuantum, SchedulerKind::kLinux, cfg, 2,
      executor);
  expect_identical(first, second);
}

TEST(RunWorkloadsParallel, ResultsLandInRequestOrder) {
  const auto cfg = quick_config();
  const auto w = workload::fig2_idle_bus(
      workload::paper_application("Radiosity"), cfg.machine.bus);

  std::vector<RunRequest> requests;
  for (auto kind : {SchedulerKind::kLinux, SchedulerKind::kLatestQuantum,
                    SchedulerKind::kQuantaWindow,
                    SchedulerKind::kEquipartition}) {
    requests.push_back({w, kind, cfg});
  }
  const auto results = run_workloads_parallel(requests, /*workers=*/4);
  ASSERT_EQ(results.size(), requests.size());
  EXPECT_EQ(results[0].scheduler, "linux-2.4");
  EXPECT_EQ(results[1].scheduler, "latest-quantum");
  EXPECT_EQ(results[2].scheduler, "quanta-window");
  EXPECT_EQ(results[3].scheduler, "equipartition");

  // Same request => same simulation, regardless of which worker ran it.
  const auto serial = run_workload(w, SchedulerKind::kQuantaWindow, cfg);
  EXPECT_EQ(results[2].measured_mean_turnaround_us,
            serial.measured_mean_turnaround_us);
  EXPECT_EQ(results[2].end_time_us, serial.end_time_us);
  EXPECT_EQ(results[2].migrations, serial.migrations);
}

TEST(ParallelExecutor, MapPropagatesTaskExceptions) {
  ParallelExecutor executor(2);
  EXPECT_THROW(executor.map(4,
                            [](std::size_t i) -> int {
                              if (i == 2) throw std::runtime_error("boom");
                              return static_cast<int>(i);
                            }),
               std::runtime_error);
  // The executor stays usable after a failed batch.
  const auto ok = executor.map(
      3, [](std::size_t i) { return static_cast<int>(i) + 1; });
  ASSERT_EQ(ok.size(), 3u);
  EXPECT_EQ(ok[2], 3);
}

}  // namespace
}  // namespace bbsched::experiments
