// Integration tests: the experiment drivers reproduce the paper's headline
// shapes (at reduced job durations so the suite stays fast).
#include <gtest/gtest.h>

#include "experiments/fig1.h"
#include "experiments/fig2.h"
#include "experiments/parallel.h"

namespace bbsched::experiments {
namespace {

ExperimentConfig fast_cfg() {
  ExperimentConfig cfg;
  cfg.time_scale = 0.1;
  return cfg;
}

std::vector<workload::AppProfile> apps_by_name(
    std::initializer_list<const char*> names) {
  std::vector<workload::AppProfile> out;
  for (const char* n : names) out.push_back(workload::paper_application(n));
  return out;
}

TEST(RunnerTest, SchedulerNames) {
  EXPECT_STREQ(to_string(SchedulerKind::kPinned), "pinned");
  EXPECT_STREQ(to_string(SchedulerKind::kLinux), "linux-2.4");
  EXPECT_STREQ(to_string(SchedulerKind::kLatestQuantum), "latest-quantum");
  EXPECT_STREQ(to_string(SchedulerKind::kQuantaWindow), "quanta-window");
}

TEST(RunnerTest, RunWorkloadMeasuresTurnarounds) {
  const auto cfg = fast_cfg();
  const auto w =
      workload::fig1_dual(workload::paper_application("Barnes"),
                          cfg.machine.bus);
  const auto r = run_workload(w, SchedulerKind::kPinned, cfg);
  ASSERT_EQ(r.turnaround_us.size(), 2u);
  EXPECT_GT(r.turnaround_us[0], 0.0);
  EXPECT_GT(r.turnaround_us[1], 0.0);
  EXPECT_NEAR(r.measured_mean_turnaround_us,
              0.5 * (r.turnaround_us[0] + r.turnaround_us[1]), 1.0);
  EXPECT_GT(r.machine_rate_tps, 0.0);
}

TEST(RunnerTest, TimeScaleShortensJobs) {
  ExperimentConfig slow = fast_cfg();
  ExperimentConfig fast = fast_cfg();
  fast.time_scale = 0.05;
  const auto w = workload::fig1_single(workload::paper_application("FMM"),
                                       slow.machine.bus);
  const auto r_slow = run_workload(w, SchedulerKind::kPinned, slow);
  const auto r_fast = run_workload(w, SchedulerKind::kPinned, fast);
  EXPECT_NEAR(r_slow.measured_mean_turnaround_us /
                  r_fast.measured_mean_turnaround_us,
              2.0, 0.2);
}

TEST(Fig1Test, CalibratedRatesAndSlowdownBands) {
  // Three representative apps spanning the bandwidth range.
  const auto rows =
      run_fig1(apps_by_name({"Radiosity", "LU-CB", "CG"}), fast_cfg());
  ASSERT_EQ(rows.size(), 3u);

  // Fig. 1A: standalone rates match the calibrated targets within 5%.
  EXPECT_NEAR(rows[0].rate_single, 0.48, 0.05);
  EXPECT_NEAR(rows[1].rate_single, 7.6, 0.4);
  EXPECT_NEAR(rows[2].rate_single, 23.31, 1.2);

  // Low-bandwidth: everything near 1.0 except a small BBMA effect.
  EXPECT_NEAR(rows[0].slow_dual, 1.0, 0.05);
  EXPECT_LT(rows[0].slow_bbma, 1.2);
  EXPECT_NEAR(rows[0].slow_nbbma, 1.0, 0.05);

  // High-bandwidth (CG): dual saturates (paper 41-61%), BBMA crushes
  // (paper 2-3x), nBBMA is free.
  EXPECT_GT(rows[2].slow_dual, 1.3);
  EXPECT_LT(rows[2].slow_dual, 1.9);
  EXPECT_GT(rows[2].slow_bbma, 1.9);
  EXPECT_LT(rows[2].slow_bbma, 3.0);
  EXPECT_NEAR(rows[2].slow_nbbma, 1.0, 0.05);

  // The BBMA workloads drive the bus close to saturation (paper: 28.34).
  EXPECT_GT(rows[2].rate_bbma, 26.0);
  EXPECT_LE(rows[2].rate_bbma, 29.5);
}

TEST(Fig1Test, SlowdownMonotoneInBandwidthClass) {
  const auto rows =
      run_fig1(apps_by_name({"Radiosity", "Barnes", "SP"}), fast_cfg());
  EXPECT_LT(rows[0].slow_bbma, rows[1].slow_bbma);
  EXPECT_LT(rows[1].slow_bbma, rows[2].slow_bbma);
}

TEST(Fig2Test, PoliciesBeatLinuxOnSaturatedBusForHighBandwidthApps) {
  ParallelExecutor executor(2);
  const auto rows = run_fig2(Fig2Set::kSaturated, apps_by_name({"SP", "CG"}),
                             fast_cfg(), executor);
  for (const auto& r : rows) {
    EXPECT_GT(r.improvement_latest_pct, 5.0) << r.app;
    EXPECT_GT(r.improvement_window_pct, 5.0) << r.app;
  }
}

TEST(Fig2Test, PoliciesHelpWithLowBandwidthCompanions) {
  ParallelExecutor executor(2);
  const auto rows = run_fig2(Fig2Set::kIdleBus, apps_by_name({"BT", "MG"}),
                             fast_cfg(), executor);
  for (const auto& r : rows) {
    EXPECT_GT(r.improvement_latest_pct, 0.0) << r.app;
    EXPECT_GT(r.improvement_window_pct, 0.0) << r.app;
  }
}

TEST(Fig2Test, MixedSetImprovementsWithinSaneBounds) {
  ParallelExecutor executor(2);
  const auto rows =
      run_fig2(Fig2Set::kMixed, apps_by_name({"Radiosity", "CG"}),
               fast_cfg(), executor);
  const auto s = summarize(rows);
  // Nothing catastrophic in either direction (paper: -7% .. +50%).
  EXPECT_GT(s.latest_min_pct, -20.0);
  EXPECT_LT(s.latest_max_pct, 80.0);
  EXPECT_GT(s.window_min_pct, -20.0);
  EXPECT_LT(s.window_max_pct, 80.0);
}

TEST(Fig2Test, SummaryStatistics) {
  std::vector<Fig2Row> rows(3);
  rows[0].improvement_latest_pct = 10.0;
  rows[0].improvement_window_pct = 20.0;
  rows[1].improvement_latest_pct = -5.0;
  rows[1].improvement_window_pct = 0.0;
  rows[2].improvement_latest_pct = 25.0;
  rows[2].improvement_window_pct = 10.0;
  const auto s = summarize(rows);
  EXPECT_DOUBLE_EQ(s.latest_avg_pct, 10.0);
  EXPECT_DOUBLE_EQ(s.latest_max_pct, 25.0);
  EXPECT_DOUBLE_EQ(s.latest_min_pct, -5.0);
  EXPECT_DOUBLE_EQ(s.window_avg_pct, 10.0);
  EXPECT_DOUBLE_EQ(s.window_max_pct, 20.0);
  EXPECT_DOUBLE_EQ(s.window_min_pct, 0.0);
}

TEST(Fig2Test, WorkloadFactory) {
  const auto& app = workload::paper_application("FMM");
  const sim::BusConfig bus;
  EXPECT_EQ(make_fig2_workload(Fig2Set::kSaturated, app, bus).jobs.size(),
            6u);
  EXPECT_EQ(make_fig2_workload(Fig2Set::kIdleBus, app, bus).jobs.size(), 6u);
  EXPECT_EQ(make_fig2_workload(Fig2Set::kMixed, app, bus).jobs.size(), 6u);
  EXPECT_STREQ(to_string(Fig2Set::kSaturated), "2 Apps + 4 BBMA");
}

TEST(Fig2Test, DeterministicForSameSeed) {
  const auto cfg = fast_cfg();
  const auto w = make_fig2_workload(
      Fig2Set::kMixed, workload::paper_application("Volrend"),
      cfg.machine.bus);
  const auto a = run_workload(w, SchedulerKind::kQuantaWindow, cfg);
  const auto b = run_workload(w, SchedulerKind::kQuantaWindow, cfg);
  EXPECT_DOUBLE_EQ(a.measured_mean_turnaround_us,
                   b.measured_mean_turnaround_us);
}

}  // namespace
}  // namespace bbsched::experiments
