// Offline optimal co-schedule solver (experiments/opt_solve.h): subset DP
// vs brute force, certified bounds below every model value AND every
// measured run (regret >= 0 for every policy), and instance extraction.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "experiments/opt_solve.h"
#include "experiments/runner.h"
#include "workload/app_profile.h"
#include "workload/demand_models.h"
#include "workload/workload.h"

namespace bbsched::experiments {
namespace {

OptInstance synthetic(std::vector<OptApp> apps, int nprocs = 4) {
  OptInstance inst;
  inst.apps = std::move(apps);
  inst.nprocs = nprocs;
  return inst;
}

double value_of(const OptSchedule& s, OptObjective obj) {
  return obj == OptObjective::kMakespan ? s.makespan_us
                                        : s.mean_turnaround_us;
}

void expect_dp_matches_brute_force(const OptInstance& inst) {
  for (auto obj : {OptObjective::kMakespan, OptObjective::kMeanTurnaround}) {
    const OptSchedule dp = solve_batches(inst, obj);
    const OptSchedule bf = brute_force(inst, obj);
    EXPECT_NEAR(value_of(dp, obj), value_of(bf, obj),
                1e-6 * std::max(1.0, value_of(bf, obj)));
    const OptBounds bounds = certified_bounds(inst);
    const double bound = obj == OptObjective::kMakespan
                             ? bounds.makespan_lb_us
                             : bounds.mean_turnaround_lb_us;
    EXPECT_GE(value_of(dp, obj), bound * (1.0 - 1e-9));
  }
}

TEST(OptSolve, SingleZeroDemandAppIsExact) {
  const OptInstance inst = synthetic({{"solo", 2, 1000.0, 0.0, 1.0}});
  const OptSchedule s = solve_batches(inst, OptObjective::kMakespan);
  EXPECT_DOUBLE_EQ(s.makespan_us, 1000.0);
  EXPECT_DOUBLE_EQ(s.mean_turnaround_us, 1000.0);
  ASSERT_EQ(s.batches.size(), 1u);
  const OptBounds b = certified_bounds(inst);
  EXPECT_DOUBLE_EQ(b.makespan_lb_us, 1000.0);
  EXPECT_DOUBLE_EQ(b.mean_turnaround_lb_us, 1000.0);
}

TEST(OptSolve, DpMatchesBruteForceOnSmallInstances) {
  expect_dp_matches_brute_force(synthetic(
      {{"a", 2, 1000.0, 1.0, 1.0}, {"b", 2, 800.0, 2.0, 1.0}}));
  expect_dp_matches_brute_force(synthetic({{"hog", 2, 500.0, 11.8, 1.0},
                                           {"lean", 2, 700.0, 0.5, 1.0},
                                           {"mid", 1, 900.0, 6.0, 1.0}}));
  // Heterogeneous thread counts: batches of unequal width.
  expect_dp_matches_brute_force(synthetic({{"wide", 3, 400.0, 4.0, 1.0},
                                           {"narrow", 1, 1200.0, 9.0, 1.0},
                                           {"pair", 2, 600.0, 2.5, 1.0},
                                           {"solo", 1, 300.0, 0.1, 1.0}}));
  // Weighted bus arbitration.
  expect_dp_matches_brute_force(synthetic({{"prio", 1, 600.0, 23.6, 1.6},
                                           {"app", 2, 900.0, 5.0, 1.0},
                                           {"idleish", 1, 500.0, 0.0037, 1.0}}));
}

TEST(OptSolve, DpMatchesBruteForceOnFig2MixedSet) {
  // A paper workload end to end: make_instance skips the infinite
  // backgrounds, leaving the measured SP instances.
  sim::MachineConfig machine;
  expect_dp_matches_brute_force(make_instance(
      workload::fig2_mixed(workload::paper_application("SP"), machine.bus),
      machine, 0.01));
}

TEST(OptSolve, SerialMachineForcesSequentialSchedule) {
  const OptInstance inst = synthetic(
      {{"a", 1, 100.0, 0.0, 1.0}, {"b", 1, 300.0, 0.0, 1.0}}, /*nprocs=*/1);
  const OptSchedule s = solve_batches(inst, OptObjective::kMeanTurnaround);
  ASSERT_EQ(s.batches.size(), 2u);
  // Shortest-first is optimal for mean turnaround on one processor.
  EXPECT_DOUBLE_EQ(s.mean_turnaround_us, (100.0 + 400.0) / 2.0);
  EXPECT_DOUBLE_EQ(s.makespan_us, 400.0);
}

TEST(OptSolve, BoundsUseProcessorAndBusInvariants) {
  // 4 apps x 2 threads x 1000 µs on 4 procs: processor bound forces
  // makespan >= 2000 even though each app alone takes 1000.
  const OptInstance cpu_bound = synthetic({{"a", 2, 1000.0, 0.0, 1.0},
                                           {"b", 2, 1000.0, 0.0, 1.0},
                                           {"c", 2, 1000.0, 0.0, 1.0},
                                           {"d", 2, 1000.0, 0.0, 1.0}});
  EXPECT_DOUBLE_EQ(certified_bounds(cpu_bound).makespan_lb_us, 2000.0);

  // One hog whose transactions exceed what the bus can grant in its own
  // runtime: the bus invariant dominates.
  OptInstance bus_bound = synthetic({{"hog", 2, 1000.0, 40.0, 1.0}});
  const double expected =
      1000.0 * 40.0 * 2.0 / bus_bound.bus.capacity_tps;
  EXPECT_DOUBLE_EQ(certified_bounds(bus_bound).makespan_lb_us, expected);
}

TEST(OptSolve, RegretHelperClampsDegenerateBounds) {
  EXPECT_DOUBLE_EQ(regret_pct(1500.0, 1000.0), 50.0);
  EXPECT_DOUBLE_EQ(regret_pct(1500.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regret_pct(1500.0, -1.0), 0.0);
}

// ---- instance extraction ----

TEST(OptSolve, MakeInstanceExtractsMeasuredFiniteSteadyJobs) {
  sim::MachineConfig machine;
  workload::Workload w = workload::fig2_mixed(
      workload::paper_application("SP"), machine.bus);
  const OptInstance inst = make_instance(w, machine, 0.5);
  // Backgrounds are infinite; only the measured app instances survive.
  EXPECT_EQ(inst.apps.size(), w.measured.size());
  for (std::size_t i = 0; i < inst.apps.size(); ++i) {
    const sim::JobSpec& spec = w.jobs[w.measured[i]];
    EXPECT_EQ(inst.apps[i].name, spec.name);
    EXPECT_EQ(inst.apps[i].nthreads, spec.nthreads);
    EXPECT_DOUBLE_EQ(inst.apps[i].work_us, spec.work_us * 0.5);
  }
  EXPECT_EQ(inst.nprocs, machine.num_cpus);
}

TEST(OptSolve, MakeInstanceKeepsSteadyAndZeroesNonSteadyDemand) {
  sim::MachineConfig machine;
  workload::Workload w;
  sim::JobSpec steady;
  steady.name = "steady";
  steady.nthreads = 2;
  steady.work_us = 1000.0;
  steady.demand = std::make_shared<sim::SteadyDemand>(7.0);
  w.jobs.push_back(steady);
  sim::JobSpec bursty;
  bursty.name = "bursty";
  bursty.nthreads = 2;
  bursty.work_us = 1000.0;
  bursty.demand = std::make_shared<workload::PhasedDemand>(
      /*high_tps=*/10.0, /*low_tps=*/0.1, /*period_us=*/500.0, /*duty=*/0.5);
  w.jobs.push_back(bursty);
  const OptInstance inst = make_instance(w, machine, 1.0);
  ASSERT_EQ(inst.apps.size(), 2u);
  // A provably constant rate feeds the bus invariant...
  EXPECT_DOUBLE_EQ(inst.apps[0].demand_tps, 7.0);
  // ...while phased demand is not provably steady: the certified bound
  // falls back to the work/processor invariants (demand 0), staying valid.
  EXPECT_DOUBLE_EQ(inst.apps[1].demand_tps, 0.0);
}

// ---- regret >= 0 for every policy on real runs ----

TEST(OptSolve, MeasuredRunsNeverBeatTheCertifiedBound) {
  ExperimentConfig cfg;
  cfg.time_scale = 0.02;

  workload::Workload w;
  w.name = "regret-fixture";
  for (const char* name : {"SP", "CG", "Radiosity", "MG"}) {
    w.measured.push_back(w.jobs.size());
    w.jobs.push_back(workload::make_app_job(
        workload::paper_application(name), cfg.machine.bus));
  }
  const OptInstance inst = make_instance(w, cfg.machine, cfg.time_scale);
  const OptBounds bounds = certified_bounds(inst);
  ASSERT_GT(bounds.mean_turnaround_lb_us, 0.0);

  for (auto kind :
       {SchedulerKind::kPinned, SchedulerKind::kLinux,
        SchedulerKind::kEquipartition, SchedulerKind::kLatestQuantum,
        SchedulerKind::kQuantaWindow, SchedulerKind::kPredictiveThroughput,
        SchedulerKind::kCreditReservation}) {
    const RunResult run = run_workload(w, kind, cfg);
    EXPECT_GE(run.measured_mean_turnaround_us, bounds.mean_turnaround_lb_us)
        << to_string(kind);
    EXPECT_GE(regret_pct(run.measured_mean_turnaround_us,
                         bounds.mean_turnaround_lb_us),
              0.0)
        << to_string(kind);
  }

  // The model optimum also respects the certified bound (it is a feasible
  // schedule of the relaxed model).
  const OptSchedule opt = solve_batches(inst, OptObjective::kMeanTurnaround);
  EXPECT_GE(opt.mean_turnaround_us, bounds.mean_turnaround_lb_us * (1 - 1e-9));
}

}  // namespace
}  // namespace bbsched::experiments
