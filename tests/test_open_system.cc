// Tests for open-system (dynamic arrival) support: the engine's submit_job
// and every scheduler's handling of late-arriving applications.
#include <gtest/gtest.h>

#include <memory>

#include "core/managed_scheduler.h"
#include "linuxsched/linux_sched.h"
#include "sim/engine.h"
#include "spacesched/equipartition.h"

namespace bbsched::sim {
namespace {

EngineConfig quiet_engine() {
  EngineConfig e;
  e.os_noise_interval_us = 0;
  return e;
}

JobSpec job(const std::string& name, int nthreads, double work_us,
            double rate = 0.5) {
  JobSpec spec;
  spec.name = name;
  spec.nthreads = nthreads;
  spec.work_us = work_us;
  spec.demand = std::make_shared<SteadyDemand>(rate);
  spec.cache.cold_demand_boost = 0.0;
  spec.cache.migration_sensitivity = 0.0;
  return spec;
}

TEST(OpenSystem, ArrivalReleaseTimeRecorded) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  eng.submit_job(job("late", 1, 50'000.0), ms(100));
  eng.run();
  ASSERT_EQ(eng.machine().jobs().size(), 1u);
  const auto& j = eng.machine().jobs()[0];
  EXPECT_EQ(j.release_us, ms(100));
  ASSERT_TRUE(j.completed);
  // Turnaround counts from release, not from t=0.
  EXPECT_NEAR(static_cast<double>(j.turnaround_us()), 50'000.0, 3'000.0);
}

TEST(OpenSystem, RunWaitsForPendingArrivals) {
  // Even with no initial jobs, the run must not finish before the pending
  // arrival lands and completes.
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  eng.submit_job(job("late", 1, 20'000.0), ms(200));
  const SimTime end = eng.run();
  EXPECT_GE(end, ms(220) - 2'000);
  EXPECT_TRUE(eng.machine().jobs()[0].completed);
}

TEST(OpenSystem, ArrivalsSortedBySubmitTime) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  eng.submit_job(job("second", 1, 10'000.0), ms(60));
  eng.submit_job(job("first", 1, 10'000.0), ms(20));
  eng.run();
  ASSERT_EQ(eng.machine().jobs().size(), 2u);
  EXPECT_EQ(eng.machine().jobs()[0].spec.name, "first");
  EXPECT_EQ(eng.machine().jobs()[1].spec.name, "second");
}

TEST(OpenSystem, ManagedSchedulerConnectsLateArrivals) {
  core::ManagedSchedulerConfig mcfg;
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<core::ManagedScheduler>(mcfg));
  eng.add_job(job("resident", 2, 1.5e6, 1.0));
  eng.submit_job(job("late", 2, 300'000.0, 8.0), ms(500));
  eng.run();
  // The late app connected, was elected (head-of-list guarantee) and
  // finished; the resident finished too.
  EXPECT_TRUE(eng.machine().all_finite_jobs_done());
  const auto& late = eng.machine().jobs()[1];
  EXPECT_EQ(late.release_us, ms(500));
  EXPECT_TRUE(late.completed);
}

TEST(OpenSystem, LateArrivalWaitsForNextElection) {
  core::ManagedSchedulerConfig mcfg;  // 200 ms quantum
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<core::ManagedScheduler>(mcfg));
  eng.add_job(job("resident", 4, 2.0e6, 1.0));
  eng.submit_job(job("late", 2, 100'000.0, 1.0), ms(250));
  // At t=300 the late app exists but the resident's gang owns the quantum.
  eng.run_until(ms(300));
  const auto& late_threads = eng.machine().jobs()[1].thread_ids;
  for (int tid : late_threads) {
    EXPECT_NE(eng.machine().store().state[static_cast<std::size_t>(tid)],
              ThreadState::kDone);
    EXPECT_EQ(eng.machine().cpu_of(tid), -1);
  }
  eng.run();
  EXPECT_TRUE(eng.machine().all_finite_jobs_done());
}

TEST(OpenSystem, LinuxHandlesArrivalBurst) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<linuxsched::LinuxScheduler>(
                 linuxsched::LinuxSchedConfig{}));
  eng.add_job(job("base", 2, 400'000.0));
  for (int i = 0; i < 4; ++i) {
    eng.submit_job(job("burst" + std::to_string(i), 1, 100'000.0),
                   ms(50 + 10 * static_cast<SimTime>(i)));
  }
  eng.run();
  EXPECT_TRUE(eng.machine().all_finite_jobs_done());
}

TEST(OpenSystem, EquipartitionReallocatesOnArrival) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<spacesched::EquipartitionScheduler>());
  eng.add_job(job("first", 4, 1.0e6));
  eng.submit_job(job("late", 2, 200'000.0), ms(100));
  eng.run_until(ms(150));
  auto& sched =
      dynamic_cast<spacesched::EquipartitionScheduler&>(eng.scheduler());
  // After the arrival the first job's partition shrank to make room.
  ASSERT_EQ(sched.allocation().size(), 2u);
  EXPECT_EQ(sched.allocation()[0] + sched.allocation()[1], 4);
  EXPECT_GT(sched.allocation()[1], 0);
  eng.run();
  EXPECT_TRUE(eng.machine().all_finite_jobs_done());
}

}  // namespace
}  // namespace bbsched::sim
