// Tests for the equipartition space-sharing baseline.
#include <gtest/gtest.h>

#include <memory>

#include "sim/engine.h"
#include "spacesched/equipartition.h"

namespace bbsched::spacesched {
namespace {

using sim::Engine;
using sim::EngineConfig;
using sim::JobSpec;
using sim::MachineConfig;
using sim::SteadyDemand;

EngineConfig quiet_engine(bool trace = false) {
  EngineConfig e;
  e.os_noise_interval_us = 0;
  e.trace = trace;
  return e;
}

JobSpec job(const std::string& name, int nthreads, double work_us,
            double rate = 0.5, double barrier_us = 0.0) {
  JobSpec spec;
  spec.name = name;
  spec.nthreads = nthreads;
  spec.work_us = work_us;
  spec.barrier_interval_us = barrier_us;
  spec.demand = std::make_shared<SteadyDemand>(rate);
  spec.cache.cold_demand_boost = 0.0;
  spec.cache.migration_sensitivity = 0.0;
  return spec;
}

TEST(Equipartition, DisjointPartitionsCoverTheMachine) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<EquipartitionScheduler>());
  eng.add_job(job("a", 2, 1.0e6));
  eng.add_job(job("b", 2, 1.0e6));
  eng.step();
  auto& sched = dynamic_cast<EquipartitionScheduler&>(eng.scheduler());
  ASSERT_EQ(sched.allocation().size(), 2u);
  EXPECT_EQ(sched.allocation()[0], 2);
  EXPECT_EQ(sched.allocation()[1], 2);
  // All four CPUs busy with distinct threads.
  int busy = 0;
  for (const auto& cpu : eng.machine().cpus()) {
    if (cpu.thread != sim::Cpu::kIdle) ++busy;
  }
  EXPECT_EQ(busy, 4);
}

TEST(Equipartition, CapsAllocationAtThreadCount) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<EquipartitionScheduler>());
  eng.add_job(job("one", 1, 1.0e6));
  eng.add_job(job("pair", 2, 1.0e6));
  eng.step();
  auto& sched = dynamic_cast<EquipartitionScheduler&>(eng.scheduler());
  EXPECT_EQ(sched.allocation()[0], 1);  // never more than its threads
  EXPECT_EQ(sched.allocation()[1], 2);
}

TEST(Equipartition, FoldsWideJobs) {
  // A 8-thread job on a 4-CPU machine folds: it still completes, taking
  // roughly twice its work.
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<EquipartitionScheduler>());
  const int j = eng.add_job(job("wide", 8, 200'000.0));
  eng.run();
  ASSERT_TRUE(eng.machine().job(j).completed);
  const double t = static_cast<double>(eng.machine().job(j).turnaround_us());
  EXPECT_GT(t, 1.8 * 200'000.0);
  EXPECT_LT(t, 2.6 * 200'000.0);
}

TEST(Equipartition, FoldingCoupledJobsSensitiveToSliceLength) {
  // The classic gang-vs-space-sharing result: a folded spin-barrier job
  // wastes (slice - barrier_interval) per slice spinning, so its folding
  // cost explodes with the round-robin slice length, while an uncoupled
  // job is slice-length insensitive.
  auto folded_time = [&](double barrier_us, sim::SimTime slice_us) {
    EquipartitionConfig cfg;
    cfg.fold_slice_us = slice_us;
    Engine eng(MachineConfig{}, quiet_engine(),
               std::make_unique<EquipartitionScheduler>(cfg));
    // Two jobs: the measured 4-thread job gets a 2-CPU partition.
    const int j = eng.add_job(job("folded", 4, 150'000.0, 0.5, barrier_us));
    eng.add_job(job("other", 2, sim::JobSpec::kInfiniteWork));
    eng.run_until(sim::sec(20));
    EXPECT_TRUE(eng.machine().job(j).completed);
    return static_cast<double>(eng.machine().job(j).turnaround_us());
  };
  const double coupled_short = folded_time(2'000.0, sim::ms(5));
  const double coupled_long = folded_time(2'000.0, sim::ms(25));
  const double uncoupled_short = folded_time(0.0, sim::ms(5));
  const double uncoupled_long = folded_time(0.0, sim::ms(25));

  EXPECT_GT(coupled_long, 1.5 * coupled_short);
  EXPECT_LT(std::abs(uncoupled_long - uncoupled_short),
            0.25 * uncoupled_short);
}

TEST(Equipartition, RotationSharesProcessorsWhenOversubscribed) {
  // 6 single-thread jobs on 4 CPUs: everyone makes progress via rotation.
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<EquipartitionScheduler>());
  for (int i = 0; i < 6; ++i) {
    std::string name = "j";
    name += std::to_string(i);
    eng.add_job(job(name, 1, sim::JobSpec::kInfiniteWork));
  }
  eng.run_until(sim::sec(2));
  const auto& run_us = eng.machine().store().run_us;
  for (std::size_t i = 0; i < run_us.size(); ++i) {
    EXPECT_GT(run_us[i], 200'000.0) << "thread " << i << " starved";
  }
}

TEST(Equipartition, ReallocatesOnCompletion) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<EquipartitionScheduler>());
  eng.add_job(job("short", 2, 50'000.0));
  const int lng = eng.add_job(job("long", 4, 400'000.0));
  eng.run();
  auto& sched = dynamic_cast<EquipartitionScheduler&>(eng.scheduler());
  // After the short job finished, the long one got the whole machine.
  EXPECT_EQ(sched.allocation()[static_cast<std::size_t>(lng)], 4);
  // With 4 CPUs for the second phase the long job beats pure 2-CPU folding:
  // 400k work / (phase1: 2 cpus for 4 threads ~ half speed) then full speed.
  const double t = static_cast<double>(eng.machine().job(lng).turnaround_us());
  EXPECT_LT(t, 2.0 * 400'000.0);
}

TEST(Equipartition, NoOversubscriptionInTrace) {
  Engine eng(MachineConfig{}, quiet_engine(true),
             std::make_unique<EquipartitionScheduler>());
  eng.add_job(job("a", 3, 100'000.0, 0.5, 2'000.0));
  eng.add_job(job("b", 2, 100'000.0));
  eng.add_job(job("c", 2, 100'000.0));
  eng.run();
  EXPECT_TRUE(eng.trace().no_oversubscription());
}

TEST(Equipartition, BandwidthOblivious) {
  // Two streamers land in different partitions and happily saturate the
  // bus — the obliviousness the bandwidth-aware policies fix.
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<EquipartitionScheduler>());
  eng.add_job(job("s1", 2, 150'000.0, 23.6));
  eng.add_job(job("s2", 2, 150'000.0, 23.6));
  eng.run();
  EXPECT_GT(eng.stats().saturated_ticks, eng.stats().total_ticks / 2);
}

}  // namespace
}  // namespace bbsched::spacesched
