// Tests for the SMT (hyperthreading) extension: sibling-context penalties,
// shared per-core caches, and symbiosis-aware gang placement.
#include <gtest/gtest.h>

#include <memory>

#include "core/managed_scheduler.h"
#include "sim/engine.h"
#include "sim/scheduler.h"

namespace bbsched::sim {
namespace {

MachineConfig smt_machine(int cores = 2, int way = 2) {
  MachineConfig m;
  m.num_cpus = cores * way;
  m.threads_per_core = way;
  return m;
}

EngineConfig quiet_engine() {
  EngineConfig e;
  e.os_noise_interval_us = 0;
  return e;
}

JobSpec job(const std::string& name, int nthreads, double work_us,
            double rate) {
  JobSpec spec;
  spec.name = name;
  spec.nthreads = nthreads;
  spec.work_us = work_us;
  spec.demand = std::make_shared<SteadyDemand>(rate);
  spec.cache.cold_demand_boost = 0.0;
  spec.cache.migration_sensitivity = 0.0;
  return spec;
}

TEST(SmtConfigTest, CoreTopology) {
  const auto m = smt_machine(4, 2);
  EXPECT_EQ(m.num_cores(), 4);
  EXPECT_EQ(m.core_of(0), 0);
  EXPECT_EQ(m.core_of(1), 0);
  EXPECT_EQ(m.core_of(2), 1);
  EXPECT_EQ(m.core_of(7), 3);
}

TEST(Smt, SiblingContextsSlowEachOther) {
  // Two compute threads on one core (pinned to contexts 0 and 1) vs the
  // same two threads on separate cores (contexts 0 and 2).
  auto run_placed = [&](int cpu_a, int cpu_b) {
    class FixedPlacement final : public Scheduler {
     public:
      FixedPlacement(int a, int b) : a_(a), b_(b) {}
      void tick(Machine& m, SimTime, trace::ScheduleTrace&) override {
        const auto& state = m.store().state;
        if (m.cpu_of(0) == -1 && state[0] == ThreadState::kReady) {
          m.place(a_, 0);
        }
        if (m.cpu_of(1) == -1 && state[1] == ThreadState::kReady) {
          m.place(b_, 1);
        }
      }
      const char* name() const override { return "fixed"; }

     private:
      int a_, b_;
    };
    Engine eng(smt_machine(), quiet_engine(),
               std::make_unique<FixedPlacement>(cpu_a, cpu_b));
    eng.add_job(job("a", 1, 100'000.0, 1.0));
    eng.add_job(job("b", 1, 100'000.0, 1.0));
    eng.run();
    return static_cast<double>(eng.machine().job(0).turnaround_us());
  };

  const double same_core = run_placed(0, 1);
  const double separate_cores = run_placed(0, 2);
  EXPECT_GT(same_core, 1.10 * separate_cores);
}

TEST(Smt, MemoryBoundSiblingsConflictMore) {
  auto run_pair = [&](double rate) {
    Engine eng(smt_machine(1, 2), quiet_engine(),
               std::make_unique<PinnedScheduler>());
    eng.add_job(job("a", 1, 100'000.0, rate));
    eng.add_job(job("b", 1, 100'000.0, rate));
    eng.run();
    return static_cast<double>(eng.machine().job(0).turnaround_us());
  };
  // Normalize each by its own bus-only slowdown baseline (2 threads of the
  // same rate on separate cores of a 2-core machine).
  auto baseline = [&](double rate) {
    Engine eng(smt_machine(2, 1), quiet_engine(),
               std::make_unique<PinnedScheduler>());
    eng.add_job(job("a", 1, 100'000.0, rate));
    eng.add_job(job("b", 1, 100'000.0, rate));
    eng.run();
    return static_cast<double>(eng.machine().job(0).turnaround_us());
  };
  const double light_ratio = run_pair(0.5) / baseline(0.5);
  const double heavy_ratio = run_pair(18.0) / baseline(18.0);
  EXPECT_GT(heavy_ratio, light_ratio + 0.05);
}

TEST(Smt, SpinningSiblingDoesNotPenalize) {
  // Thread 1 of a coupled pair is never scheduled, so thread 0 spins at the
  // barrier; a spinning context leaves the core's resources to its sibling.
  class PlaceZeroAndTwo final : public Scheduler {
   public:
    void tick(Machine& m, SimTime, trace::ScheduleTrace&) override {
      // Thread 0 (compute job) on context 0; thread 2 = the coupled job's
      // first thread on context 1 (sibling). The coupled job's second
      // thread (3) never runs, so thread 2 spins almost immediately.
      const auto& state = m.store().state;
      if (m.cpu_of(0) == -1 && state[0] == ThreadState::kReady) {
        m.place(0, 0);
      }
      if (m.cpu_of(2) == -1 && state[2] == ThreadState::kReady) {
        m.place(1, 2);
      }
    }
    const char* name() const override { return "zero-and-two"; }
  };

  EngineConfig ecfg = quiet_engine();
  ecfg.spin_grace_us = kForever;  // sibling spins forever (pure spin)
  Engine eng(smt_machine(1, 2), ecfg, std::make_unique<PlaceZeroAndTwo>());
  eng.add_job(job("solo", 1, 100'000.0, 0.5));          // threads: 0
  JobSpec coupled = job("coupled", 2, 1.0e6, 0.5);      // threads: 1? no: 1,2
  coupled.barrier_interval_us = 1'000.0;
  eng.add_job(coupled);
  eng.run_until(ms(150));
  // Thread 0 finished nearly on time despite the busy sibling context.
  EXPECT_TRUE(eng.machine().job(0).completed);
  EXPECT_LE(eng.machine().job(0).turnaround_us(), ms(115));
}

TEST(Smt, SharedCacheDisturbanceAcrossContexts) {
  // A streaming thread on context 1 evicts the cache state of a thread
  // whose home is context 0 (same core).
  Engine eng(smt_machine(1, 2), quiet_engine(),
             std::make_unique<PinnedScheduler>());
  JobSpec resident = job("resident", 1, 500'000.0, 0.2);
  eng.add_job(resident);
  JobSpec stream = job("stream", 1, JobSpec::kInfiniteWork, 23.6);
  stream.cache.footprint_kb = 512.0;
  eng.add_job(stream);
  for (int i = 0; i < 100; ++i) eng.step();
  // The resident thread cannot hold full warmth next to the streamer.
  EXPECT_LT(eng.machine().store().warmth[0], 0.6);
}

TEST(Smt, ManagedPlacementSpreadsAcrossCores) {
  // A 2-thread gang on an idle 2-core x 2-context machine must land on
  // different cores (symbiosis-aware placement).
  core::ManagedSchedulerConfig mcfg;
  Engine eng(smt_machine(2, 2), quiet_engine(),
             std::make_unique<core::ManagedScheduler>(mcfg));
  eng.add_job(job("pair", 2, 200'000.0, 5.0));
  eng.step();
  const auto& m = eng.machine();
  const int cpu0 = m.cpu_of(0);
  const int cpu1 = m.cpu_of(1);
  ASSERT_GE(cpu0, 0);
  ASSERT_GE(cpu1, 0);
  EXPECT_NE(m.config().core_of(cpu0), m.config().core_of(cpu1));
}

TEST(Smt, DefaultMachineUnaffected) {
  // threads_per_core == 1: no SMT penalty anywhere (regression guard).
  Engine a(MachineConfig{}, quiet_engine(),
           std::make_unique<PinnedScheduler>());
  a.add_job(job("x", 4, 100'000.0, 1.0));
  a.run();
  // All four threads on distinct cores: finish at the uncontended pace.
  EXPECT_NEAR(static_cast<double>(a.machine().job(0).turnaround_us()),
              100'000.0, 3'000.0);
}

}  // namespace
}  // namespace bbsched::sim
