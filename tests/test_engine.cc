// Engine tests: progress accounting, barrier coupling (spin-then-block),
// cache warmth dynamics, OS noise, completion and turnaround bookkeeping.
#include <gtest/gtest.h>

#include <memory>

#include "obs/tracer.h"
#include "sim/engine.h"
#include "sim/scheduler.h"

namespace bbsched::sim {
namespace {

EngineConfig quiet_engine() {
  EngineConfig e;
  e.os_noise_interval_us = 0;  // most tests want deterministic execution
  return e;
}

JobSpec simple_job(const std::string& name, int nthreads, double work_us,
                   double rate, double barrier_us = 0.0) {
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

TEST(Engine, SingleThreadNoContentionFinishesOnTime) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  const int job = eng.add_job(simple_job("j", 1, 100'000.0, 0.1));
  eng.run();
  ASSERT_TRUE(eng.machine().job(job).completed);
  // Rate 0.1 trans/µs is negligible: turnaround within ~2% of the work.
  EXPECT_NEAR(static_cast<double>(eng.machine().job(job).turnaround_us()),
              100'000.0, 2'000.0);
}

TEST(Engine, MemoryBoundThreadSlowedBySelfQueueing) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  const int job = eng.add_job(simple_job("hungry", 1, 100'000.0, 20.0));
  eng.run();
  const double t =
      static_cast<double>(eng.machine().job(job).turnaround_us());
  EXPECT_GT(t, 102'000.0);  // sub-saturation queueing is visible...
  EXPECT_LT(t, 125'000.0);  // ...but mild
}

TEST(Engine, TurnaroundScalesWithSaturation) {
  // Four saturating streams take noticeably longer than one.
  auto run_n = [&](int n) {
    Engine eng(MachineConfig{}, quiet_engine(),
               std::make_unique<PinnedScheduler>());
    int job0 = -1;
    for (int i = 0; i < n; ++i) {
      const int j = eng.add_job(simple_job("s", 1, 50'000.0, 23.6));
      if (i == 0) job0 = j;
    }
    eng.run();
    return static_cast<double>(eng.machine().job(job0).turnaround_us());
  };
  const double t1 = run_n(1);
  const double t4 = run_n(4);
  EXPECT_GT(t4, 1.5 * t1);
}

TEST(Engine, BusTransactionsAccumulateToDemand) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  const int job = eng.add_job(simple_job("j", 1, 200'000.0, 2.0));
  eng.run();
  const auto& machine = eng.machine();
  const double tx = machine.job_bus_transactions(machine.job(job));
  // 2 trans/µs over ~200 ms of work: ~400k transactions (light queueing
  // stretches the run slightly, so allow a few percent).
  EXPECT_NEAR(tx, 400'000.0, 20'000.0);
  // Attempts >= grants always.
  EXPECT_GE(machine.job_bus_attempts(machine.job(job)), tx - 1e-6);
}

TEST(Engine, AttemptsExceedGrantsUnderSaturation) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  const int a = eng.add_job(simple_job("a", 1, 50'000.0, 23.6));
  eng.add_job(simple_job("b", 1, JobSpec::kInfiniteWork, 23.6));
  eng.add_job(simple_job("c", 1, JobSpec::kInfiniteWork, 23.6));
  eng.run();
  const auto& m = eng.machine();
  EXPECT_GT(m.job_bus_attempts(m.job(a)),
            1.2 * m.job_bus_transactions(m.job(a)));
}

TEST(Engine, BarrierCoupledSiblingsStayWithinOneInterval) {
  EngineConfig ecfg = quiet_engine();
  Engine eng(MachineConfig{}, ecfg, std::make_unique<PinnedScheduler>());
  const int job = eng.add_job(simple_job("par", 2, 150'000.0, 1.0, 2'000.0));
  // Run partially and check skew repeatedly.
  for (int step = 0; step < 100; ++step) {
    eng.step();
    const auto& j = eng.machine().job(job);
    const auto& progress = eng.machine().store().progress_us;
    const double p0 = progress[static_cast<std::size_t>(j.thread_ids[0])];
    const double p1 = progress[static_cast<std::size_t>(j.thread_ids[1])];
    EXPECT_LE(std::abs(p0 - p1), 2'000.0 + 1e-6) << "step " << step;
  }
}

TEST(Engine, DescheduledSiblingStallsPartnerAtBarrier) {
  // Place only thread 0 of a coupled pair: it may advance at most one
  // barrier interval past its (never-running) sibling, then spins and
  // finally blocks.
  class OnlyThreadZero final : public Scheduler {
   public:
    void tick(Machine& m, SimTime, trace::ScheduleTrace&) override {
      if (m.cpus()[0].thread == Cpu::kIdle &&
          m.store().state[0] == ThreadState::kReady) {
        m.place(0, 0);
      }
    }
    const char* name() const override { return "only-0"; }
  };

  EngineConfig ecfg = quiet_engine();
  ecfg.spin_grace_us = 10 * kUsPerMs;
  Engine eng(MachineConfig{}, ecfg, std::make_unique<OnlyThreadZero>());
  const int job = eng.add_job(simple_job("par", 2, 100'000.0, 1.0, 2'000.0));
  for (int i = 0; i < 100; ++i) eng.step();  // 100 ms

  const auto& s = eng.machine().store();
  const auto t0 = static_cast<std::size_t>(
      eng.machine().job(job).thread_ids[0]);
  EXPECT_LE(s.progress_us[t0], 2'000.0 + 1e-6);
  EXPECT_GT(s.spin_us[t0], 0.0);
  // After the spin grace the thread yielded the processor.
  EXPECT_EQ(s.state[t0], ThreadState::kBarrierWait);
  EXPECT_EQ(eng.machine().cpus()[0].thread, Cpu::kIdle);
}

TEST(Engine, UncoupledJobNeverSpins) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  const int job = eng.add_job(simple_job("free", 2, 100'000.0, 1.0, 0.0));
  eng.run();
  const auto& spin_us = eng.machine().store().spin_us;
  for (int tid : eng.machine().job(job).thread_ids) {
    EXPECT_DOUBLE_EQ(spin_us[static_cast<std::size_t>(tid)], 0.0);
  }
}

TEST(Engine, WarmthGrowsWhileRunning) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  eng.add_job(simple_job("j", 1, 500'000.0, 1.0));
  for (int i = 0; i < 10; ++i) eng.step();
  const double w10 = eng.machine().store().warmth[0];
  for (int i = 0; i < 30; ++i) eng.step();
  const double w40 = eng.machine().store().warmth[0];
  EXPECT_GT(w10, 0.0);
  EXPECT_GT(w40, w10);
  EXPECT_LE(w40, 1.0);
}

TEST(Engine, MigrationResetsWarmth) {
  class Flipper final : public Scheduler {
   public:
    void tick(Machine& m, SimTime now, trace::ScheduleTrace&) override {
      const int cpu = (now / (50 * kUsPerMs)) % 2 == 0 ? 0 : 1;
      if (m.cpu_of(0) != cpu) {
        if (m.cpu_of(0) != -1) m.vacate(m.cpu_of(0));
        m.place(cpu, 0);
      }
    }
    const char* name() const override { return "flipper"; }
  };
  Engine eng(MachineConfig{}, quiet_engine(), std::make_unique<Flipper>());
  eng.add_job(simple_job("mover", 1, 400'000.0, 1.0));
  for (int i = 0; i < 60; ++i) eng.step();  // past the first flip
  const auto& s = eng.machine().store();
  EXPECT_GE(s.migrations[0], 1u);
  EXPECT_LT(s.warmth[0], 0.5);  // reset at the 50 ms flip, partially rebuilt
}

TEST(Engine, ColdThreadIssuesExtraDemand) {
  // With cold_demand_boost, attempts early in the run (cold) exceed the
  // steady-state demand rate.
  MachineConfig mcfg;
  EngineConfig ecfg = quiet_engine();
  Engine eng(mcfg, ecfg, std::make_unique<PinnedScheduler>());
  JobSpec spec = simple_job("cold", 1, 300'000.0, 2.0);
  spec.cache.cold_demand_boost = 1.0;
  eng.add_job(spec);
  for (int i = 0; i < 5; ++i) eng.step();
  const double early = eng.machine().store().bus_attempts[0] / 5'000.0;
  EXPECT_GT(early, 2.5);  // boosted well above the base 2.0
}

TEST(Engine, MigrationSensitivitySlowsColdThread) {
  auto run_with_sens = [&](double sens) {
    Engine eng(MachineConfig{}, quiet_engine(),
               std::make_unique<PinnedScheduler>());
    JobSpec spec = simple_job("j", 1, 200'000.0, 0.5);
    spec.cache.migration_sensitivity = sens;
    const int job = eng.add_job(spec);
    eng.run();
    return static_cast<double>(eng.machine().job(job).turnaround_us());
  };
  EXPECT_GT(run_with_sens(0.4), run_with_sens(0.0));
}

TEST(Engine, OsNoiseStealsTime) {
  EngineConfig ecfg = quiet_engine();
  ecfg.os_noise_interval_us = 100 * kUsPerMs;
  ecfg.os_noise_min_us = 10 * kUsPerMs;
  ecfg.os_noise_max_us = 20 * kUsPerMs;
  Engine eng(MachineConfig{}, ecfg, std::make_unique<PinnedScheduler>());
  const int job = eng.add_job(simple_job("j", 1, 500'000.0, 0.1));
  eng.run();
  const double stolen = eng.machine().store().stolen_us[0];
  EXPECT_GT(stolen, 0.0);
  EXPECT_GT(static_cast<double>(eng.machine().job(job).turnaround_us()),
            500'000.0 + stolen * 0.5);
}

TEST(Engine, NoiseDisabledMeansNoStolenTime) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  eng.add_job(simple_job("j", 1, 100'000.0, 0.1));
  eng.run();
  EXPECT_DOUBLE_EQ(eng.machine().store().stolen_us[0], 0.0);
}

TEST(Engine, InfiniteJobNeverCompletes) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  const int fin = eng.add_job(simple_job("fin", 1, 50'000.0, 0.1));
  const int inf =
      eng.add_job(simple_job("inf", 1, JobSpec::kInfiniteWork, 0.1));
  eng.run();
  EXPECT_TRUE(eng.machine().job(fin).completed);
  EXPECT_FALSE(eng.machine().job(inf).completed);
}

TEST(Engine, RunStopsAtMaxTime) {
  EngineConfig ecfg = quiet_engine();
  ecfg.max_time_us = 50 * kUsPerMs;
  Engine eng(MachineConfig{}, ecfg, std::make_unique<PinnedScheduler>());
  eng.add_job(simple_job("long", 1, 10.0e6, 0.1));
  const SimTime end = eng.run();
  EXPECT_EQ(end, 50 * kUsPerMs);
  EXPECT_FALSE(eng.machine().job(0).completed);
}

TEST(Engine, CompletionEventRecorded) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  obs::Tracer tracer({.enabled = true});
  eng.set_tracer(&tracer);
  eng.add_job(simple_job("j", 2, 30'000.0, 0.1));
  eng.run();
  int done = 0;
  tracer.events().for_each([&](const obs::TraceEvent& e) {
    if (e.type == obs::EventType::kJobStateChange &&
        e.job.to == obs::JobState::kDone) {
      ++done;
    }
  });
  EXPECT_EQ(done, 1);
}

TEST(Engine, TraceShowsNoOversubscription) {
  EngineConfig ecfg = quiet_engine();
  ecfg.trace = true;
  Engine eng(MachineConfig{}, ecfg, std::make_unique<PinnedScheduler>());
  eng.add_job(simple_job("a", 2, 40'000.0, 1.0, 2'000.0));
  eng.add_job(simple_job("b", 2, 40'000.0, 5.0));
  eng.run();
  EXPECT_TRUE(eng.trace().no_oversubscription());
}

TEST(Engine, WallTimeConservation) {
  // run + spin + stolen + waits partition each thread's lifetime.
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  const int job = eng.add_job(simple_job("a", 2, 60'000.0, 3.0, 2'000.0));
  eng.run();
  const auto& m = eng.machine();
  const auto& j = m.job(job);
  const auto& s = m.store();
  for (int tid : j.thread_ids) {
    const auto i = static_cast<std::size_t>(tid);
    const double total = s.run_us[i] + s.spin_us[i] + s.stolen_us[i] +
                         s.ready_wait_us[i] + s.barrier_wait_us[i] +
                         s.mgr_blocked_us[i];
    // Thread existed from 0 until job completion (threads of a coupled job
    // finish within one barrier interval of each other).
    EXPECT_NEAR(total, static_cast<double>(j.completion_us),
                j.spec.barrier_interval_us +
                    static_cast<double>(eng.config().tick_us) * 2);
  }
}

}  // namespace
}  // namespace bbsched::sim
