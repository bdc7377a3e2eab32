// Tests for the I/O-workload extension: blocking I/O phases, DMA bus
// agents, counter attribution and scheduler interplay.
#include <gtest/gtest.h>

#include <memory>

#include "sim/engine.h"
#include "sim/scheduler.h"
#include "workload/app_profile.h"

namespace bbsched::sim {
namespace {

EngineConfig quiet_engine() {
  EngineConfig e;
  e.os_noise_interval_us = 0;
  return e;
}

JobSpec io_job(const std::string& name, double work_us, double cpu_burst_us,
               double io_burst_us, double dma_tps, double cpu_rate = 0.5) {
  JobSpec spec;
  spec.name = name;
  spec.nthreads = 1;
  spec.work_us = work_us;
  spec.demand = std::make_shared<SteadyDemand>(cpu_rate);
  spec.io.period_progress_us = cpu_burst_us;
  spec.io.burst_us = io_burst_us;
  spec.io.dma_tps = dma_tps;
  spec.cache.cold_demand_boost = 0.0;
  spec.cache.migration_sensitivity = 0.0;
  return spec;
}

TEST(IoJobs, ProfileEnabledDetection) {
  IoProfile off;
  EXPECT_FALSE(off.enabled());
  IoProfile on{4'000.0, 2'000.0, 1.0};
  EXPECT_TRUE(on.enabled());
}

TEST(IoJobs, BlockingStretchesTurnaround) {
  // 50 ms of work in 10 ms compute bursts with 10 ms I/O in between:
  // turnaround ~ work + 4-5 I/O waits.
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  const int j =
      eng.add_job(io_job("io", 50'000.0, 10'000.0, 10'000.0, 0.0));
  eng.run();
  const double t = static_cast<double>(eng.machine().job(j).turnaround_us());
  EXPECT_GT(t, 85'000.0);
  EXPECT_LT(t, 105'000.0);
  EXPECT_NEAR(eng.machine().store().io_wait_us[0], 40'000.0, 12'000.0);
}

TEST(IoJobs, CpuFreedDuringIoWait) {
  // While the I/O job blocks, a second runnable thread gets its processor
  // (on a 1-CPU machine under the oblivious baseline this halves nothing —
  // use pinned with 1 cpu and 2 jobs contending for cpu 0? PinnedScheduler
  // maps thread id % ncpus, so use a tiny machine).
  MachineConfig mcfg;
  mcfg.num_cpus = 1;
  Engine eng(mcfg, quiet_engine(), std::make_unique<PinnedScheduler>());
  eng.add_job(io_job("io", 30'000.0, 5'000.0, 20'000.0, 0.0));
  eng.add_job(io_job("cpu", 60'000.0, JobSpec::kInfiniteWork, 0.0, 0.0));
  eng.run();
  // The pure-CPU job finishes despite sharing one processor, because the
  // I/O job vacates while blocked.
  EXPECT_TRUE(eng.machine().job(1).completed);
  EXPECT_GT(eng.machine().store().run_us[1], 50'000.0);
}

TEST(IoJobs, DmaTrafficCountedOnBus) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  const int j =
      eng.add_job(io_job("dma", 40'000.0, 5'000.0, 5'000.0, 8.0));
  eng.run();
  const auto& machine = eng.machine();
  // CPU demand alone would be ~0.5 * 40k = 20k transactions; the DMA adds
  // ~8 per µs of I/O wait (~35-40 ms of waits).
  const double tx = machine.job_bus_transactions(machine.job(j));
  EXPECT_GT(tx, 150'000.0);
}

TEST(IoJobs, DmaContendsWithCpuTraffic) {
  // A streamer's slowdown grows when an I/O job's DMA shares the bus.
  auto streamer_time = [&](double dma_tps) {
    Engine eng(MachineConfig{}, quiet_engine(),
               std::make_unique<PinnedScheduler>());
    JobSpec stream;
    stream.name = "stream";
    stream.nthreads = 1;
    stream.work_us = 60'000.0;
    stream.demand = std::make_shared<SteadyDemand>(23.6);
    stream.cache.cold_demand_boost = 0.0;
    const int j = eng.add_job(stream);
    eng.add_job(io_job("io", JobSpec::kInfiniteWork, 2'000.0, 10'000.0,
                       dma_tps));
    eng.add_job(io_job("io2", JobSpec::kInfiniteWork, 2'000.0, 10'000.0,
                       dma_tps));
    eng.run();
    return static_cast<double>(eng.machine().job(j).turnaround_us());
  };
  EXPECT_GT(streamer_time(15.0), 1.15 * streamer_time(0.0));
}

TEST(IoJobs, WaitAccountingPartitionsTime) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  const int j =
      eng.add_job(io_job("io", 30'000.0, 6'000.0, 4'000.0, 1.0));
  eng.run();
  const auto& s = eng.machine().store();
  const auto& job = eng.machine().job(j);
  const double total = s.run_us[0] + s.spin_us[0] + s.stolen_us[0] +
                       s.ready_wait_us[0] + s.barrier_wait_us[0] +
                       s.io_wait_us[0] + s.mgr_blocked_us[0];
  EXPECT_NEAR(total, static_cast<double>(job.completion_us), 2'000.0);
  EXPECT_GT(s.io_wait_us[0], 0.0);
}

TEST(IoJobs, ServerJobFactory) {
  const auto spec = workload::make_server_job("db", 2, 1.0e6, 2.0, 4'000.0,
                                              6'000.0, 10.0);
  EXPECT_EQ(spec.nthreads, 2);
  EXPECT_TRUE(spec.io.enabled());
  EXPECT_DOUBLE_EQ(spec.io.dma_tps, 10.0);
  EXPECT_DOUBLE_EQ(spec.barrier_interval_us, 0.0);
  EXPECT_DOUBLE_EQ(spec.demand->rate(0, 0.0), 2.0);
}

TEST(IoJobs, InfinitePeriodMeansNoIo) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<PinnedScheduler>());
  const int j = eng.add_job(
      io_job("never", 50'000.0, JobSpec::kInfiniteWork, 5'000.0, 3.0));
  eng.run();
  EXPECT_DOUBLE_EQ(eng.machine().store().io_wait_us[0], 0.0);
  EXPECT_NEAR(static_cast<double>(eng.machine().job(j).turnaround_us()),
              50'000.0, 2'000.0);
}

}  // namespace
}  // namespace bbsched::sim
