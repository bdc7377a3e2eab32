// Tests for the performance-counter abstraction: the simulator-backed
// source.
#include <gtest/gtest.h>

#include <memory>

#include "perfctr/counters.h"
#include "sim/engine.h"
#include "sim/scheduler.h"

namespace bbsched::perfctr {
namespace {

TEST(SimCounterSource, TracksThreadTransactions) {
  sim::EngineConfig ecfg;
  ecfg.os_noise_interval_us = 0;
  sim::Engine eng(sim::MachineConfig{}, ecfg,
                  std::make_unique<sim::PinnedScheduler>());
  sim::JobSpec spec;
  spec.name = "j";
  spec.nthreads = 2;
  spec.work_us = 100'000.0;
  spec.demand = std::make_shared<sim::SteadyDemand>(3.0);
  spec.cache.cold_demand_boost = 0.0;
  eng.add_job(spec);

  SimCounterSource source(eng.machine());
  EXPECT_DOUBLE_EQ(source.read_transactions(0), 0.0);

  for (int i = 0; i < 50; ++i) eng.step();
  const double mid0 = source.read_transactions(0);
  const double mid1 = source.read_transactions(1);
  EXPECT_GT(mid0, 0.0);
  EXPECT_NEAR(mid0, mid1, mid0 * 0.01);  // symmetric threads

  for (int i = 0; i < 50; ++i) eng.step();
  EXPECT_GT(source.read_transactions(0), mid0);  // monotone
}

}  // namespace
}  // namespace bbsched::perfctr
