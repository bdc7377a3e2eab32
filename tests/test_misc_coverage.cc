// Coverage for smaller surfaces: weighted bus arbitration, the engine's
// tick observer, grant- vs attempt-based manager sampling, and machine
// topology accessors.
#include <gtest/gtest.h>

#include <memory>

#include "core/managed_scheduler.h"
#include "sim/bus_model.h"
#include "sim/engine.h"
#include "sim/scheduler.h"

namespace bbsched {
namespace {

using sim::BusConfig;
using sim::BusModel;
using sim::Engine;
using sim::EngineConfig;
using sim::JobSpec;
using sim::MachineConfig;
using sim::SteadyDemand;

TEST(BusModelWeighted, HigherWeightLosesLessAtSaturation) {
  BusModel m((BusConfig()));
  const std::vector<double> demands{23.6, 23.6};
  const std::vector<double> flat{1.0, 1.0};
  const std::vector<double> skewed{1.0, 1.5};

  const auto even = m.resolve(demands, flat);
  EXPECT_NEAR(even.granted[0], even.granted[1], 1e-9);

  const auto tilted = m.resolve(demands, skewed);
  EXPECT_GT(tilted.granted[1], tilted.granted[0]);
  EXPECT_LT(tilted.slowdown[1], tilted.slowdown[0]);
  // Conservation still holds.
  EXPECT_LE(tilted.total_granted, tilted.effective_capacity + 1e-6);
}

TEST(BusModelWeighted, WeightIrrelevantBelowSaturation) {
  BusModel m((BusConfig()));
  const std::vector<double> demands{2.0, 2.0};
  const std::vector<double> skewed{1.0, 1.5};
  const auto r = m.resolve(demands, skewed);
  // Sub-saturation queueing is mild either way; both keep ~their demand.
  EXPECT_NEAR(r.granted[0], 2.0, 0.05);
  EXPECT_NEAR(r.granted[1], 2.0, 0.05);
}

TEST(Engine, RunCountsEveryTick) {
  EngineConfig ecfg;
  ecfg.os_noise_interval_us = 0;
  Engine eng(MachineConfig{}, ecfg, std::make_unique<sim::PinnedScheduler>());
  JobSpec spec;
  spec.name = "j";
  spec.nthreads = 1;
  spec.work_us = 25'000.0;
  spec.demand = std::make_shared<SteadyDemand>(0.1);
  eng.add_job(spec);

  eng.run();
  EXPECT_GE(eng.stats().total_ticks, 25u);
  EXPECT_LE(eng.stats().total_ticks, 30u);
  EXPECT_EQ(eng.now(), eng.stats().total_ticks * ecfg.tick_us);
}

TEST(ManagedSampling, SaturatedEstimateTracksAttemptedDemand) {
  // The manager samples attempted transactions, so a job demanding 12
  // trans/µs reads about 12 even though the saturated bus grants less.
  EngineConfig ecfg;
  ecfg.os_noise_interval_us = 0;
  Engine eng(MachineConfig{}, ecfg,
             std::make_unique<core::ManagedScheduler>(
                 core::ManagedSchedulerConfig{}));
  JobSpec hungry;
  hungry.name = "hungry";
  hungry.nthreads = 4;
  hungry.work_us = 2.0e6;
  hungry.demand = std::make_shared<SteadyDemand>(12.0);
  hungry.cache.cold_demand_boost = 0.0;
  eng.add_job(hungry);
  eng.run_until(sim::ms(900));  // a few quanta
  auto& sched = dynamic_cast<core::ManagedScheduler&>(eng.scheduler());
  EXPECT_NEAR(sched.manager().policy_estimate(0), 12.0, 1.5);
}

TEST(MachineTopology, DefaultSingleContextCores) {
  MachineConfig m;
  EXPECT_EQ(m.num_cores(), 4);
  for (int c = 0; c < 4; ++c) EXPECT_EQ(m.core_of(c), c);
}

TEST(Fitness, ScaleConstantIsPaperValue) {
  EXPECT_DOUBLE_EQ(core::kFitnessScale, 1000.0);
}

}  // namespace
}  // namespace bbsched
