// Unit and property tests for the analytic bus contention model — the
// invariants DESIGN.md §3 promises plus calibration checks against the
// paper's §3 measurements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/bus_model.h"

namespace bbsched::sim {
namespace {

BusConfig default_bus() { return BusConfig{}; }

TEST(BusModelAlpha, ZeroDemandZeroAlpha) {
  BusModel m(default_bus());
  EXPECT_DOUBLE_EQ(m.alpha(0.0), 0.0);
}

TEST(BusModelAlpha, PeakDemandFullyMemoryBound) {
  BusModel m(default_bus());
  EXPECT_DOUBLE_EQ(m.alpha(23.6), 1.0);
  EXPECT_DOUBLE_EQ(m.alpha(50.0), 1.0);  // clamped
}

TEST(BusModelAlpha, MonotoneInDemand) {
  BusModel m(default_bus());
  double prev = 0.0;
  for (double d = 0.5; d <= 24.0; d += 0.5) {
    const double a = m.alpha(d);
    EXPECT_GE(a, prev);
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
    prev = a;
  }
}

TEST(BusModelCapacity, ArbitrationLossAndFloor) {
  BusModel m(default_bus());
  const double c1 = m.effective_capacity(1);
  const double c4 = m.effective_capacity(4);
  const double c100 = m.effective_capacity(100);
  EXPECT_DOUBLE_EQ(c1, default_bus().capacity_tps);
  EXPECT_LT(c4, c1);
  // Floor: efficiency never drops below the configured fraction.
  EXPECT_GE(c100,
            default_bus().capacity_tps * default_bus().arbitration_floor - 1e-9);
}

TEST(BusModelResolve, NoDemandNoStretch) {
  BusModel m(default_bus());
  const auto r = m.resolve(std::vector<double>{0.0, 0.0});
  EXPECT_DOUBLE_EQ(r.stretch, 1.0);
  EXPECT_DOUBLE_EQ(r.total_granted, 0.0);
  EXPECT_FALSE(r.saturated);
}

TEST(BusModelResolve, LightLoadNearUnitySlowdown) {
  BusModel m(default_bus());
  // One Radiosity-class thread: 0.24 trans/µs.
  const auto r = m.resolve(std::vector<double>{0.24});
  ASSERT_EQ(r.slowdown.size(), 1u);
  EXPECT_LT(r.slowdown[0], 1.01);
  EXPECT_NEAR(r.granted[0], 0.24, 0.01);
  EXPECT_FALSE(r.saturated);
}

TEST(BusModelResolve, GrantsNeverExceedDemands) {
  BusModel m(default_bus());
  const std::vector<double> demands{23.6, 23.6, 10.0, 2.0, 0.5, 0.0};
  const auto r = m.resolve(demands);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_LE(r.granted[i], demands[i] + 1e-9) << "thread " << i;
  }
}

TEST(BusModelResolve, AggregateNeverExceedsEffectiveCapacity) {
  BusModel m(default_bus());
  for (double d : {5.0, 10.0, 20.0, 23.6}) {
    const std::vector<double> demands(4, d);
    const auto r = m.resolve(demands);
    EXPECT_LE(r.total_granted, r.effective_capacity + 1e-6) << "d=" << d;
  }
}

TEST(BusModelResolve, SaturationConservation) {
  // When saturated, the bus hands out exactly its effective capacity.
  BusModel m(default_bus());
  const std::vector<double> demands{23.6, 23.6, 23.6, 23.6};
  const auto r = m.resolve(demands);
  EXPECT_TRUE(r.saturated);
  EXPECT_NEAR(r.total_granted, r.effective_capacity, 1e-6);
}

TEST(BusModelResolve, SlowdownMonotoneInTotalLoad) {
  BusModel m(default_bus());
  double prev_slowdown = 0.0;
  for (double bg = 0.0; bg <= 23.6; bg += 2.95) {
    const std::vector<double> demands{10.0, bg, bg};
    const auto r = m.resolve(demands);
    EXPECT_GE(r.slowdown[0] + 1e-9, prev_slowdown) << "bg=" << bg;
    prev_slowdown = r.slowdown[0];
  }
}

TEST(BusModelResolve, LowAlphaThreadsNearlyImmune) {
  // Paper Fig. 1B: on a saturated bus, moderate-bandwidth codes suffer far
  // less than memory-intensive ones.
  BusModel m(default_bus());
  const std::vector<double> demands{0.24, 23.6, 23.6};  // Radiosity + 2 BBMA
  const auto r = m.resolve(demands);
  EXPECT_LT(r.slowdown[0], 1.15);  // the low-alpha thread barely notices
  EXPECT_GT(r.slowdown[1], 1.5);   // the streamers absorb the saturation
}

TEST(BusModelResolve, SameDemandSameTreatment) {
  BusModel m(default_bus());
  const std::vector<double> demands{12.0, 12.0, 12.0, 12.0};
  const auto r = m.resolve(demands);
  for (std::size_t i = 1; i < demands.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.slowdown[i], r.slowdown[0]);
    EXPECT_DOUBLE_EQ(r.granted[i], r.granted[0]);
  }
}

TEST(BusModelResolve, SelfConsistentGrants) {
  // granted_i must equal d_i / slowdown_i by construction.
  BusModel m(default_bus());
  const std::vector<double> demands{18.6 / 2, 18.6 / 2, 23.6, 23.6};
  const auto r = m.resolve(demands);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_NEAR(r.granted[i] * r.slowdown[i], demands[i], 1e-6);
  }
}

// ---- the bisection's early exit changes no bit ----

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

/// Reference copy of BusModel::resolve with the bisection fixed at 64
/// iterations, as it ran before the early exit.
BusResolution resolve_fixed_64(const BusModel& m,
                               const std::vector<double>& demands,
                               const std::vector<double>& weights) {
  const BusConfig& cfg = m.config();
  const std::size_t n = demands.size();
  BusResolution out;
  out.slowdown.assign(n, 1.0);
  out.granted.assign(n, 0.0);
  std::vector<double> alphas(n);
  std::vector<double> inv_w(n);
  double total_demand = 0.0;
  int demanding = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total_demand += demands[i];
    alphas[i] = m.alpha(demands[i]);
    inv_w[i] = weights.empty() ? 1.0 : 1.0 / weights[i];
    if (demands[i] > cfg.demanding_threshold_tps) ++demanding;
  }
  out.effective_capacity = m.effective_capacity(demanding);
  if (total_demand <= 0.0) return out;
  out.offered_rho = total_demand / out.effective_capacity;
  auto granted_sum = [&](double x) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += demands[i] / (1.0 + alphas[i] * (x - 1.0) * inv_w[i]);
    }
    return sum;
  };
  const double rho = std::min(out.offered_rho, 1.0);
  const double x_light = 1.0 + cfg.queueing_kappa * rho * rho;
  double x = x_light;
  if (granted_sum(x_light) > out.effective_capacity) {
    out.saturated = true;
    double lo = x_light;
    double hi = cfg.max_stretch;
    if (granted_sum(hi) > out.effective_capacity) {
      x = hi;
    } else {
      for (int iter = 0; iter < 64; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (granted_sum(mid) > out.effective_capacity) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      x = 0.5 * (lo + hi);
    }
  }
  out.stretch = x;
  for (std::size_t i = 0; i < n; ++i) {
    out.slowdown[i] = 1.0 + alphas[i] * (x - 1.0) * inv_w[i];
    out.granted[i] = demands[i] / out.slowdown[i];
    out.total_granted += out.granted[i];
  }
  if (out.total_granted > out.effective_capacity) {
    const double scale = out.effective_capacity / out.total_granted;
    out.total_granted = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      out.granted[i] *= scale;
      if (out.granted[i] > 0.0) out.slowdown[i] = demands[i] / out.granted[i];
      out.total_granted += out.granted[i];
    }
  }
  return out;
}

TEST(BusModelResolve, BisectionEarlyExitMatchesFixedIterations) {
  const BusModel m(default_bus());
  BusWorkspace ws;
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  };
  int saturated = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<double> demands(1 + next() % 8);
    for (auto& d : demands) d = uniform(0.0, 24.0);
    std::vector<double> weights;
    if (trial % 2 == 1) {  // every other vector with arbitration weights
      weights.resize(demands.size());
      for (auto& w : weights) w = uniform(1.0, 4.0);
    }
    const BusResolution want = resolve_fixed_64(m, demands, weights);
    const BusResolution& got = m.resolve(demands, weights, ws);
    if (want.saturated) ++saturated;
    ASSERT_EQ(got.saturated, want.saturated) << "trial " << trial;
    EXPECT_EQ(bits(got.stretch), bits(want.stretch)) << "trial " << trial;
    ASSERT_EQ(got.slowdown.size(), demands.size());
    for (std::size_t i = 0; i < demands.size(); ++i) {
      EXPECT_EQ(bits(got.slowdown[i]), bits(want.slowdown[i]))
          << "trial " << trial << " agent " << i;
      EXPECT_EQ(bits(got.granted[i]), bits(want.granted[i]))
          << "trial " << trial << " agent " << i;
    }
  }
  EXPECT_GT(saturated, 1000) << "too few saturated vectors to bisect";
}

// ---- calibration against the paper's §3 numbers ----

TEST(BusModelCalibration, MemoryIntensiveAppWithTwoBbma) {
  // "Memory-intensive applications suffer 2 to almost 3-fold slowdowns" on
  // a bus saturated by two BBMA instances. SP per-thread demand ~9.3.
  BusModel m(default_bus());
  const std::vector<double> demands{9.3, 9.3, 23.6, 23.6};
  const auto r = m.resolve(demands);
  EXPECT_GT(r.slowdown[0], 1.7);
  EXPECT_LT(r.slowdown[0], 3.0);
}

TEST(BusModelCalibration, ModerateAppWithTwoBbma) {
  // "Even applications with moderate memory bandwidth requirements have
  // slowdowns ranging between 2% and 55% (18% in average)."
  BusModel m(default_bus());
  const std::vector<double> demands{1.8, 1.8, 23.6, 23.6};  // Barnes-class
  const auto r = m.resolve(demands);
  EXPECT_GT(r.slowdown[0], 1.02);
  EXPECT_LT(r.slowdown[0], 1.55);
}

TEST(BusModelCalibration, TwoHighBandwidthInstances) {
  // Fig. 1B dark-gray bars: the four high-bandwidth codes slow down 41-61%
  // when two instances co-run. CG-class: 11.65 per thread, 4 threads.
  BusModel m(default_bus());
  const std::vector<double> demands{11.65, 11.65, 11.65, 11.65};
  const auto r = m.resolve(demands);
  EXPECT_GT(r.slowdown[0], 1.35);
  EXPECT_LT(r.slowdown[0], 1.75);
}

TEST(BusModelCalibration, WorkloadRateNearSaturationWithBbma) {
  // "the bus bandwidth consumed from the workload is very close to the
  // limit of saturation, averaging 28.34 transactions/µs."
  BusModel m(default_bus());
  const std::vector<double> demands{9.3, 9.3, 23.6, 23.6};
  const auto r = m.resolve(demands);
  EXPECT_GT(r.total_granted, 26.0);
  EXPECT_LE(r.total_granted, 29.5);
}

// Property sweep: random demand vectors keep all invariants.
class BusModelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BusModelPropertyTest, InvariantsHoldForRandomDemands) {
  const int seed = GetParam();
  std::uint64_t state = static_cast<std::uint64_t>(seed) * 2654435761u + 1;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  BusModel m(default_bus());

  std::vector<double> demands(1 + next() % 8);
  for (auto& d : demands) {
    d = static_cast<double>(next() % 2400) / 100.0;  // 0 .. 24 trans/µs
  }
  const auto r = m.resolve(demands);

  EXPECT_GE(r.stretch, 1.0);
  EXPECT_LE(r.total_granted, r.effective_capacity + 1e-6);
  double sum = 0.0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_GE(r.slowdown[i], 1.0 - 1e-9);
    EXPECT_LE(r.granted[i], demands[i] + 1e-9);
    EXPECT_GE(r.granted[i], 0.0);
    sum += r.granted[i];
  }
  EXPECT_NEAR(sum, r.total_granted, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomDemandSweep, BusModelPropertyTest,
                         ::testing::Range(1, 51));

}  // namespace
}  // namespace bbsched::sim
