// Unit and property tests for the analytic bus contention model — the
// invariants DESIGN.md §3 promises plus calibration checks against the
// paper's §3 measurements.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
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

/// Asserts that `got` carries the bits of `want`.
void expect_same_bits(const BusResolution& got, const BusResolution& want,
                      int trial) {
  ASSERT_EQ(got.saturated, want.saturated) << "trial " << trial;
  EXPECT_EQ(bits(got.stretch), bits(want.stretch)) << "trial " << trial;
  ASSERT_EQ(got.slowdown.size(), want.slowdown.size()) << "trial " << trial;
  for (std::size_t i = 0; i < want.slowdown.size(); ++i) {
    EXPECT_EQ(bits(got.slowdown[i]), bits(want.slowdown[i]))
        << "trial " << trial << " agent " << i;
    EXPECT_EQ(bits(got.granted[i]), bits(want.granted[i]))
        << "trial " << trial << " agent " << i;
  }
}

// resolve() skips every midpoint its certified bracket decides (header
// comment of bus_model.h); the reference evaluates them all.
TEST(BusModelResolve, BisectionEarlyExitMatchesFixedIterations) {
  // alpha_exponent 0.72 (the default), 1.0 (linear fast path) and 2.0,
  // plus a stretch cap low enough that heavy vectors end at x = hi.
  std::vector<BusModel> models;
  for (double p : {0.72, 1.0, 2.0}) {
    BusConfig cfg;
    cfg.alpha_exponent = p;
    models.emplace_back(cfg);
  }
  BusConfig capped;
  capped.max_stretch = 1.6;
  models.emplace_back(capped);

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
  int at_cap = 0;
  int equal_coefficients = 0;
  std::vector<int> evals4;  // saturated 4-agent vectors, uncapped configs
  for (int trial = 0; trial < 8000; ++trial) {
    const std::size_t model = static_cast<std::size_t>(trial) % models.size();
    const BusModel& m = models[model];
    const double threshold = m.config().demanding_threshold_tps;
    // Half the vectors have the engine's 4 agents, the rest 1 to 32.
    std::vector<double> demands(trial % 2 == 0 ? 4 : 1 + next() % 32);
    for (auto& d : demands) {
      switch (next() % 8) {
        case 0:
          d = 0.0;
          break;
        case 1:  // one ulp below, at, or one ulp above the threshold
          d = threshold;
          if (next() % 3 == 0) d = std::nextafter(d, 0.0);
          if (next() % 3 == 0) d = std::nextafter(d, 2.0 * threshold);
          break;
        default:
          d = uniform(0.0, 24.0);
      }
    }
    std::vector<double> weights;
    switch (trial % 3) {
      case 1:
        weights.resize(demands.size());
        for (auto& w : weights) w = uniform(1.0, 4.0);
        break;
      case 2:  // log-uniform in [1, 1000]
        weights.resize(demands.size());
        for (auto& w : weights) w = std::exp(uniform(0.0, std::log(1000.0)));
        break;
      default:
        break;
    }
    // Every eighth vector has equal coefficients: the Jensen point is then
    // the root itself.
    const bool equal = trial % 8 == 1;
    if (equal) {
      std::fill(demands.begin(), demands.end(), uniform(4.0, 24.0));
      std::fill(weights.begin(), weights.end(), uniform(1.0, 4.0));
    }

    const BusResolution want = resolve_fixed_64(m, demands, weights);
    const BusResolution& got = m.resolve(demands, weights, ws);
    expect_same_bits(got, want, trial);
    if (!want.saturated) continue;
    ++saturated;
    if (want.stretch == m.config().max_stretch) ++at_cap;
    if (equal) ++equal_coefficients;
    if (demands.size() == 4 && model < 3) {
      evals4.push_back(ws.granted_sum_evals());
    }
  }
  EXPECT_GT(saturated, 4000) << "too few saturated vectors to bisect";
  EXPECT_GT(at_cap, 100) << "the x = hi branch went untested";
  EXPECT_GT(equal_coefficients, 500);
  // The fast path engages: the plain bisection needs ~58 evaluations.
  ASSERT_GT(evals4.size(), 1000u);
  std::nth_element(evals4.begin(), evals4.begin() + evals4.size() / 2,
                   evals4.end());
  EXPECT_LE(evals4[evals4.size() / 2], 20);
}

// The workspace keeps each slot's alpha while the slot's demand repeats.
// The model's alpha parameters are part of that key: one workspace
// alternating between models that share demand vectors must give the bits
// of a fresh workspace on every call.
TEST(BusModelResolve, WorkspaceAlphaReuseFollowsTheModel) {
  BusConfig steep;
  steep.alpha_exponent = 2.0;
  BusConfig low_peak;
  low_peak.per_thread_peak_tps = 11.8;
  const std::vector<BusModel> models{BusModel(default_bus()), BusModel(steep),
                                     BusModel(low_peak)};
  BusWorkspace shared;
  std::vector<double> demands{9.3, 9.3, 23.6, 0.0, 4.1};
  const std::vector<double> weights(8, 1.5);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  int saturated = 0;
  for (int trial = 0; trial < 600; ++trial) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    // Every third call moves one slot or the agent count; the others
    // repeat the vector under the next model.
    if (trial % 3 == 0) {
      const std::size_t slot = (state >> 33) % demands.size();
      demands[slot] = static_cast<double>((state >> 40) % 2400) / 100.0;
      if ((state >> 20) % 4 == 0) {
        demands.resize(3 + (state >> 50) % 6, 12.5);
      }
    }
    const BusModel& m = models[static_cast<std::size_t>(trial) % 3];
    const std::span<const double> w(weights.data(), demands.size());
    BusWorkspace fresh;
    const BusResolution& want = m.resolve(demands, w, fresh);
    const BusResolution& got = m.resolve(demands, w, shared);
    expect_same_bits(got, want, trial);
    ASSERT_EQ(shared.alphas.size(), fresh.alphas.size());
    for (std::size_t i = 0; i < demands.size(); ++i) {
      EXPECT_EQ(bits(shared.alphas[i]), bits(fresh.alphas[i]))
          << "trial " << trial << " agent " << i;
    }
    if (want.saturated) ++saturated;
  }
  EXPECT_GT(saturated, 100);
}

TEST(BusModelResolve, CertifiedBracketOnFig2MixedVector) {
  // Fig. 2's "2 Apps + 4 BBMA" per-CPU vector: SP threads next to
  // weighted streamers, the engine's common saturated shape.
  const BusModel m(default_bus());
  BusWorkspace ws;
  const std::vector<double> demands{9.3, 9.3, 23.6, 23.6};
  const std::vector<double> weights{1.0, 1.0, 1.5, 1.5};
  const BusResolution want = resolve_fixed_64(m, demands, weights);
  expect_same_bits(m.resolve(demands, weights, ws), want, 0);
  EXPECT_TRUE(want.saturated);
  EXPECT_LE(ws.granted_sum_evals(), 20);
}

TEST(BusModelResolve, OutOfRangeInputsTakeThePlainBisection) {
  BusWorkspace ws;
  // A negative exponent makes alpha > 1 for demands below the peak; the
  // error bound no longer applies, so every midpoint is evaluated.
  BusConfig steep;
  steep.alpha_exponent = -0.5;
  const BusModel m(steep);
  const std::vector<double> demands{9.3, 12.0, 23.6, 23.6};
  const BusResolution want = resolve_fixed_64(m, demands, {});
  expect_same_bits(m.resolve(demands, {}, ws), want, 0);
  EXPECT_TRUE(want.saturated);
  EXPECT_GT(ws.granted_sum_evals(), 40);

  // An infinite demand: no Newton step, and the stretch cap is hit.
  const BusModel plain(default_bus());
  const std::vector<double> inf_demand{9.3, HUGE_VAL};
  const BusResolution want_inf = resolve_fixed_64(plain, inf_demand, {});
  expect_same_bits(plain.resolve(inf_demand, {}, ws), want_inf, 1);
  EXPECT_EQ(ws.granted_sum_evals(), 2);

  // The counter resets on every call, also when nothing is demanded.
  const std::vector<double> idle{0.0, 0.0};
  (void)plain.resolve(idle, {}, ws);
  EXPECT_EQ(ws.granted_sum_evals(), 0);
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
