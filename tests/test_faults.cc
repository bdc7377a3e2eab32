// Tests for the seedable counter-fault injector (src/faults): replay
// determinism of the draw stream and approximate respect of the configured
// probabilities (docs/ROBUSTNESS.md). The effect of each fault class at the
// simulator's sampling site is tested in test_managed_scheduler.cc.
#include <gtest/gtest.h>

#include <vector>

#include "faults/fault_injector.h"

namespace bbsched::faults {
namespace {

FaultConfig mixed_cfg(std::uint64_t seed) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = seed;
  cfg.drop_prob = 0.10;
  cfg.read_fail_prob = 0.05;
  cfg.stale_prob = 0.05;
  cfg.noise_prob = 0.10;
  cfg.wrap_prob = 0.02;
  return cfg;
}

TEST(FaultInjector, DisabledIsAlwaysNone) {
  FaultConfig cfg = mixed_cfg(7);
  cfg.enabled = false;
  FaultInjector inj(cfg);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(inj.next_counter_read().kind, CounterFault::kNone);
  }
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultInjector a(mixed_cfg(42));
  FaultInjector b(mixed_cfg(42));
  for (int i = 0; i < 5000; ++i) {
    const CounterReadFault fa = a.next_counter_read();
    const CounterReadFault fb = b.next_counter_read();
    ASSERT_EQ(fa.kind, fb.kind) << "draw " << i;
    ASSERT_DOUBLE_EQ(fa.noise_factor, fb.noise_factor) << "draw " << i;
  }
}

TEST(FaultInjector, ResetReplaysTheSchedule) {
  FaultInjector inj(mixed_cfg(99));
  std::vector<CounterFault> first;
  for (int i = 0; i < 256; ++i) first.push_back(inj.next_counter_read().kind);
  inj.reset();
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(inj.next_counter_read().kind, first[static_cast<std::size_t>(i)])
        << "draw " << i;
  }
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultInjector a(mixed_cfg(1));
  FaultInjector b(mixed_cfg(2));
  int diffs = 0;
  for (int i = 0; i < 2000; ++i) {
    if (a.next_counter_read().kind != b.next_counter_read().kind) ++diffs;
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjector, RatesApproximateProbabilities) {
  FaultInjector inj(mixed_cfg(1234));
  const int n = 100'000;
  int counts[6] = {};
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<int>(inj.next_counter_read().kind)];
  }
  const auto rate = [&](CounterFault k) {
    return static_cast<double>(counts[static_cast<int>(k)]) / n;
  };
  EXPECT_NEAR(rate(CounterFault::kDrop), 0.10, 0.01);
  EXPECT_NEAR(rate(CounterFault::kReadFail), 0.05, 0.01);
  EXPECT_NEAR(rate(CounterFault::kStale), 0.05, 0.01);
  EXPECT_NEAR(rate(CounterFault::kNoise), 0.10, 0.01);
  EXPECT_NEAR(rate(CounterFault::kWrap), 0.02, 0.01);
  EXPECT_NEAR(rate(CounterFault::kNone), 0.68, 0.02);
}

TEST(FaultInjector, NoiseFactorIsBounded) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.noise_prob = 1.0;
  cfg.noise_amplitude = 0.25;
  FaultInjector inj(cfg);
  for (int i = 0; i < 1000; ++i) {
    const CounterReadFault f = inj.next_counter_read();
    ASSERT_EQ(f.kind, CounterFault::kNoise);
    ASSERT_GE(f.noise_factor, 0.75);
    ASSERT_LE(f.noise_factor, 1.25);
  }
}

TEST(FaultKindNames, AllNamed) {
  EXPECT_STREQ(to_string(CounterFault::kNone), "none");
  EXPECT_STREQ(to_string(CounterFault::kDrop), "drop");
  EXPECT_STREQ(to_string(CounterFault::kReadFail), "read-fail");
  EXPECT_STREQ(to_string(CounterFault::kStale), "stale");
  EXPECT_STREQ(to_string(CounterFault::kNoise), "noise");
  EXPECT_STREQ(to_string(CounterFault::kWrap), "wrap");
}

}  // namespace
}  // namespace bbsched::faults
