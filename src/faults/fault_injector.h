// Deterministic, seedable fault injection for the measurement-to-decision
// pipeline (docs/ROBUSTNESS.md).
//
// The paper's feedback loop — arena samples → BBW/thread estimate → gang
// election — silently assumes well-behaved clients and perfect counters. A
// real user-level manager must survive counter backends that drop reads,
// return stale values, add noise, or wrap around, and applications that die
// mid-quantum. This header models the *counter* layer of that fault space:
// every read the manager performs may be perturbed by a seeded draw, so an
// identical seed replays an identical fault schedule (the chaos harness in
// tests/test_chaos.cc relies on this to assert replay determinism).
//
// The injector is allocation-free after construction: deciding the fate of
// a read is a handful of xoshiro draws and comparisons, so the simulator's
// allocation-free tick path stays allocation-free with injection compiled
// in — enabled or not (tests/test_perf_smoke.cc asserts both).
#pragma once

#include <cstdint>

#include "stats/rng.h"

namespace bbsched::faults {

/// Outcome classes for one counter read, in the order they are drawn.
enum class CounterFault : std::uint8_t {
  kNone,      ///< the read succeeds and is truthful
  kDrop,      ///< the read never happens (sample missed, detectable absence)
  kReadFail,  ///< the backend errors out (perf_event fd gone, driver unload)
  kStale,     ///< the read returns the previous value (hung arena updater)
  kNoise,     ///< the read is perturbed by bounded relative noise
  kWrap,      ///< the counter wrapped around (cumulative value collapses)
};

[[nodiscard]] const char* to_string(CounterFault fault);

/// Per-read fault probabilities. Draws are evaluated in declaration order
/// and the first hit wins, so the classes are mutually exclusive per read.
/// All-zero probabilities (the default) make the injector a no-op even when
/// `enabled` is true; `enabled == false` short-circuits before any draw so
/// the disabled hook costs one branch.
struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 0x5eedULL;

  double drop_prob = 0.0;       ///< P(read silently missing)
  double read_fail_prob = 0.0;  ///< P(backend read failure)
  double stale_prob = 0.0;      ///< P(previous value repeated)
  double noise_prob = 0.0;      ///< P(bounded relative noise)
  double noise_amplitude = 0.25;  ///< max |relative error| when noisy
  double wrap_prob = 0.0;       ///< P(counter wraparound)

  /// Residue span for wrapped counters: a wrap maps the cumulative value to
  /// `fmod(value, wrap_span)`, mimicking a narrow hardware counter.
  double wrap_span = 1024.0;
};

/// Decision for one read: the fault class plus the noise factor to apply
/// when kind == kNoise (multiply the observed delta by it).
struct CounterReadFault {
  CounterFault kind = CounterFault::kNone;
  double noise_factor = 1.0;
};

/// Seeded fault scheduler. One instance per consumer (per scheduler, per
/// counter source); the draw sequence — and therefore the whole fault
/// schedule — is a pure function of the seed and the call order, which in
/// the single-threaded simulator is itself deterministic.
class FaultInjector {
 public:
  FaultInjector() : FaultInjector(FaultConfig{}) {}
  explicit FaultInjector(const FaultConfig& cfg)
      : cfg_(cfg), rng_(cfg.seed) {}

  [[nodiscard]] bool enabled() const noexcept { return cfg_.enabled; }
  [[nodiscard]] const FaultConfig& config() const noexcept { return cfg_; }

  /// Draws the fate of the next counter read. The disabled path performs no
  /// draw at all, so replays are unaffected by hooks that were off.
  [[nodiscard]] CounterReadFault next_counter_read() noexcept {
    CounterReadFault f;
    if (!cfg_.enabled) return f;
    const double u = rng_.uniform();
    double edge = cfg_.drop_prob;
    if (u < edge) {
      f.kind = CounterFault::kDrop;
      return f;
    }
    if (u < (edge += cfg_.read_fail_prob)) {
      f.kind = CounterFault::kReadFail;
      return f;
    }
    if (u < (edge += cfg_.stale_prob)) {
      f.kind = CounterFault::kStale;
      return f;
    }
    if (u < (edge += cfg_.noise_prob)) {
      f.kind = CounterFault::kNoise;
      f.noise_factor =
          1.0 + rng_.uniform(-cfg_.noise_amplitude, cfg_.noise_amplitude);
      return f;
    }
    if (u < edge + cfg_.wrap_prob) f.kind = CounterFault::kWrap;
    return f;
  }

  /// Resets the draw stream to the configured seed (replay support).
  void reset() noexcept { rng_.reseed(cfg_.seed); }

 private:
  FaultConfig cfg_;
  stats::Rng rng_;
};

}  // namespace bbsched::faults
