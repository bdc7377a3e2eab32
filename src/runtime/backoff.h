// The runtime's one retry schedule, a jittered exponential backoff: the
// client's connect and reattach loops and the supervisor's restart ladder
// all sleep by it (docs/ROBUSTNESS.md §7).
#pragma once

#include <algorithm>
#include <cstdint>

#include "stats/rng.h"

namespace bbsched::runtime {

/// The base starts at `initial_us` and doubles up to `max_us`; `seed` seeds
/// the jitter stream, so a seeded schedule replays identically.
struct BackoffConfig {
  std::uint64_t initial_us = 10'000;
  std::uint64_t max_us = 1'000'000;
  std::uint64_t seed = 0x5eedULL;
};

/// Each sleep is base × (1 + 0.5·(u − 0.5)) for a uniform draw u, within
/// ±25% of the base, so clients racing one restarted manager spread out.
class Backoff {
 public:
  explicit Backoff(const BackoffConfig& cfg)
      : cfg_(cfg), rng_(cfg.seed), base_us_(cfg.initial_us) {}

  /// Draws the next sleep (µs) and doubles the base toward the cap.
  std::uint64_t next_us() {
    const double factor = 1.0 + 0.5 * (rng_.uniform() - 0.5);
    const auto sleep_us =
        static_cast<std::uint64_t>(static_cast<double>(base_us_) * factor);
    base_us_ = std::min(base_us_ * 2, cfg_.max_us);
    return sleep_us;
  }

  /// Back to the initial base; the jitter stream continues.
  void reset() { base_us_ = cfg_.initial_us; }

 private:
  BackoffConfig cfg_;
  stats::Rng rng_;
  std::uint64_t base_us_;
};

}  // namespace bbsched::runtime
