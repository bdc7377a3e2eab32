// Schedule tracing: a structured record of which thread ran on which CPU
// during which interval. Tests use the intervals to assert scheduling
// invariants (gang co-scheduling, no CPU oversubscription, head-of-list
// starvation freedom); trace/gantt renders them and obs::write_chrome_trace
// turns them into per-CPU tracks. Scheduler decisions (samples, elections,
// state changes) are obs::Tracer events (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <vector>

namespace bbsched::trace {

/// A maximal interval during which one thread occupied one CPU.
struct RunInterval {
  std::uint64_t start_us = 0;
  std::uint64_t end_us = 0;  ///< exclusive
  int app_id = -1;
  int thread_id = -1;
  int cpu = -1;
};

/// Append-only interval log. Recording can be disabled wholesale (the
/// default for large benches) so tracing never taxes the hot path unless
/// requested.
class ScheduleTrace {
 public:
  explicit ScheduleTrace(bool enabled = false) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Records thread occupancy for one tick; consecutive ticks of the same
  /// (thread, cpu) pair are merged into a single interval.
  void occupy(std::uint64_t start_us, std::uint64_t end_us, int app_id,
              int thread_id, int cpu);

  [[nodiscard]] const std::vector<RunInterval>& intervals() const noexcept {
    return intervals_;
  }

  /// All intervals overlapping [t0, t1).
  [[nodiscard]] std::vector<RunInterval> intervals_in(
      std::uint64_t t0, std::uint64_t t1) const;

  /// Verifies that no CPU is ever occupied by two threads simultaneously.
  /// Returns true when the invariant holds.
  [[nodiscard]] bool no_oversubscription() const;

 private:
  bool enabled_;
  std::vector<RunInterval> intervals_;
};

}  // namespace bbsched::trace
