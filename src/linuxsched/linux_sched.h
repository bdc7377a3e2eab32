// Baseline: a model of the Linux 2.4 O(n) scheduler, the comparator in the
// paper's §5 evaluation ("the standard Linux scheduler", kernel 2.4.20).
//
// Modelled behaviours (the ones that matter for the experiments):
//  * time-sharing with per-task remaining-timeslice counters,
//  * goodness() selection: a task with an exhausted counter scores zero
//    (no affinity bonus!), otherwise counter + a large cache-affinity bonus
//    when the task last ran on the deciding CPU (PROC_CHANGE_PENALTY),
//  * epoch refill: when every runnable task has exhausted its counter, all
//    tasks (including blocked ones) get counter = counter/2 + slice,
//  * idle CPUs pull the best runnable task from anywhere (migration),
//  * complete obliviousness to bus bandwidth — the property the paper's
//    policies exploit.
//
// The paper states the CPU-manager quantum (200 ms) is "twice the quantum of
// the Linux scheduler", so the default timeslice here is 100 ms.
#pragma once

#include <vector>

#include "sim/scheduler.h"
#include "stats/rng.h"

namespace bbsched::linuxsched {

struct LinuxSchedConfig {
  /// Full timeslice granted at epoch refill (µs).
  sim::SimTime timeslice_us = 100 * sim::kUsPerMs;

  /// Cache-affinity bonus, in the same units as the counter. Linux 2.4 uses
  /// PROC_CHANGE_PENALTY = 15 ticks against a 6-tick default slice, i.e.
  /// 2.5x the slice — affinity dominates unless a counter is exhausted.
  double affinity_bonus_us = 250 * sim::kUsPerMs;

  /// Timeslice jitter. A real kernel's slices never expire in phase across
  /// CPUs (timer interrupt skew, wakeups, kernel preemption points), so
  /// sibling threads of a parallel job drift out of alignment — exactly the
  /// effect gang scheduling removes. Initial counters start at a random
  /// fraction in [initial_phase_min, 1] of the slice, and every refill is
  /// scaled by 1 ± refill_jitter * U.
  double initial_phase_min = 0.3;
  double refill_jitter = 0.15;
  std::uint64_t seed = 1337;
};

class LinuxScheduler final : public sim::Scheduler {
 public:
  explicit LinuxScheduler(LinuxSchedConfig cfg = {}) : cfg_(cfg) {}

  void start(sim::Machine& m, trace::ScheduleTrace& trace) override;
  void tick(sim::Machine& m, sim::SimTime now,
            trace::ScheduleTrace& trace) override;

  /// Quantum batching support (sim::Scheduler contract): `now` while the
  /// next tick() would size its tables for new threads, handle a barrier
  /// wake-up, refill an epoch, or place or replace a thread; otherwise the
  /// first tick at which a running thread's timeslice runs out. The running
  /// threads' charge for the ticks in between is deferred to the next
  /// tick(), which replays it one tick at a time.
  [[nodiscard]] sim::SimTime quiescent_until(const sim::Machine& m,
                                             sim::SimTime now) const override;

  [[nodiscard]] const char* name() const override { return "linux-2.4"; }

  /// Remaining timeslice of a thread (µs); exposed for tests.
  [[nodiscard]] double counter(int tid) const {
    return counters_.at(static_cast<std::size_t>(tid));
  }

  /// Number of epoch refills so far; exposed for tests.
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }

 private:
  /// goodness(p, cpu): 0 when the counter is exhausted; otherwise counter
  /// plus the affinity bonus when `cpu` is the task's cache home.
  [[nodiscard]] double goodness(const sim::ThreadCtx& t, int cpu) const;

  void maybe_epoch_refill(sim::Machine& m);

  /// reschedule_idle(): placement of a freshly woken task — an idle CPU if
  /// one exists (preferring its cache home), otherwise preempt the current
  /// task with the lowest goodness if the woken task scores higher there.
  /// This is what shuffles thread placements on a real 2.4 kernel and
  /// causes the migrations the paper blames for LU-CB/Water-nsqr slowdowns.
  void reschedule_idle(sim::Machine& m, int tid, trace::ScheduleTrace& trace);

  /// Charges every running thread for the `span` µs since the previous
  /// tick(): one tick_us_ subtraction per elapsed tick, so a span the engine
  /// batched is charged exactly as per-tick calls would have charged it.
  void charge_running(const sim::Machine& m, sim::SimTime span);

  LinuxSchedConfig cfg_;
  std::vector<double> counters_;
  /// Thread states observed at the previous tick, to detect wakeups.
  std::vector<bool> was_blocked_;
  std::uint64_t epochs_ = 0;
  sim::SimTime last_now_ = 0;
  bool has_last_now_ = false;
  /// Spacing of the engine's tick grid, learned from the first two tick()
  /// calls; 0 until then, and quiescent_until() declines to batch meanwhile.
  sim::SimTime tick_us_ = 0;
  stats::Rng rng_{1337};
};

}  // namespace bbsched::linuxsched
