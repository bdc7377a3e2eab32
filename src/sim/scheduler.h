// Scheduler interface for the simulated SMP.
//
// The engine calls tick() before executing every simulation tick; the
// scheduler mutates CPU placements (Machine::place / vacate) and thread
// states (e.g. kManagerBlocked). The engine alone records run intervals
// into the trace::ScheduleTrace that start() and tick() receive; schedulers
// report their decisions as obs::Tracer events. Implementations:
//   * linuxsched::LinuxScheduler — the bandwidth-oblivious baseline,
//   * core::ManagedScheduler    — the paper's user-level CPU manager running
//                                 a bandwidth-aware policy,
//   * sim::PinnedScheduler      — static placement for calibration runs.
#pragma once

#include "sim/machine.h"
#include "sim/time.h"
#include "trace/schedule_trace.h"

namespace bbsched::sim {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Invoked once before jobs start so the scheduler can initialise
  /// bookkeeping for admitted jobs.
  virtual void start(Machine& machine, trace::ScheduleTrace& trace) {
    (void)machine;
    (void)trace;
  }

  /// Invoked at the start of every engine tick; adjusts placements.
  virtual void tick(Machine& machine, SimTime now,
                    trace::ScheduleTrace& trace) = 0;

  /// Latest time T such that every tick() call at a time in [now, T) is
  /// guaranteed to be a no-op — neither mutating the machine nor any
  /// scheduler-internal state — PROVIDED thread states, placements and the
  /// job set do not change in the interim. The engine uses this to batch
  /// event-free ticks (DESIGN.md §11): it skips the tick() calls inside a
  /// batch, and any event that could invalidate the premise ends the batch
  /// and resumes per-tick stepping.
  ///
  /// One exception to "no-op": bookkeeping that depends only on elapsed
  /// time and the frozen placements (LinuxScheduler's timeslice charge) may
  /// be deferred to the next tick() call, which must replay it one tick at
  /// a time so the result is bit-identical to per-tick calls. The tick
  /// length is the spacing of the `now` values tick() sees; after a `now`
  /// answer the next tick() comes exactly one tick later, so a scheduler
  /// can learn the length by answering `now` until it has seen two calls.
  /// The conservative default (`now`) declares the scheduler never
  /// quiescent, which disables batching for implementations that do not
  /// opt in.
  [[nodiscard]] virtual SimTime quiescent_until(const Machine& machine,
                                                SimTime now) const {
    (void)machine;
    return now;
  }

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Statically pins each thread to CPU (thread_id % num_cpus) and never
/// preempts. Used by the Fig.-1 calibration experiments, which by
/// construction have at most one thread per processor ("no processor
/// sharing").
class PinnedScheduler final : public Scheduler {
 public:
  void tick(Machine& m, SimTime /*now*/,
            trace::ScheduleTrace& /*trace*/) override {
    for (const auto& t : m.threads()) {
      if (t.state != ThreadState::kReady) continue;
      const int cpu = t.id % m.num_cpus();
      if (m.cpus()[static_cast<std::size_t>(cpu)].thread == Cpu::kIdle) {
        m.place(cpu, t.id);
      }
    }
  }

  /// tick() only ever places a ready thread onto its idle home CPU; with no
  /// such thread it is a no-op forever (until an engine event changes a
  /// state or placement, which ends any batch).
  [[nodiscard]] SimTime quiescent_until(const Machine& m,
                                        SimTime now) const override {
    for (const auto& t : m.threads()) {
      if (t.state != ThreadState::kReady) continue;
      const int cpu = t.id % m.num_cpus();
      if (m.cpus()[static_cast<std::size_t>(cpu)].thread == t.id) continue;
      if (m.cpus()[static_cast<std::size_t>(cpu)].thread == Cpu::kIdle) {
        return now;  // tick() would place this thread
      }
    }
    return kForever;
  }

  [[nodiscard]] const char* name() const override { return "pinned"; }
};

}  // namespace bbsched::sim
