#include "linuxsched/linux_sched.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bbsched::linuxsched {

using sim::Cpu;
using sim::Machine;
using sim::SimTime;
using sim::ThreadCtx;
using sim::ThreadState;

namespace {

/// Number of one-tick charges after which a counter holding `c` > 0 is
/// exhausted (<= 0), as charge_running() applies them. While the counter
/// stays positive each charge is exact (an integral step off a double at
/// least as large), so the count is ceil(c / tick); exact sign tests settle
/// the rounding of the division.
SimTime ticks_to_expiry(double c, double tick) {
  double k = std::max(1.0, std::ceil(c / tick));
  while (k > 1.0 && c - (k - 1.0) * tick <= 0.0) k -= 1.0;
  while (c - k * tick > 0.0) k += 1.0;
  return static_cast<SimTime>(k);
}

}  // namespace

void LinuxScheduler::start(Machine& m, trace::ScheduleTrace& /*trace*/) {
  rng_.reseed(cfg_.seed);
  counters_.resize(m.threads().size());
  // Random initial phases: real tasks never start with synchronized slices.
  const auto slice = static_cast<double>(cfg_.timeslice_us);
  for (auto& c : counters_) {
    c = slice * rng_.uniform(cfg_.initial_phase_min, 1.0);
  }
}

double LinuxScheduler::goodness(const ThreadCtx& t, int cpu) const {
  const double counter = counters_[static_cast<std::size_t>(t.id)];
  if (counter <= 0.0) return 0.0;  // exhausted => no bonus, lowest priority
  double weight = counter;
  if (t.last_cpu == cpu) weight += cfg_.affinity_bonus_us;
  return weight;
}

void LinuxScheduler::maybe_epoch_refill(Machine& m) {
  // Epoch ends when every runnable task has exhausted its counter. Blocked
  // tasks keep (and halve) their remainder, exactly like kernel 2.4.
  bool any_runnable = false;
  for (const auto& t : m.threads()) {
    if (t.state == ThreadState::kReady) {
      any_runnable = true;
      if (counters_[static_cast<std::size_t>(t.id)] > 0.0) return;
    }
  }
  if (!any_runnable) return;
  ++epochs_;
  const auto slice = static_cast<double>(cfg_.timeslice_us);
  for (const auto& t : m.threads()) {
    if (t.state == ThreadState::kDone) continue;
    auto& c = counters_[static_cast<std::size_t>(t.id)];
    const double jitter =
        1.0 + cfg_.refill_jitter * (2.0 * rng_.uniform() - 1.0);
    c = std::max(c, 0.0) / 2.0 + slice * jitter;
  }
}

void LinuxScheduler::reschedule_idle(Machine& m, int tid,
                                     trace::ScheduleTrace& trace) {
  const ThreadCtx t = m.thread(tid);

  // Prefer the task's cache home if idle, then any idle CPU.
  if (t.last_cpu != -1 &&
      m.cpus()[static_cast<std::size_t>(t.last_cpu)].thread == Cpu::kIdle) {
    m.place(t.last_cpu, tid);
    return;
  }
  for (std::size_t c = 0; c < m.cpus().size(); ++c) {
    if (m.cpus()[c].thread == Cpu::kIdle) {
      m.place(static_cast<int>(c), tid);
      return;
    }
  }

  // No idle CPU: preempt the running task with the smallest goodness if the
  // woken task beats it there (kernel 2.4 preemption_goodness > 1 check).
  int victim_cpu = -1;
  double victim_w = 1e300;
  for (std::size_t c = 0; c < m.cpus().size(); ++c) {
    const int cur = m.cpus()[c].thread;
    const double w = goodness(m.thread(cur), static_cast<int>(c));
    if (w < victim_w) {
      victim_w = w;
      victim_cpu = static_cast<int>(c);
    }
  }
  if (victim_cpu >= 0 &&
      goodness(t, victim_cpu) > victim_w + 1.0) {
    const int prev_cpu = t.last_cpu;
    m.vacate(victim_cpu);
    m.place(victim_cpu, tid);
    if (prev_cpu != -1 && prev_cpu != victim_cpu) {
      trace.event({0, trace::EventKind::kMigration, t.app_id, tid,
                   victim_cpu, 0.0});
    }
  }
}

void LinuxScheduler::charge_running(const Machine& m, SimTime span) {
  const double tick = static_cast<double>(tick_us_);
  const SimTime ticks = span / tick_us_;
  const double rest = static_cast<double>(span % tick_us_);
  for (const auto& cpu : m.cpus()) {
    if (cpu.thread == Cpu::kIdle) continue;
    double& c = counters_[static_cast<std::size_t>(cpu.thread)];
    for (SimTime k = 0; k < ticks; ++k) c -= tick;
    if (rest != 0.0) c -= rest;
  }
}

void LinuxScheduler::tick(Machine& m, SimTime now,
                          trace::ScheduleTrace& trace) {
  // New threads (jobs admitted after start) get a fresh slice.
  if (counters_.size() < m.threads().size()) {
    counters_.resize(m.threads().size(),
                     static_cast<double>(cfg_.timeslice_us));
  }
  was_blocked_.resize(m.threads().size(), false);

  // Charge the tasks that ran since the previous invocation. The engine
  // calls us before every tick it executes in full; the ticks of a batch
  // (see quiescent_until) are skipped and charged here, one at a time.
  if (has_last_now_ && now > last_now_) {
    if (tick_us_ == 0) tick_us_ = now - last_now_;
    charge_running(m, now - last_now_);
  }
  last_now_ = now;
  has_last_now_ = true;

  maybe_epoch_refill(m);

  // Wakeups: threads that were barrier-blocked last tick and are runnable
  // now go through reschedule_idle() (idle-CPU placement / preemption).
  for (const auto& t : m.threads()) {
    const auto idx = static_cast<std::size_t>(t.id);
    const bool blocked_now = t.state == ThreadState::kBarrierWait;
    if (was_blocked_[idx] && !blocked_now &&
        t.state == ThreadState::kReady && m.cpu_of(t.id) == -1) {
      reschedule_idle(m, t.id, trace);
    }
    was_blocked_[idx] = blocked_now;
  }

  // schedule() per CPU: keep the current task while it has timeslice left;
  // otherwise pick the max-goodness runnable task (including the current).
  for (std::size_t c = 0; c < m.cpus().size(); ++c) {
    const int cpu = static_cast<int>(c);
    const int cur = m.cpus()[c].thread;

    if (cur != Cpu::kIdle) {
      assert(m.thread(cur).state == ThreadState::kReady);
      if (counters_[static_cast<std::size_t>(cur)] > 0.0) {
        continue;  // timeslice not expired: keep running
      }
    }

    // Candidates: the current task plus every runnable, unplaced thread.
    int best = cur;
    double best_w = cur == Cpu::kIdle ? -1.0 : goodness(m.thread(cur), cpu);
    for (const auto& t : m.threads()) {
      if (t.state != ThreadState::kReady) continue;
      if (t.id == cur) continue;
      if (m.cpu_of(t.id) != -1) continue;  // running elsewhere
      const double w = goodness(t, cpu);
      if (w > best_w) {
        best_w = w;
        best = t.id;
      }
    }

    if (best == cur || best == Cpu::kIdle) continue;
    const int prev_cpu = m.thread(best).last_cpu;
    if (cur != Cpu::kIdle) m.vacate(cpu);
    m.place(cpu, best);
    if (prev_cpu != -1 && prev_cpu != cpu) {
      trace.event({0, trace::EventKind::kMigration, m.thread(best).app_id,
                   best, cpu, 0.0});
    }
  }
}

SimTime LinuxScheduler::quiescent_until(const Machine& m, SimTime now) const {
  // Mirror tick() top to bottom; any step that would act pins the result to
  // `now`. Until the first two tick() calls have shown the tick length, the
  // deferred charge could not be replayed, so never batch before then.
  const sim::SoAStore& s = m.store();
  const std::size_t n = s.size();
  if (tick_us_ == 0 || counters_.size() < n || was_blocked_.size() < n) {
    return now;
  }

  // Wake-up bookkeeping, then the epoch-refill test.
  int ready = 0;
  int ready_left = 0;  // ready threads with timeslice left
  for (std::size_t i = 0; i < n; ++i) {
    if (was_blocked_[i] != (s.state[i] == ThreadState::kBarrierWait)) {
      return now;
    }
    if (s.state[i] != ThreadState::kReady) continue;
    ++ready;
    if (counters_[i] > 0.0) ++ready_left;
  }
  if (ready > 0 && ready_left == 0) return now;

  // Runners keep their CPUs until a timeslice runs out.
  int placed = 0;
  int placed_left = 0;
  SimTime until = sim::kForever;
  const double tick = static_cast<double>(tick_us_);
  for (const auto& cpu : m.cpus()) {
    if (cpu.thread == Cpu::kIdle) continue;
    ++placed;
    const double c = counters_[static_cast<std::size_t>(cpu.thread)];
    if (c <= 0.0) continue;
    ++placed_left;
    until = std::min(until, last_now_ + ticks_to_expiry(c, tick) * tick_us_);
  }

  // schedule(): placed threads are ready, so the waiting (ready, unplaced)
  // ones are counted by difference. An idle CPU takes any waiting thread;
  // an expired runner yields only to one with timeslice left.
  if (ready > placed && placed < static_cast<int>(m.cpus().size())) {
    return now;
  }
  if (ready_left > placed_left && placed > placed_left) return now;
  return std::max(until, now);
}

}  // namespace bbsched::linuxsched
