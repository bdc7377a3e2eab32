#include "core/managed_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bbsched::core {

using sim::Cpu;
using sim::kForever;
using sim::Machine;
using sim::SimTime;
using sim::ThreadState;

void ManagedScheduler::start(Machine& m, trace::ScheduleTrace& trace) {
  for (const auto& job : m.jobs()) {
    const int app = connect_app(job, 0);
    job_to_app_[job.id] = app;
    app_to_job_[app] = job.id;
    last_read_[app] = 0.0;
  }
  quantum_start_ = 0;
  samples_taken_ = 0;
  // Elected gangs fit the machine, so place_elected queues at most one
  // thread per context.
  pending_.reserve(m.cpus().size());
  run_election(m, 0, trace);
}

int ManagedScheduler::connect_app(const sim::Job& job, SimTime now) {
  const int app = manager_.connect(job.spec.name, job.spec.nthreads);
  // Plumb the job's declared reservation into the credit ledger. A refused
  // reservation (oversubscription at admission time) leaves the app
  // best-effort; the manager records the kReservationRejected fault.
  if (job.spec.bw_reservation > 0.0) {
    (void)manager_.set_reservation(app, job.spec.bw_reservation, now);
  }
  return app;
}

double ManagedScheduler::read_counters(const Machine& m, int job_id) const {
  const sim::Job& job = m.job(job_id);
  return cfg_.sample_attempts ? m.job_bus_attempts(job)
                              : m.job_bus_transactions(job);
}

void ManagedScheduler::take_sample(Machine& m, SimTime now,
                                   trace::ScheduleTrace& trace) {
  const bool tracing = tracer_ && tracer_->enabled();
  for (int app : manager_.running()) {
    auto jit = app_to_job_.find(app);
    if (jit == app_to_job_.end()) continue;
    const double cum = read_counters(m, jit->second);
    double delta = cum - last_read_[app];
    double new_last = cum;

    // Seeded per-read fault injection, mirroring the
    // faults::FaultyCounterSource classes at the sampling site. Disabled
    // injection performs no draw (and no branch beyond `enabled()`), so
    // fault-free runs are bit-identical with the hook compiled in.
    if (injector_.enabled()) {
      const faults::CounterReadFault f = injector_.next_counter_read();
      switch (f.kind) {
        case faults::CounterFault::kNone:
          break;
        case faults::CounterFault::kDrop:
          // The read never happened: nothing posted, baseline untouched —
          // the next good read recovers the transactions as catch-up.
          if (tracing) {
            tracer_->fault(now,
                           {app, obs::FaultKind::kSampleDropped, 0.0});
          }
          continue;
        case faults::CounterFault::kReadFail:
          // The backend errored: post the garbage so the manager's input
          // validation (kInvalidSample) is what saves us, not this caller.
          if (tracing) {
            tracer_->fault(now, {app, obs::FaultKind::kReadFailure, 0.0});
          }
          delta = std::nan("");
          new_last = last_read_[app];
          break;
        case faults::CounterFault::kStale:
          // Hung updater: the counter repeats its previous value. A silent
          // zero-delta lie — indistinguishable from an idle bus downstream.
          if (tracing) {
            tracer_->fault(now, {app, obs::FaultKind::kStaleSample, 0.0});
          }
          delta = 0.0;
          new_last = last_read_[app];
          break;
        case faults::CounterFault::kNoise:
          if (tracing) {
            tracer_->fault(now, {app, obs::FaultKind::kNoisySample,
                                 f.noise_factor});
          }
          delta *= f.noise_factor;
          break;
        case faults::CounterFault::kWrap: {
          // Narrow-counter wraparound: the cumulative value collapses, so
          // this delta goes negative (manager clamps it) and the next good
          // read reports an implausible catch-up (manager caps it).
          const double span = injector_.config().wrap_span;
          const double wrapped = span > 0.0 ? std::fmod(cum, span) : cum;
          if (tracing) {
            tracer_->fault(now,
                           {app, obs::FaultKind::kCounterWraparound, wrapped});
          }
          delta = wrapped - last_read_[app];
          new_last = wrapped;
          break;
        }
      }
    }

    last_read_[app] = new_last;
    manager_.record_sample(app, delta, now);
    // Non-finite deltas never reach exported traces (raw doubles in JSON);
    // the manager's kInvalidSample fault event already records them.
    const double traced = std::isfinite(delta) ? delta : 0.0;
    trace.event({now, trace::EventKind::kSample, jit->second, -1, -1, traced});
    if (tracing && std::isfinite(delta)) {
      tracer_->counter_sample(
          now, {app, delta, manager_.policy_estimate(app)});
    }
  }
}

void ManagedScheduler::run_election(Machine& m, SimTime now,
                                    trace::ScheduleTrace& trace) {
  const ElectionResult& result =
      manager_.schedule_quantum(m.num_cpus(), now);
  ++elections_;
  quantum_start_ = now;
  samples_taken_ = 0;
  busy_until_ = now + overhead_us();

  trace.event({now, trace::EventKind::kQuantumStart, -1, -1, -1,
               static_cast<double>(elections_)});
  for (int app : result.elected) {
    auto jit = app_to_job_.find(app);
    if (jit != app_to_job_.end()) {
      trace.event({now, trace::EventKind::kElection, jit->second, -1, -1,
                   manager_.policy_estimate(app)});
    }
  }

  // Reset counter baselines for the newly elected apps so the first sample
  // of the quantum does not include transactions from earlier quanta.
  for (int app : result.elected) {
    auto jit = app_to_job_.find(app);
    if (jit != app_to_job_.end()) {
      last_read_[app] = read_counters(m, jit->second);
    }
  }

  // A fresh gang means fresh placements.
  m.vacate_all();
  apply_block_states(m, trace, now);
}

void ManagedScheduler::apply_block_states(Machine& m,
                                          trace::ScheduleTrace& trace,
                                          SimTime now) {
  const auto& running = manager_.running();
  for (const auto& job : m.jobs()) {
    if (job.completed) continue;
    auto ait = job_to_app_.find(job.id);
    if (ait == job_to_app_.end()) continue;
    const bool elected = std::find(running.begin(), running.end(),
                                   ait->second) != running.end();
    for (int tid : job.thread_ids) {
      auto t = m.thread(tid);
      if (elected && t.state == ThreadState::kManagerBlocked) {
        t.state = ThreadState::kReady;
        trace.event({now, trace::EventKind::kUnblock, job.id, tid, -1, 0.0});
        if (tracer_ && tracer_->enabled()) {
          tracer_->job_state_change(
              now, {ait->second, tid, obs::JobState::kManagerBlocked,
                    obs::JobState::kReady});
        }
      } else if (!elected && t.state == ThreadState::kReady) {
        t.state = ThreadState::kManagerBlocked;
        trace.event({now, trace::EventKind::kBlock, job.id, tid, -1, 0.0});
        if (tracer_ && tracer_->enabled()) {
          tracer_->job_state_change(
              now, {ait->second, tid, obs::JobState::kReady,
                    obs::JobState::kManagerBlocked});
        }
      }
    }
  }
}

void ManagedScheduler::place_elected(Machine& m) {
  // Two passes: first honour affinity (thread's previous CPU if free), then
  // fill remaining threads onto remaining CPUs (pending_ is reused scratch).
  pending_.clear();
  for (int app : manager_.running()) {
    auto jit = app_to_job_.find(app);
    if (jit == app_to_job_.end()) continue;
    for (int tid : m.job(jit->second).thread_ids) {
      const auto t = m.thread(tid);
      if (t.state != ThreadState::kReady) continue;
      if (m.cpu_of(tid) != -1) continue;  // already placed
      if (t.last_cpu != -1 &&
          m.cpus()[static_cast<std::size_t>(t.last_cpu)].thread == Cpu::kIdle) {
        m.place(t.last_cpu, tid);
      } else {
        pending_.push_back(tid);
      }
    }
  }
  for (int tid : pending_) {
    // Prefer a context on the least-occupied core: under SMT this spreads
    // the gang across physical cores before doubling contexts up
    // (symbiosis-aware placement; a no-op when threads_per_core == 1).
    const auto& cfg = m.config();
    int best_cpu = -1;
    int best_load = cfg.threads_per_core + 1;
    for (std::size_t c = 0; c < m.cpus().size(); ++c) {
      if (m.cpus()[c].thread != Cpu::kIdle) continue;
      const int core = cfg.core_of(static_cast<int>(c));
      int load = 0;
      for (int cc = core * cfg.threads_per_core;
           cc < (core + 1) * cfg.threads_per_core; ++cc) {
        if (m.cpus()[static_cast<std::size_t>(cc)].thread != Cpu::kIdle) {
          ++load;
        }
      }
      if (load < best_load) {
        best_load = load;
        best_cpu = static_cast<int>(c);
      }
    }
    if (best_cpu >= 0) m.place(best_cpu, tid);
  }
}

void ManagedScheduler::handle_completions(Machine& m, SimTime now,
                                          trace::ScheduleTrace& trace) {
  bool disconnected = false;
  for (const auto& job : m.jobs()) {
    if (!job.completed) continue;
    auto ait = job_to_app_.find(job.id);
    if (ait == job_to_app_.end()) continue;
    if (tracer_ && tracer_->enabled()) {
      tracer_->job_state_change(now, {ait->second, -1, obs::JobState::kDone,
                                      obs::JobState::kDisconnected});
    }
    manager_.disconnect(ait->second);
    app_to_job_.erase(ait->second);
    last_read_.erase(ait->second);
    job_to_app_.erase(job.id);
    disconnected = true;
  }
  if (disconnected && cfg_.reelect_on_disconnect &&
      manager_.app_count() > 0) {
    run_election(m, now, trace);
  }
}

SimTime ManagedScheduler::quiescent_until(const Machine& m,
                                          SimTime now) const {
  // Mirror tick() top to bottom; any branch that would mutate manager
  // bookkeeping, thread states or placements pins the result to `now`.

  // Pending connect (live job unconnected) or disconnect (completed job
  // still connected).
  for (const auto& job : m.jobs()) {
    if (job.completed == job_to_app_.contains(job.id)) return now;
  }
  if (manager_.app_count() == 0) return kForever;

  // apply_block_states would flip a thread on the very next tick.
  const auto& running = manager_.running();
  for (const auto& job : m.jobs()) {
    if (job.completed) continue;
    auto ait = job_to_app_.find(job.id);
    if (ait == job_to_app_.end()) continue;
    const bool elected = std::find(running.begin(), running.end(),
                                   ait->second) != running.end();
    for (int tid : job.thread_ids) {
      const ThreadState st = m.thread(tid).state;
      if (elected && st == ThreadState::kManagerBlocked) return now;
      if (!elected && st == ThreadState::kReady) return now;
    }
  }

  // Sampling points and the quantum-boundary election bound the horizon.
  const SimTime quantum = cfg_.manager.quantum_us;
  const int per_quantum = cfg_.manager.samples_per_quantum;
  SimTime horizon = quantum_start_ + quantum;
  if (per_quantum > 0 && samples_taken_ + 1 < per_quantum) {
    const SimTime interval = quantum / static_cast<SimTime>(per_quantum);
    horizon = std::min(
        horizon, quantum_start_ +
                     interval * static_cast<SimTime>(samples_taken_ + 1));
  }

  if (now < busy_until_) {
    // The overhead window vacates every tick: a no-op only while nothing
    // is placed, and place_elected resumes when the window closes.
    for (const auto& c : m.cpus()) {
      if (c.thread != Cpu::kIdle) return now;
    }
    horizon = std::min(horizon, busy_until_);
  } else {
    // place_elected acts when an elected ready thread awaits placement and
    // a context is free.
    bool idle_cpu = false;
    for (const auto& c : m.cpus()) {
      if (c.thread == Cpu::kIdle) {
        idle_cpu = true;
        break;
      }
    }
    if (idle_cpu) {
      for (int app : running) {
        auto jit = app_to_job_.find(app);
        if (jit == app_to_job_.end()) continue;
        for (int tid : m.job(jit->second).thread_ids) {
          if (m.thread(tid).state == ThreadState::kReady &&
              m.cpu_of(tid) == -1) {
            return now;
          }
        }
      }
    }
  }
  return horizon;
}

void ManagedScheduler::tick(Machine& m, SimTime now,
                            trace::ScheduleTrace& trace) {
  // Open-system arrivals: late jobs send their 'connection' message and
  // join the applications list; they wait (manager-blocked) until the next
  // election considers them.
  for (const auto& job : m.jobs()) {
    if (job.completed || job_to_app_.contains(job.id)) continue;
    const int app = connect_app(job, now);
    job_to_app_[job.id] = app;
    app_to_job_[app] = job.id;
    last_read_[app] = read_counters(m, job.id);
    if (tracer_ && tracer_->enabled()) {
      tracer_->job_state_change(now, {app, -1, obs::JobState::kConnected,
                                      obs::JobState::kReady});
    }
  }

  handle_completions(m, now, trace);
  if (manager_.app_count() == 0) return;

  const SimTime quantum = cfg_.manager.quantum_us;
  const int per_quantum = cfg_.manager.samples_per_quantum;

  // Quantum boundary: take the final sample, then elect.
  if (now >= quantum_start_ + quantum) {
    take_sample(m, now, trace);
    samples_taken_ = per_quantum;
    run_election(m, now, trace);
  } else if (per_quantum > 0) {
    // Intra-quantum sampling points at k * quantum / samples_per_quantum.
    const SimTime interval = quantum / static_cast<SimTime>(per_quantum);
    while (samples_taken_ + 1 < per_quantum &&
           now >= quantum_start_ +
                      interval * static_cast<SimTime>(samples_taken_ + 1)) {
      take_sample(m, now, trace);
      ++samples_taken_;
    }
  }

  apply_block_states(m, trace, now);

  // Manager overhead: the machine does no useful work while the manager is
  // delivering signals and traversing its lists.
  if (now < busy_until_) {
    m.vacate_all();
    return;
  }

  place_elected(m);
}

}  // namespace bbsched::core
