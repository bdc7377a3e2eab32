#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace bbsched::sim {

namespace {
constexpr double kEps = 1e-9;

/// Number of tick start times in {start, start+tick, ...} strictly before
/// `bound` (the horizon helper: how many quiet ticks fit).
std::uint64_t ticks_before(SimTime start, SimTime tick, SimTime bound) {
  if (bound <= start) return 0;
  return (bound - start + tick - 1) / tick;
}

/// The kBusResolution event of a tick resolved into `bus` over `agents`.
obs::BusResolutionPayload resolution_payload(const BusResolution& bus,
                                             std::size_t agents) {
  obs::BusResolutionPayload p;
  p.demand_tps = bus.offered_rho * bus.effective_capacity;
  p.granted_tps = bus.total_granted;
  p.capacity_tps = bus.effective_capacity;
  p.utilization = bus.effective_capacity > 0.0
                      ? bus.total_granted / bus.effective_capacity
                      : 0.0;
  p.stretch = bus.stretch;
  p.agents = static_cast<std::int32_t>(agents);
  p.saturated = bus.saturated ? 1 : 0;
  return p;
}
}  // namespace

Engine::Engine(const MachineConfig& mcfg, const EngineConfig& ecfg,
               std::unique_ptr<Scheduler> scheduler)
    : mcfg_(mcfg),
      ecfg_(ecfg),
      machine_(mcfg),
      bus_(mcfg.bus),
      scheduler_(std::move(scheduler)),
      trace_(ecfg.trace),
      rng_(ecfg.seed) {
  assert(scheduler_ != nullptr);
  assert(ecfg_.tick_us > 0);
  noise_until_.assign(static_cast<std::size_t>(mcfg.num_cpus), 0);
  noise_next_.assign(static_cast<std::size_t>(mcfg.num_cpus), 0);
  warm_inc_ = static_cast<double>(ecfg_.tick_us) /
              static_cast<double>(mcfg_.cache.warmup_us);
  // At most one slot, and so one front job, per CPU. Warm-up rarely meets
  // a tick with every CPU busy, so without these the first such tick would
  // allocate mid-run.
  const auto ncpus = static_cast<std::size_t>(mcfg.num_cpus);
  placed_.reserve(ncpus);
  front_jobs_.reserve(ncpus);
  if (ecfg_.os_noise_interval_us > 0) {
    for (auto& next : noise_next_) {
      next = static_cast<SimTime>(
          rng_.uniform(0.0, 2.0 * static_cast<double>(
                                      ecfg_.os_noise_interval_us)));
    }
  }
}

int Engine::add_job(const JobSpec& spec) {
  assert(!started_ && "jobs must be admitted before the run starts");
  return machine_.add_job(spec, now_);
}

void Engine::submit_job(const JobSpec& spec, SimTime when) {
  assert(!started_ && "submit arrivals before the run starts");
  pending_.push_back({when, spec});
  pending_sorted_ = pending_.size() <= 1;
}

void Engine::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (!metrics_) {
    m_ticks_ = m_saturated_ticks_ = m_granted_transactions_ =
        m_job_completions_ = nullptr;
    m_bus_utilization_ = m_bus_stretch_ = nullptr;
    return;
  }
  m_ticks_ = &metrics_->counter("sim.ticks");
  m_saturated_ticks_ = &metrics_->counter("sim.bus.saturated_ticks");
  m_granted_transactions_ =
      &metrics_->counter("sim.bus.granted_transactions");
  m_job_completions_ = &metrics_->counter("sim.job_completions");
  m_bus_utilization_ = &metrics_->histogram(
      "sim.bus.utilization",
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0});
  m_bus_stretch_ = &metrics_->histogram(
      "sim.bus.stretch", {1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0});
}

SimTime Engine::run() { return run_until(ecfg_.max_time_us); }

SimTime Engine::run_until(SimTime until) {
  if (!started_) {
    scheduler_->start(machine_, trace_);
    started_ = true;
  }
  // Run until `until`, stopping early only once every finite job (if any
  // exist) has completed; all-infinite workloads run the full span. Only a
  // gathered tick admits or completes a job, and each call below starts
  // with one.
  while (now_ < until &&
         !(pending_next_ >= pending_.size() && machine_.has_finite_jobs() &&
           machine_.all_finite_jobs_done())) {
    run_ticks(until);
  }
  return now_;
}

void Engine::step() {
  if (!started_) {
    scheduler_->start(machine_, trace_);
    started_ = true;
  }
  run_ticks(now_ + ecfg_.tick_us);
}

// The tick body (allocation-free in steady state): one gathered tick, then
// the quiet ticks of its horizon.
void Engine::run_ticks(SimTime until) {
  const double tick = static_cast<double>(ecfg_.tick_us);
  const double grace = static_cast<double>(ecfg_.spin_grace_us);
  SoAStore& s = machine_.store();
  const BusResolution& bus = bus_ws_.result;
  bool gathered = true;
  bool batching = false;    // the last tick was quiet (counts batches)
  std::uint64_t quiet = 0;  // quiet ticks left in the horizon
  do {
    open_noise_windows();
    // Plan the tick. A quiet tick whose runners would meet a state-changing
    // event plans again as a gathered tick: the scheduler's tick() must see
    // the placements before they change.
    for (;;) {
      bool resolve = gathered;
      if (gathered) gather();

      // Classify every slot: stolen, or its progress bound and whether it
      // spins there. A slot whose CPU was stolen or released, or whose spin
      // classification flipped, turns into or out of a zero-demand agent
      // (DESIGN.md §11 "Demand-only events"): its demand is zeroed,
      // re-derived below if it runs, and the bus is re-resolved so the SMT
      // penalty and every step follow the new agent set. A running slot is
      // settled while its warmth is the one its demand was derived at and
      // its progress stays a tick short of the demand model's steady bound
      // (the margin absorbs the bound's own rounding); any other running
      // slot re-derives its demand (every slot, after a gather).
      for (std::size_t i = 0; i < placed_.size(); ++i) {
        PlacedThread& p = placed_[i];
        const auto ti = static_cast<std::size_t>(p.tid);
        const double progress = s.progress_us[ti];
        // OS noise holds the CPU: the resident thread makes no progress and
        // issues no traffic, but stays an agent under its own weight, which
        // leaves every other agent's resolution bit-identical.
        const bool stolen =
            now_ < noise_until_[static_cast<std::size_t>(p.cpu)];
        bool spinning = false;
        if (!stolen) {
          assert(s.state[ti] == ThreadState::kReady &&
                 "only runnable threads may be placed");
          p.limit = s.work_us[ti];
          p.barrier_limited = false;
          if (s.coupled[ti]) {
            const double barrier_limit =
                job_front_[static_cast<std::size_t>(s.app_id[ti])] +
                s.barrier_interval_us[ti];
            if (barrier_limit < p.limit) {
              p.limit = barrier_limit;
              p.barrier_limited = true;
            }
          }
          if (s.io_enabled[ti] && s.next_io_at_progress[ti] < p.limit) {
            // Computation pauses at the next I/O issue point.
            p.limit = s.next_io_at_progress[ti];
            p.barrier_limited = false;
          }
          spinning = p.barrier_limited && progress >= p.limit - kEps;
        }
        if (stolen != p.stolen || spinning != p.spinning) {
          p.stolen = stolen;
          p.spinning = spinning;
          demands_[i] = 0.0;
          p.warmth = std::numeric_limits<double>::quiet_NaN();
          resolve = true;
        }
        if (stolen || spinning) continue;
        const double w = s.warmth[ti];
        if (w == p.warmth && progress + p.delta < p.steady_until) continue;
        if (!(progress < p.steady_until)) {
          p.steady_until = s.demand[ti]->steady_until(s.tidx[ti], progress);
        }
        double demand = s.demand[ti]->rate(s.tidx[ti], progress);
        // Cold caches refill from memory: extra uncontended demand.
        demand *= 1.0 + s.cold_demand_boost[ti] * (1.0 - w);
        p.warmth = w;
        if (demand != demands_[i]) {  // bitwise: the resolve's input moved
          demands_[i] = demand;
          resolve = true;
        }
        // Warmth moved the step; a pending resolve recomputes every step.
        if (!resolve) p.delta = tick_delta(i, ti, tick);
      }

      if (resolve) {
        // Into the engine's workspace: its buffers are reused tick over
        // tick, never reallocated in steady state.
        bus_.resolve(demands_, weights_, bus_ws_);
        ++stats_.bus_resolves;
        update_smt_penalty();
        bus_agents_ = bus_agents();
        bus_util_ =
            bus_agents_ > 0 ? bus.total_granted / bus.effective_capacity : 0.0;
        for (std::size_t i = 0; i < placed_.size(); ++i) {
          if (!placed_[i].active()) continue;
          placed_[i].delta =
              tick_delta(i, static_cast<std::size_t>(placed_[i].tid), tick);
        }
      }

      // Each runner's share of the tick and the state change its step meets.
      bool event = false;
      for (PlacedThread& p : placed_) {
        const auto ti = static_cast<std::size_t>(p.tid);
        p.event = TickEvent::kNone;
        if (p.stolen) continue;
        if (p.spinning) {
          if (s.coupled[ti] && s.consecutive_spin_us[ti] + tick >= grace) {
            p.event = TickEvent::kBlock;
          }
        } else {
          const double allowed = std::max(0.0, p.limit - s.progress_us[ti]);
          // min(1, allowed / delta), dividing only when the bound can bind:
          // allowed >= delta > 0 rounds the quotient to >= 1.
          p.frac =
              p.delta > 0.0 && allowed < p.delta ? allowed / p.delta : 1.0;
          const double progress = s.progress_us[ti] + p.delta * p.frac;
          if (s.io_enabled[ti] &&
              progress >= s.next_io_at_progress[ti] - kEps &&
              progress < s.work_us[ti] - kEps) {
            p.event = TickEvent::kIoIssue;
          } else if (progress >= s.work_us[ti] - kEps) {
            p.event = TickEvent::kComplete;
          }
        }
        event = event || p.event != TickEvent::kNone;
      }
      if (!event || gathered) break;
      gathered = true;
    }

    // Commit the resolution: stats, metrics and the bus event are recorded
    // every tick — idle ticks included — so any span of simulated time (a
    // quantum, a noise window) is guaranteed coverage.
    ++stats_.total_ticks;
    if (bus_agents_ > 0) {
      stats_.bus_utilization.add(bus_util_);
      stats_.stretch.add(bus.stretch);
      if (bus.saturated) ++stats_.saturated_ticks;
      stats_.total_granted_transactions += bus.total_granted * tick;
    }
    if (metrics_) {
      m_ticks_->inc();
      if (bus_agents_ > 0) {
        m_bus_utilization_->observe(bus_util_);
        m_bus_stretch_->observe(bus.stretch);
        if (bus.saturated) m_saturated_ticks_->inc();
        m_granted_transactions_->inc(bus.total_granted * tick);
      }
    }
    const bool tracing = tracer_ && tracer_->enabled();
    if (tracing) {
      tracer_->bus_resolution(now_, resolution_payload(bus, bus_agents_));
    }

    // Advance the slots along the planned steps and apply the planned
    // events (only a gathered tick meets any).
    bool structural = false;
    for (std::size_t i = 0; i < placed_.size(); ++i) {
      const PlacedThread& p = placed_[i];
      const auto ti = static_cast<std::size_t>(p.tid);
      if (p.stolen) {
        s.stolen_us[ti] += tick;
        continue;
      }
      if (trace_.enabled()) {
        trace_.occupy(now_, now_ + ecfg_.tick_us, s.app_id[ti], p.tid, p.cpu);
      }
      if (p.spinning) {
        s.spin_us[ti] += tick;
        s.consecutive_spin_us[ti] += tick;
        if (p.event == TickEvent::kBlock) {
          // Spin-then-block: yield the processor until siblings catch up.
          s.state[ti] = ThreadState::kBarrierWait;
          s.consecutive_spin_us[ti] = 0.0;
          machine_.vacate(p.cpu);
          structural = true;
          if (tracing) {
            tracer_->job_state_change(now_, {s.app_id[ti], p.tid,
                                             obs::JobState::kReady,
                                             obs::JobState::kBarrierWait});
          }
        }
        continue;
      }

      s.progress_us[ti] += p.delta * p.frac;
      s.run_us[ti] += tick * p.frac;
      s.bus_transactions[ti] += bus.granted[i] * tick * p.frac;
      s.bus_attempts[ti] += demands_[i] * tick * p.frac;
      if (p.frac < 1.0 && p.barrier_limited) {
        // Ran into the barrier mid-tick: the remainder was spent spinning.
        s.spin_us[ti] += tick * (1.0 - p.frac);
        s.consecutive_spin_us[ti] += tick * (1.0 - p.frac);
      } else {
        s.consecutive_spin_us[ti] = 0.0;
      }
      s.warmth[ti] = std::min(1.0, s.warmth[ti] + warm_inc_);

      if (p.event == TickEvent::kIoIssue) {
        // Computation reached the next I/O point (and not the end of the
        // job): block and start the DMA transfer.
        s.state[ti] = ThreadState::kIoWait;
        s.io_wake_us[ti] =
            now_ + ecfg_.tick_us + static_cast<SimTime>(s.io_burst_us[ti]);
        s.next_io_at_progress[ti] += s.io_period_progress_us[ti];
        machine_.vacate(p.cpu);
        structural = true;
        if (tracing) {
          tracer_->job_state_change(now_, {s.app_id[ti], p.tid,
                                           obs::JobState::kReady,
                                           obs::JobState::kIoWait});
        }
      } else if (p.event == TickEvent::kComplete) {
        s.state[ti] = ThreadState::kDone;
        machine_.vacate(p.cpu);
        structural = true;
        Job& jm = machine_.job(s.app_id[ti]);
        const bool all_done = std::all_of(
            jm.thread_ids.begin(), jm.thread_ids.end(), [&](int tid) {
              return s.state[static_cast<std::size_t>(tid)] ==
                     ThreadState::kDone;
            });
        if (all_done && !jm.completed) {
          jm.completed = true;
          jm.completion_us = now_ + ecfg_.tick_us;
          if (tracing) {
            tracer_->job_state_change(
                now_ + ecfg_.tick_us,
                {jm.id, -1, obs::JobState::kReady, obs::JobState::kDone});
          }
          if (m_job_completions_) m_job_completions_->inc();
        }
      }
    }

    // Credit DMA traffic to the blocked threads' jobs (the counters see the
    // device transfers, which is why I/O "stresses the bus").
    for (std::size_t k = 0; k < dma_tids_.size(); ++k) {
      const std::size_t idx = placed_.size() + k;
      const auto ti = static_cast<std::size_t>(dma_tids_[k]);
      s.bus_transactions[ti] += bus.granted[idx] * tick;
      s.bus_attempts[ti] += demands_[idx] * tick;
    }

    if (gathered) {
      // I/O completions (a quiet horizon ends before the first).
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (s.state[i] == ThreadState::kIoWait &&
            now_ + ecfg_.tick_us >= s.io_wake_us[i]) {
          s.state[i] = ThreadState::kReady;
          structural = true;
          if (tracing) {
            tracer_->job_state_change(now_ + ecfg_.tick_us,
                                      {s.app_id[i], static_cast<int>(i),
                                       obs::JobState::kIoWait,
                                       obs::JobState::kReady});
          }
        }
      }
      build_tick_lists();
    }

    // Cache disturbance and unplaced waits, from the gathered tick's lists.
    for (std::size_t k = 0; k < dist_.size(); ++k) {
      *dist_[k] = std::max(0.0, *dist_[k] - dist_dec_[k]);
    }
    for (double* acc : wait_) *acc += tick;
    // Progress advanced: refresh the fronts it can move, so both the wake-ups
    // and the next tick's barrier limits read the cache, then wake the
    // waiters whose siblings caught up.
    for (const int j : front_jobs_) refresh_job_front(machine_.job(j));
    for (const int tid : waiters_) {
      const auto ti = static_cast<std::size_t>(tid);
      if (!(s.progress_us[ti] <
            job_front_[static_cast<std::size_t>(s.app_id[ti])] +
                s.barrier_interval_us[ti] - kEps)) {
        continue;
      }
      s.state[ti] = ThreadState::kReady;
      structural = true;
      if (tracing) {
        tracer_->job_state_change(now_, {s.app_id[ti], tid,
                                         obs::JobState::kBarrierWait,
                                         obs::JobState::kReady});
      }
    }

    now_ += ecfg_.tick_us;
    if (gathered) {
      batching = false;
      quiet = structural ? 0 : quiet_horizon(until);
    } else {
      ++stats_.batched_ticks;
      if (!batching) ++stats_.batches;
      batching = true;
      quiet = structural ? 0 : quiet - 1;
    }
    gathered = false;
  } while (quiet > 0);
}

void Engine::gather() {
  // Open-system arrivals whose release time has come. The vector is sorted
  // once here (submissions only append) and drained by cursor; ties release
  // in submission order.
  if (!pending_sorted_) {
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const PendingJob& a, const PendingJob& b) {
                       return a.when < b.when;
                     });
    pending_sorted_ = true;
  }
  while (pending_next_ < pending_.size() &&
         pending_[pending_next_].when <= now_) {
    const int job_id = machine_.add_job(pending_[pending_next_].spec, now_);
    ++pending_next_;
    if (tracer_ && tracer_->enabled()) {
      tracer_->job_state_change(now_, {job_id, -1, obs::JobState::kConnected,
                                       obs::JobState::kReady});
    }
  }
  scheduler_->tick(machine_, now_, trace_);
  // Fronts stay current from tick to tick; only admissions invalidate them.
  if (job_front_.size() != machine_.jobs().size()) refresh_job_fronts();

  // One fresh slot per occupied CPU; the tick's plan classifies it and
  // derives its demand. All inputs stream from the SoA arrays.
  const SoAStore& s = machine_.store();
  placed_.clear();
  demands_.clear();
  weights_.clear();
  for (std::size_t c = 0; c < machine_.cpus().size(); ++c) {
    const int tid = machine_.cpus()[c].thread;
    if (tid == Cpu::kIdle) continue;
    placed_.push_back({.cpu = static_cast<int>(c), .tid = tid});
    demands_.push_back(0.0);
    weights_.push_back(s.bus_priority[static_cast<std::size_t>(tid)]);
  }

  // I/O DMA agents: devices transferring on behalf of blocked threads are
  // additional bus masters; their demand entries follow the slots'.
  dma_tids_.clear();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.state[i] != ThreadState::kIoWait) continue;
    if (s.io_dma_tps[i] <= 0.0) continue;
    dma_tids_.push_back(static_cast<int>(i));
    demands_.push_back(s.io_dma_tps[i]);
    weights_.push_back(mcfg_.bus.dma_arbitration_weight);
  }
}

void Engine::build_tick_lists() {
  const double tick = static_cast<double>(ecfg_.tick_us);
  SoAStore& s = machine_.store();
  const std::size_t n = s.size();

  // Cache disturbance: a running thread's working set evicts cached state
  // of the other threads whose affinity home shares a cache with the
  // runner: the same context when threads_per_core == 1, the whole core's
  // contexts under SMT (the sibling context shares the L2). A thread is the
  // victim of at most one runner per context of its last core, which bounds
  // the pairs; reserving that bound keeps the lists from growing mid-run.
  const std::size_t max_pairs =
      n * static_cast<std::size_t>(mcfg_.threads_per_core);
  dist_.clear();
  dist_dec_.clear();
  dist_.reserve(max_pairs);
  dist_dec_.reserve(max_pairs);
  for (std::size_t c = 0; c < machine_.cpus().size(); ++c) {
    const int runner = machine_.cpus()[c].thread;
    if (runner == Cpu::kIdle) continue;
    const double footprint_frac =
        s.footprint_frac[static_cast<std::size_t>(runner)];
    if (footprint_frac <= 0.0) continue;
    const double dec =
        footprint_frac * tick / static_cast<double>(mcfg_.cache.warmup_us);
    const int runner_core = mcfg_.core_of(static_cast<int>(c));
    for (std::size_t i = 0; i < n; ++i) {
      if (static_cast<int>(i) == runner || s.last_cpu[i] < 0) continue;
      if (mcfg_.core_of(s.last_cpu[i]) != runner_core) continue;
      if (s.state[i] == ThreadState::kDone) continue;
      dist_.push_back(&s.warmth[i]);
      dist_dec_.push_back(dec);
    }
  }

  // Unplaced live threads accrue their state's wait time; one entry per
  // thread bounds the list.
  is_placed_.assign(n, 0);
  for (const auto& c : machine_.cpus()) {
    if (c.thread != Cpu::kIdle) {
      is_placed_[static_cast<std::size_t>(c.thread)] = 1;
    }
  }
  wait_.clear();
  wait_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (is_placed_[i]) continue;
    switch (s.state[i]) {
      case ThreadState::kReady:
        wait_.push_back(&s.ready_wait_us[i]);
        break;
      case ThreadState::kBarrierWait:
        wait_.push_back(&s.barrier_wait_us[i]);
        break;
      case ThreadState::kIoWait:
        wait_.push_back(&s.io_wait_us[i]);
        break;
      case ThreadState::kManagerBlocked:
        wait_.push_back(&s.mgr_blocked_us[i]);
        break;
      case ThreadState::kDone:
        break;
    }
  }

  // Only a slot's progress moves, so only a slot's job can move its front,
  // and only that job's barrier waiters can wake: any other waiter stayed
  // asleep against the same front when its job last moved. Fronts are read
  // only for coupled jobs.
  front_jobs_.clear();
  for (const PlacedThread& p : placed_) {
    const int job = s.app_id[static_cast<std::size_t>(p.tid)];
    if (s.coupled[static_cast<std::size_t>(p.tid)] &&
        std::find(front_jobs_.begin(), front_jobs_.end(), job) ==
            front_jobs_.end()) {
      front_jobs_.push_back(job);
    }
  }
  std::sort(front_jobs_.begin(), front_jobs_.end());
  waiters_.clear();
  waiters_.reserve(n);
  for (const int j : front_jobs_) {
    for (const int tid : machine_.job(j).thread_ids) {
      if (s.state[static_cast<std::size_t>(tid)] == ThreadState::kBarrierWait) {
        waiters_.push_back(tid);
      }
    }
  }
}

std::uint64_t Engine::quiet_horizon(SimTime until) const {
  if (ecfg_.max_batch_ticks <= 1) return 0;
  const SimTime tick_us = ecfg_.tick_us;
  std::uint64_t horizon = std::min<std::uint64_t>(
      ecfg_.max_batch_ticks, ticks_before(now_, tick_us, until));
  if (horizon == 0) return 0;
  // The scheduler must certify its tick() calls are no-ops over the horizon
  // (given frozen states and placements, which every quiet tick keeps).
  horizon = std::min(
      horizon, ticks_before(now_, tick_us,
                            scheduler_->quiescent_until(machine_, now_)));
  // Open-system arrivals admit jobs at tick start.
  if (pending_next_ < pending_.size()) {
    horizon = std::min(
        horizon, ticks_before(now_, tick_us, pending_[pending_next_].when));
  }
  // I/O wake-ups fire when T + tick >= io_wake_us.
  const SoAStore& s = machine_.store();
  for (std::size_t i = 0; i < s.size() && horizon > 0; ++i) {
    if (s.state[i] != ThreadState::kIoWait) continue;
    const SimTime wake = s.io_wake_us[i];
    if (wake <= tick_us) return 0;
    horizon = std::min(horizon, ticks_before(now_, tick_us, wake - tick_us));
  }
  return horizon;
}

void Engine::open_noise_windows() {
  if (ecfg_.os_noise_interval_us == 0) return;
  for (std::size_t c = 0; c < noise_next_.size(); ++c) {
    if (now_ >= noise_next_[c]) {
      noise_until_[c] =
          now_ + static_cast<SimTime>(rng_.uniform(
                     static_cast<double>(ecfg_.os_noise_min_us),
                     static_cast<double>(ecfg_.os_noise_max_us)));
      noise_next_[c] =
          noise_until_[c] +
          static_cast<SimTime>(rng_.uniform(
              0.5 * static_cast<double>(ecfg_.os_noise_interval_us),
              1.5 * static_cast<double>(ecfg_.os_noise_interval_us)));
    }
  }
}

std::size_t Engine::bus_agents() const noexcept {
  std::size_t stolen = 0;
  for (const PlacedThread& p : placed_) stolen += p.stolen ? 1 : 0;
  return demands_.size() - stolen;
}

void Engine::update_smt_penalty() {
  // SMT: per-context penalty when a sibling context on the same core is
  // actively executing (see SmtConfig). Spinning siblings are excluded —
  // a spin loop leaves the core's execution resources mostly free — and so
  // are stolen ones, whose context runs the kernel's work, not a thread's.
  smt_penalty_.assign(placed_.size(), 1.0);
  if (mcfg_.threads_per_core <= 1) return;
  placed_idx_by_cpu_.assign(machine_.cpus().size(), -1);
  for (std::size_t i = 0; i < placed_.size(); ++i) {
    placed_idx_by_cpu_[static_cast<std::size_t>(placed_[i].cpu)] =
        static_cast<int>(i);
  }
  for (std::size_t i = 0; i < placed_.size(); ++i) {
    if (!placed_[i].active()) continue;
    const int core = mcfg_.core_of(placed_[i].cpu);
    double max_sibling_alpha = -1.0;
    for (int c = core * mcfg_.threads_per_core;
         c < (core + 1) * mcfg_.threads_per_core; ++c) {
      if (c == placed_[i].cpu) continue;
      const int j = placed_idx_by_cpu_[static_cast<std::size_t>(c)];
      if (j < 0 || !placed_[static_cast<std::size_t>(j)].active()) continue;
      // resolve() already derived every agent's alpha; reuse instead of
      // paying the pow() again.
      max_sibling_alpha = std::max(
          max_sibling_alpha, bus_ws_.alphas[static_cast<std::size_t>(j)]);
    }
    if (max_sibling_alpha >= 0.0) {
      const double own_alpha = bus_ws_.alphas[i];
      smt_penalty_[i] = 1.0 + mcfg_.smt.base_penalty +
                        mcfg_.smt.memory_overlap_penalty *
                            std::min(own_alpha, max_sibling_alpha);
    }
  }
}

double Engine::tick_delta(std::size_t i, std::size_t ti, double tick) const {
  const SoAStore& s = machine_.store();
  const double affinity_penalty =
      1.0 + s.migration_sensitivity[ti] * (1.0 - s.warmth[ti]);
  const double total_slowdown =
      bus_ws_.result.slowdown[i] * affinity_penalty * smt_penalty_[i];
  assert(total_slowdown >= 1.0 - kEps);
  return tick / total_slowdown;
}

void Engine::refresh_job_fronts() {
  job_front_.resize(machine_.jobs().size());
  for (const auto& j : machine_.jobs()) refresh_job_front(j);
}

void Engine::refresh_job_front(const Job& j) {
  // Completed jobs keep an infinity front: nothing reads it — classification
  // only consults fronts of placed (live) threads and no thread of a
  // completed job waits at a barrier — so skipping their thread scans keeps
  // this pass proportional to live work. Done threads of *live* jobs still
  // participate: their progress can sit a hair below work_us (within the
  // completion epsilon) and the front min must see the same values it
  // always did.
  double front = std::numeric_limits<double>::infinity();
  if (!j.completed) {
    const SoAStore& s = machine_.store();
    for (int tid : j.thread_ids) {
      front = std::min(front, s.progress_us[static_cast<std::size_t>(tid)]);
    }
  }
  job_front_[static_cast<std::size_t>(j.id)] = front;
}

}  // namespace bbsched::sim
