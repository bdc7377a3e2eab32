#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace bbsched::sim {

namespace {
constexpr double kEps = 1e-9;

/// Number of tick start times in {start, start+tick, ...} strictly before
/// `bound` (the batch-horizon helper: how many replay ticks fit).
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
  // At most one stolen resident and one batch thread per CPU. Warm-up
  // rarely meets a batch with a stolen CPU or with every CPU busy, so
  // without these the first such batch would allocate mid-run.
  const auto ncpus = static_cast<std::size_t>(mcfg.num_cpus);
  batch_stolen_.reserve(ncpus);
  batch_threads_.reserve(ncpus);
  batch_frac_.reserve(ncpus);
  batch_pnew_.reserve(ncpus);
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
  // exist) has completed; all-infinite workloads run the full span.
  while (now_ < until &&
         !(pending_next_ >= pending_.size() && machine_.has_finite_jobs() &&
           machine_.all_finite_jobs_done())) {
    const bool structural = step_once();
    // Quantum batching: after an event-free tick, fast-forward through the
    // ticks in which provably nothing can happen. An attached observer
    // expects a callback per tick, so it forces per-tick stepping.
    if (!structural && observer_ == nullptr && ecfg_.max_batch_ticks > 1) {
      replay_quiet_ticks(until);
    }
  }
  return now_;
}

void Engine::step() {
  (void)step_once();
}

bool Engine::step_once() {
  if (!started_) {
    scheduler_->start(machine_, trace_);
    started_ = true;
  }
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
  const bool structural = execute_tick();
  now_ += ecfg_.tick_us;
  if (observer_) observer_(*this);
  return structural;
}

// The per-tick simulation loop (allocation-free in steady state).
bool Engine::execute_tick() {
  const double tick = static_cast<double>(ecfg_.tick_us);
  const auto& cache_cfg = mcfg_.cache;
  SoAStore& s = machine_.store();
  bool structural = false;

  // Barrier front per job, needed once at tick start so sibling updates
  // within the tick are order-independent. The cache is maintained at the
  // end of every tick (barrier_transitions); only job admissions invalidate
  // it between ticks.
  if (job_front_.size() != machine_.jobs().size()) refresh_job_fronts();

  // OS-noise bookkeeping: open new steal windows whose start time passed.
  if (ecfg_.os_noise_interval_us > 0) {
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

  // Gather placed threads and their demands (into reusable scratch). All
  // inputs stream from the SoA arrays; the flattened spec constants avoid
  // the Job -> JobSpec pointer chase of the old AoS layout.
  placed_.clear();
  demands_.clear();
  weights_.clear();
  placed_.reserve(machine_.cpus().size());
  for (std::size_t c = 0; c < machine_.cpus().size(); ++c) {
    const int tid = machine_.cpus()[c].thread;
    if (tid == Cpu::kIdle) continue;
    const auto ti = static_cast<std::size_t>(tid);
    if (now_ < noise_until_[c]) {
      // The kernel stole this CPU for the tick: the resident thread makes
      // no progress and issues no traffic.
      s.stolen_us[ti] += tick;
      continue;
    }
    assert(s.state[ti] == ThreadState::kReady &&
           "only runnable threads may be placed");

    double limit = s.work_us[ti];
    bool barrier_limited = false;
    if (s.coupled[ti]) {
      const double barrier_limit =
          job_front_[static_cast<std::size_t>(s.app_id[ti])] +
          s.barrier_interval_us[ti];
      if (barrier_limit < limit) {
        limit = barrier_limit;
        barrier_limited = true;
      }
    }
    if (s.io_enabled[ti] && s.next_io_at_progress[ti] < limit) {
      // Computation pauses at the next I/O issue point.
      limit = s.next_io_at_progress[ti];
      barrier_limited = false;
    }
    const bool spinning = barrier_limited && s.progress_us[ti] >= limit - kEps;

    double demand = 0.0;
    if (!spinning) {
      demand = s.demand[ti]->rate(s.tidx[ti], s.progress_us[ti]);
      // Cold caches refill from memory: extra uncontended demand.
      demand *= 1.0 + s.cold_demand_boost[ti] * (1.0 - s.warmth[ti]);
    }
    placed_.push_back(
        {static_cast<int>(c), tid, limit, spinning, barrier_limited});
    demands_.push_back(demand);
    weights_.push_back(s.bus_priority[ti]);
  }

  // I/O DMA agents: devices transferring on behalf of blocked threads are
  // additional bus masters; their demand entries follow the placed ones.
  dma_tids_.clear();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.state[i] != ThreadState::kIoWait) continue;
    if (s.io_dma_tps[i] <= 0.0) continue;
    dma_tids_.push_back(static_cast<int>(i));
    demands_.push_back(s.io_dma_tps[i]);
    weights_.push_back(mcfg_.bus.dma_arbitration_weight);
  }

  // Resolve into the engine's workspace: slowdown/granted/alphas buffers are
  // reused tick over tick, never reallocated in steady state.
  const BusResolution& bus = bus_.resolve(demands_, weights_, bus_ws_);
  ++stats_.bus_resolves;
  update_smt_penalty();

  ++stats_.total_ticks;
  if (!demands_.empty()) {
    stats_.bus_utilization.add(bus.total_granted / bus.effective_capacity);
    stats_.stretch.add(bus.stretch);
    if (bus.saturated) ++stats_.saturated_ticks;
    stats_.total_granted_transactions += bus.total_granted * tick;
  }

  // Observability: metrics are a few preallocated increments; the bus
  // event is recorded every tick — idle ticks included — so any span of
  // simulated time (a quantum, a noise window) is guaranteed coverage.
  if (metrics_) {
    m_ticks_->inc();
    if (!demands_.empty()) {
      m_bus_utilization_->observe(bus.total_granted /
                                  bus.effective_capacity);
      m_bus_stretch_->observe(bus.stretch);
      if (bus.saturated) m_saturated_ticks_->inc();
      m_granted_transactions_->inc(bus.total_granted * tick);
    }
  }
  if (tracer_ && tracer_->enabled()) {
    tracer_->bus_resolution(now_, resolution_payload(bus, demands_.size()));
  }

  // Advance placed threads.
  for (std::size_t i = 0; i < placed_.size(); ++i) {
    const PlacedThread& p = placed_[i];
    const auto ti = static_cast<std::size_t>(p.tid);
    const bool coupled = s.coupled[ti] != 0;

    trace_.occupy(now_, now_ + ecfg_.tick_us, s.app_id[ti], p.tid, p.cpu);

    if (p.spinning) {
      s.spin_us[ti] += tick;
      s.consecutive_spin_us[ti] += tick;
      if (coupled && s.consecutive_spin_us[ti] >=
                         static_cast<double>(ecfg_.spin_grace_us)) {
        // Spin-then-block: yield the processor until siblings catch up.
        s.state[ti] = ThreadState::kBarrierWait;
        s.consecutive_spin_us[ti] = 0.0;
        machine_.vacate(p.cpu);
        structural = true;
        if (tracer_ && tracer_->enabled()) {
          tracer_->job_state_change(now_, {s.app_id[ti], p.tid,
                                           obs::JobState::kReady,
                                           obs::JobState::kBarrierWait});
        }
      }
      continue;
    }

    const double delta = tick_delta(i, ti, tick);
    const double allowed = std::max(0.0, p.limit - s.progress_us[ti]);
    const double frac = delta > 0.0 ? std::min(1.0, allowed / delta) : 1.0;

    s.progress_us[ti] += delta * frac;
    s.run_us[ti] += tick * frac;
    s.bus_transactions[ti] += bus.granted[i] * tick * frac;
    s.bus_attempts[ti] += demands_[i] * tick * frac;
    if (frac < 1.0 && p.barrier_limited) {
      // Ran into the barrier mid-tick: the remainder was spent spinning.
      s.spin_us[ti] += tick * (1.0 - frac);
      s.consecutive_spin_us[ti] += tick * (1.0 - frac);
    } else {
      s.consecutive_spin_us[ti] = 0.0;
    }
    s.warmth[ti] = std::min(
        1.0, s.warmth[ti] + tick / static_cast<double>(cache_cfg.warmup_us));

    // I/O issue: computation reached the next I/O point (and not the end
    // of the job) — block and start the DMA transfer.
    if (s.io_enabled[ti] &&
        s.progress_us[ti] >= s.next_io_at_progress[ti] - kEps &&
        s.progress_us[ti] < s.work_us[ti] - kEps) {
      s.state[ti] = ThreadState::kIoWait;
      s.io_wake_us[ti] =
          now_ + ecfg_.tick_us + static_cast<SimTime>(s.io_burst_us[ti]);
      s.next_io_at_progress[ti] += s.io_period_progress_us[ti];
      machine_.vacate(p.cpu);
      structural = true;
      if (tracer_ && tracer_->enabled()) {
        tracer_->job_state_change(now_, {s.app_id[ti], p.tid,
                                         obs::JobState::kReady,
                                         obs::JobState::kIoWait});
      }
      continue;
    }

    // Completion.
    if (s.progress_us[ti] >= s.work_us[ti] - kEps) {
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
        trace_.event({now_ + ecfg_.tick_us, trace::EventKind::kJobComplete,
                      jm.id, -1, -1, 0.0});
        if (tracer_ && tracer_->enabled()) {
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

  // I/O completions.
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.state[i] == ThreadState::kIoWait &&
        now_ + ecfg_.tick_us >= s.io_wake_us[i]) {
      s.state[i] = ThreadState::kReady;
      structural = true;
      if (tracer_ && tracer_->enabled()) {
        tracer_->job_state_change(now_ + ecfg_.tick_us,
                                  {s.app_id[i], static_cast<int>(i),
                                   obs::JobState::kIoWait,
                                   obs::JobState::kReady});
      }
    }
  }

  apply_cache_disturbance(tick);
  account_unplaced(tick);
  if (barrier_transitions()) structural = true;
  return structural;
}

void Engine::update_smt_penalty() {
  // SMT: per-context penalty when a sibling context on the same core is
  // actively executing (see SmtConfig). Spinning siblings are excluded —
  // a spin loop leaves the core's execution resources mostly free.
  smt_penalty_.assign(placed_.size(), 1.0);
  if (mcfg_.threads_per_core <= 1) return;
  placed_idx_by_cpu_.assign(machine_.cpus().size(), -1);
  for (std::size_t i = 0; i < placed_.size(); ++i) {
    placed_idx_by_cpu_[static_cast<std::size_t>(placed_[i].cpu)] =
        static_cast<int>(i);
  }
  for (std::size_t i = 0; i < placed_.size(); ++i) {
    if (placed_[i].spinning) continue;
    const int core = mcfg_.core_of(placed_[i].cpu);
    double max_sibling_alpha = -1.0;
    for (int c = core * mcfg_.threads_per_core;
         c < (core + 1) * mcfg_.threads_per_core; ++c) {
      if (c == placed_[i].cpu) continue;
      const int j = placed_idx_by_cpu_[static_cast<std::size_t>(c)];
      if (j < 0 || placed_[static_cast<std::size_t>(j)].spinning) continue;
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

void Engine::apply_cache_disturbance(double tick) {
  // A running thread's working set evicts cached state of the other threads
  // whose affinity home shares a cache with the runner: the same context
  // when threads_per_core == 1, the whole core's contexts under SMT (the
  // sibling context shares the L2).
  const auto& cache_cfg = mcfg_.cache;
  SoAStore& s = machine_.store();
  const std::size_t n = s.size();
  for (std::size_t c = 0; c < machine_.cpus().size(); ++c) {
    const int runner = machine_.cpus()[c].thread;
    if (runner == Cpu::kIdle) continue;
    const double footprint_frac =
        s.footprint_frac[static_cast<std::size_t>(runner)];
    if (footprint_frac <= 0.0) continue;
    const double dec =
        footprint_frac * tick / static_cast<double>(cache_cfg.warmup_us);
    const int runner_core = mcfg_.core_of(static_cast<int>(c));
    for (std::size_t i = 0; i < n; ++i) {
      if (static_cast<int>(i) == runner || s.last_cpu[i] < 0) continue;
      if (mcfg_.core_of(s.last_cpu[i]) != runner_core) continue;
      if (s.state[i] == ThreadState::kDone) continue;
      s.warmth[i] = std::max(0.0, s.warmth[i] - dec);
    }
  }
}

void Engine::account_unplaced(double tick) {
  SoAStore& s = machine_.store();
  is_placed_.assign(s.size(), 0);
  for (const auto& c : machine_.cpus()) {
    if (c.thread != Cpu::kIdle) {
      is_placed_[static_cast<std::size_t>(c.thread)] = 1;
    }
  }
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (is_placed_[i]) continue;
    switch (s.state[i]) {
      case ThreadState::kReady:
        s.ready_wait_us[i] += tick;
        break;
      case ThreadState::kBarrierWait:
        s.barrier_wait_us[i] += tick;
        break;
      case ThreadState::kIoWait:
        s.io_wait_us[i] += tick;
        break;
      case ThreadState::kManagerBlocked:
        s.mgr_blocked_us[i] += tick;
        break;
      case ThreadState::kDone:
        break;
    }
  }
}

bool Engine::barrier_transitions() {
  // Progress advanced this tick: rebuild the cached fronts once, then both
  // this wake-up pass and the next tick's barrier-limit computation read
  // the cache instead of re-scanning siblings per job.
  refresh_job_fronts();
  SoAStore& s = machine_.store();
  bool woke = false;
  for (const auto& j : machine_.jobs()) {
    if (j.completed || j.spec.barrier_interval_us <= 0.0) continue;
    const double front = job_front_[static_cast<std::size_t>(j.id)];
    for (int tid : j.thread_ids) {
      const auto ti = static_cast<std::size_t>(tid);
      if (s.state[ti] == ThreadState::kBarrierWait &&
          s.progress_us[ti] < front + j.spec.barrier_interval_us - kEps) {
        s.state[ti] = ThreadState::kReady;
        woke = true;
        if (tracer_ && tracer_->enabled()) {
          tracer_->job_state_change(now_, {s.app_id[ti], tid,
                                           obs::JobState::kBarrierWait,
                                           obs::JobState::kReady});
        }
      }
    }
  }
  return woke;
}

void Engine::refresh_job_fronts() {
  // Completed jobs keep an infinity front: nothing reads it — the gather
  // loop only consults fronts of placed (live) threads and the wake-up scan
  // skips completed jobs — so skipping their thread scans keeps this pass
  // proportional to live work. Done threads of *live* jobs still
  // participate: their progress can sit a hair below work_us (within the
  // completion epsilon) and the front min must see the same values it
  // always did.
  job_front_.assign(machine_.jobs().size(),
                    std::numeric_limits<double>::infinity());
  const SoAStore& s = machine_.store();
  for (const auto& j : machine_.jobs()) {
    if (j.completed) continue;
    double front = std::numeric_limits<double>::infinity();
    for (int tid : j.thread_ids) {
      front = std::min(front, s.progress_us[static_cast<std::size_t>(tid)]);
    }
    job_front_[static_cast<std::size_t>(j.id)] = front;
  }
}

// Validates batch soundness and computes the event horizon.
std::uint64_t Engine::prepare_batch(SimTime until) {
  const SimTime tick_us = ecfg_.tick_us;
  const double tick = static_cast<double>(tick_us);
  const SimTime start = now_;  // time of the first candidate replay tick
  const SoAStore& s = machine_.store();

  std::uint64_t budget = ecfg_.max_batch_ticks;
  budget = std::min(budget, ticks_before(start, tick_us, until));
  if (budget == 0) return 0;

  // The scheduler must certify its tick() calls are no-ops over the window
  // (given frozen states/placements — every replayed tick preserves both).
  budget = std::min(
      budget,
      ticks_before(start, tick_us,
                   scheduler_->quiescent_until(machine_, start)));
  if (budget == 0) return 0;

  // Open-system arrivals admit jobs at tick start.
  if (pending_next_ < pending_.size()) {
    budget = std::min(
        budget, ticks_before(start, tick_us, pending_[pending_next_].when));
  }

  // OS noise: opening a steal window consumes RNG draws and flips the
  // resident thread's stolen status, so every window boundary ends the
  // batch. A currently-stolen CPU must stay stolen for the whole window.
  if (ecfg_.os_noise_interval_us > 0) {
    for (std::size_t c = 0; c < noise_next_.size(); ++c) {
      budget = std::min(budget, ticks_before(start, tick_us, noise_next_[c]));
      if (machine_.cpus()[c].thread != Cpu::kIdle &&
          start - tick_us < noise_until_[c]) {
        budget = std::min(budget,
                          ticks_before(start, tick_us, noise_until_[c]));
      }
    }
  }
  if (budget == 0) return 0;

  // I/O wake-ups fire when T + tick >= io_wake_us.
  batch_dma_.clear();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.state[i] != ThreadState::kIoWait) continue;
    const SimTime wake = s.io_wake_us[i];
    if (wake <= tick_us) return 0;
    budget = std::min(budget, ticks_before(start, tick_us, wake - tick_us));
  }
  if (budget == 0) return 0;

  // Placed threads, with the rates of the last full tick's resolution. Their
  // demands were derived at that tick's progress and warmth, so none counts
  // as derived yet: the first replayed tick re-derives every one.
  const BusResolution& bus = bus_ws_.result;
  batch_threads_.clear();
  batch_stolen_.clear();
  for (std::size_t i = 0; i < placed_.size(); ++i) {
    const PlacedThread& p = placed_[i];
    const auto ti = static_cast<std::size_t>(p.tid);
    BatchThread bt;
    bt.tid = p.tid;
    bt.job = s.app_id[ti];
    bt.cpu = p.cpu;
    bt.pi = i;
    bt.spinning = p.spinning;
    bt.coupled = s.coupled[ti] != 0;
    bt.io_enabled = s.io_enabled[ti] != 0;
    bt.work = s.work_us[ti];
    bt.interval = s.barrier_interval_us[ti];
    bt.next_io = s.next_io_at_progress[ti];
    bt.delta = 0.0;
    bt.granted_tick = bus.granted[i] * tick;
    bt.attempt_tick = demands_[i] * tick;
    bt.warmth = std::numeric_limits<double>::quiet_NaN();
    bt.steady_until = -std::numeric_limits<double>::infinity();
    batch_threads_.push_back(bt);
  }

  // DMA agents behind placed entries: constant demand by construction.
  for (std::size_t k = 0; k < dma_tids_.size(); ++k) {
    const std::size_t idx = placed_.size() + k;
    batch_dma_.push_back(
        {dma_tids_[k], bus.granted[idx] * tick, demands_[idx] * tick});
  }

  // Noise-stolen residents accrue stolen time each tick.
  if (ecfg_.os_noise_interval_us > 0) {
    for (std::size_t c = 0; c < machine_.cpus().size(); ++c) {
      const int tid = machine_.cpus()[c].thread;
      if (tid != Cpu::kIdle && start - tick_us < noise_until_[c]) {
        batch_stolen_.push_back(tid);
      }
    }
  }

  // Cache-disturbance pairs (runner evicting a same-core thread's warmth)
  // are fixed while placements and states hold. A victim that is itself a
  // placed thread sees its warmth move, so the replay re-derives its demand.
  // A thread is the victim of at most one runner per context of its last
  // core, which bounds the pair lists; reserving that bound keeps them from
  // growing mid-run.
  SoAStore& sm = machine_.store();
  const std::size_t n = s.size();
  const std::size_t max_pairs =
      n * static_cast<std::size_t>(mcfg_.threads_per_core);
  batch_dist_.clear();
  batch_dist_dec_.clear();
  batch_dist_.reserve(max_pairs);
  batch_dist_dec_.reserve(max_pairs);
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
      batch_dist_.push_back(&sm.warmth[i]);
      batch_dist_dec_.push_back(dec);
    }
  }

  // Unplaced live threads accrue per-state wait time. States are frozen
  // for the whole batch (every transition ends it), so resolve each
  // thread's accumulator once. Reserving one slot per thread keeps a later
  // batch with more unplaced threads (a degraded manager blocking whole
  // gangs) from growing the list mid-run.
  batch_wait_.clear();
  batch_wait_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (is_placed_[i]) continue;  // current: account_unplaced ran this tick
    switch (s.state[i]) {
      case ThreadState::kReady:
        batch_wait_.push_back(&sm.ready_wait_us[i]);
        break;
      case ThreadState::kBarrierWait:
        batch_wait_.push_back(&sm.barrier_wait_us[i]);
        break;
      case ThreadState::kIoWait:
        batch_wait_.push_back(&sm.io_wait_us[i]);
        break;
      case ThreadState::kManagerBlocked:
        batch_wait_.push_back(&sm.mgr_blocked_us[i]);
        break;
      case ThreadState::kDone:
        break;
    }
  }

  return budget;
}

// The batched-tick replay loop (quantum batching).
void Engine::replay_quiet_ticks(SimTime until) {
  const std::uint64_t budget = prepare_batch(until);
  if (budget == 0) return;

  const SimTime tick_us = ecfg_.tick_us;
  const double tick = static_cast<double>(tick_us);
  const double warm_inc =
      tick / static_cast<double>(mcfg_.cache.warmup_us);
  const double grace = static_cast<double>(ecfg_.spin_grace_us);
  SoAStore& s = machine_.store();
  const BusResolution& bus = bus_ws_.result;

  // Per-tick values of the current resolution, refreshed after each resolve.
  const bool has_demands = !demands_.empty();
  const bool trace_on = trace_.enabled();
  const bool tracer_on = tracer_ && tracer_->enabled();
  double util = 0.0;
  double granted_x_tick = 0.0;
  obs::BusResolutionPayload bus_payload{};
  const auto take_resolution = [&] {
    util = has_demands ? bus.total_granted / bus.effective_capacity : 0.0;
    granted_x_tick = bus.total_granted * tick;
    if (tracer_on) bus_payload = resolution_payload(bus, demands_.size());
  };
  take_resolution();

  batch_frac_.resize(batch_threads_.size());
  batch_pnew_.resize(batch_threads_.size());

  std::uint64_t done = 0;
  while (done < budget) {
    // ---- phase A: demand drift and per-tick event checks. Every
    // expression matches the full path bit for bit; any event defers the
    // tick to the full path, which re-gathers and re-resolves, so the
    // scratch this phase rewrites (demands_, the workspace, smt_penalty_)
    // needs no restoring. ----
    //
    // A thread is settled while its warmth is the one its demand was
    // derived at and its progress stays a tick short of the demand model's
    // steady bound (the margin absorbs the bound's own rounding); any other
    // thread re-derives its demand as the gather does.
    bool resolve = false;
    for (BatchThread& bt : batch_threads_) {
      if (bt.spinning) continue;
      const auto ti = static_cast<std::size_t>(bt.tid);
      const double w = s.warmth[ti];
      const double p = s.progress_us[ti];
      if (w == bt.warmth && p + bt.delta < bt.steady_until) continue;
      if (!(p < bt.steady_until)) {
        bt.steady_until = s.demand[ti]->steady_until(s.tidx[ti], p);
      }
      double d = s.demand[ti]->rate(s.tidx[ti], p);
      d *= 1.0 + s.cold_demand_boost[ti] * (1.0 - w);
      bt.warmth = w;
      if (d != demands_[bt.pi]) {  // bitwise: the resolve's input moved
        demands_[bt.pi] = d;
        bt.attempt_tick = d * tick;
        resolve = true;
      }
      bt.delta = tick_delta(bt.pi, ti, tick);
    }
    if (resolve) {
      bus_.resolve(demands_, weights_, bus_ws_);
      ++stats_.bus_resolves;
      update_smt_penalty();
      for (BatchThread& bt : batch_threads_) {
        if (bt.spinning) continue;
        bt.granted_tick = bus.granted[bt.pi] * tick;
        bt.delta = tick_delta(bt.pi, static_cast<std::size_t>(bt.tid), tick);
      }
      for (std::size_t k = 0; k < batch_dma_.size(); ++k) {
        batch_dma_[k].granted_tick = bus.granted[placed_.size() + k] * tick;
      }
      take_resolution();
    }

    bool event = false;
    for (std::size_t b = 0; b < batch_threads_.size() && !event; ++b) {
      const BatchThread& bt = batch_threads_[b];
      const auto ti = static_cast<std::size_t>(bt.tid);
      double limit = bt.work;
      bool barrier_limited = false;
      if (bt.coupled) {
        const double barrier_limit =
            job_front_[static_cast<std::size_t>(bt.job)] + bt.interval;
        if (barrier_limit < limit) {
          limit = barrier_limit;
          barrier_limited = true;
        }
      }
      if (bt.io_enabled && bt.next_io < limit) {
        limit = bt.next_io;
        barrier_limited = false;
      }
      const double p = s.progress_us[ti];
      const bool spinning_now = barrier_limited && p >= limit - kEps;
      if (spinning_now != bt.spinning) {
        event = true;  // spin classification flipped: demand set changes
        break;
      }
      if (bt.spinning) {
        if (bt.coupled && s.consecutive_spin_us[ti] + tick >= grace) {
          event = true;  // spin-then-block would fire
        }
        continue;
      }
      const double allowed = std::max(0.0, limit - p);
      const double frac =
          bt.delta > 0.0 ? std::min(1.0, allowed / bt.delta) : 1.0;
      const double p_new = p + bt.delta * frac;
      if (frac < 1.0 && !barrier_limited) {
        event = true;  // ran into an I/O point or end of work
        break;
      }
      if (bt.io_enabled && p_new >= bt.next_io - kEps &&
          p_new < bt.work - kEps) {
        event = true;  // I/O issue
        break;
      }
      if (p_new >= bt.work - kEps) {
        event = true;  // completion
        break;
      }
      batch_frac_[b] = frac;
      batch_pnew_[b] = p_new;
    }
    if (event) break;

    // ---- phase B: commit the tick (same operation order as the full
    // path: stats, observability, advance, DMA, disturbance, waits). ----
    ++stats_.total_ticks;
    ++stats_.batched_ticks;
    if (has_demands) {
      stats_.bus_utilization.add(util);
      stats_.stretch.add(bus.stretch);
      if (bus.saturated) ++stats_.saturated_ticks;
      stats_.total_granted_transactions += granted_x_tick;
    }
    if (metrics_) {
      m_ticks_->inc();
      if (has_demands) {
        m_bus_utilization_->observe(util);
        m_bus_stretch_->observe(bus.stretch);
        if (bus.saturated) m_saturated_ticks_->inc();
        m_granted_transactions_->inc(granted_x_tick);
      }
    }
    if (tracer_on) tracer_->bus_resolution(now_, bus_payload);

    for (std::size_t b = 0; b < batch_threads_.size(); ++b) {
      const BatchThread& bt = batch_threads_[b];
      const auto ti = static_cast<std::size_t>(bt.tid);
      if (trace_on) {
        trace_.occupy(now_, now_ + tick_us, bt.job, bt.tid, bt.cpu);
      }
      if (bt.spinning) {
        s.spin_us[ti] += tick;
        s.consecutive_spin_us[ti] += tick;
        continue;
      }
      const double frac = batch_frac_[b];
      s.progress_us[ti] = batch_pnew_[b];
      s.run_us[ti] += tick * frac;
      s.bus_transactions[ti] += bt.granted_tick * frac;
      s.bus_attempts[ti] += bt.attempt_tick * frac;
      if (frac < 1.0) {
        // Only barrier-limited threads can be here with frac < 1 (phase A
        // defers the other limits): the remainder was spent spinning.
        s.spin_us[ti] += tick * (1.0 - frac);
        s.consecutive_spin_us[ti] += tick * (1.0 - frac);
      } else {
        s.consecutive_spin_us[ti] = 0.0;
      }
      s.warmth[ti] = std::min(1.0, s.warmth[ti] + warm_inc);
    }
    for (const BatchDma& d : batch_dma_) {
      const auto ti = static_cast<std::size_t>(d.tid);
      s.bus_transactions[ti] += d.granted_tick;
      s.bus_attempts[ti] += d.attempt_tick;
    }
    for (const int tid : batch_stolen_) {
      s.stolen_us[static_cast<std::size_t>(tid)] += tick;
    }
    for (std::size_t k = 0; k < batch_dist_.size(); ++k) {
      *batch_dist_[k] = std::max(0.0, *batch_dist_[k] - batch_dist_dec_[k]);
    }
    for (double* acc : batch_wait_) *acc += tick;

    // ---- phase C: barrier fronts and wake-ups, exactly as the full path
    // ends a tick. A wake changes a thread state, so it closes the batch
    // (the scheduler may react next tick). ----
    const bool woke = barrier_transitions();
    now_ += tick_us;
    ++done;
    if (woke) break;
  }
  if (done > 0) ++stats_.batches;
}

}  // namespace bbsched::sim
