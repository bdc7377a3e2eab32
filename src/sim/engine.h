// Quantum-stepped simulation engine.
//
// Each tick the engine (1) lets the scheduler adjust placements, (2) derives
// every placed thread's uncontended bus demand (barrier-spinning threads
// demand ~nothing), (3) resolves bus contention analytically, (4) advances
// progress / warmth / accounting, and (5) applies barrier spin-then-block
// and completion transitions. See DESIGN.md §3 for the model.
#pragma once

#include <functional>
#include <memory>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/bus_model.h"
#include "sim/config.h"
#include "sim/machine.h"
#include "sim/scheduler.h"
#include "stats/online_stats.h"
#include "stats/rng.h"
#include "trace/schedule_trace.h"

namespace bbsched::sim {

/// Aggregate machine-level statistics accumulated per run.
struct EngineStats {
  stats::OnlineStats bus_utilization;   ///< granted/effective per tick
  stats::OnlineStats stretch;           ///< bus stretch factor per tick
  std::uint64_t saturated_ticks = 0;    ///< ticks the saturation eq. was active
  std::uint64_t total_ticks = 0;
  double total_granted_transactions = 0.0;
  /// Quantum batching (DESIGN.md §11): event-free batches entered and the
  /// ticks they replayed (a subset of total_ticks; results bit-identical to
  /// per-tick stepping).
  std::uint64_t batches = 0;
  std::uint64_t batched_ticks = 0;
  /// BusModel::resolve calls: one per full tick, plus one per replayed tick
  /// on which some demand changed (a replay that then meets an event counts
  /// its resolve too). A cost counter like batched_ticks: it depends on the
  /// batch length, the outputs do not.
  std::uint64_t bus_resolves = 0;
};

class Engine {
 public:
  Engine(const MachineConfig& mcfg, const EngineConfig& ecfg,
         std::unique_ptr<Scheduler> scheduler);

  /// Admits a job immediately (delegates to Machine). Must be called
  /// before run().
  int add_job(const JobSpec& spec);

  /// Schedules a job for admission at absolute simulated time `when` (an
  /// open-system arrival). The job connects to the active scheduler when it
  /// arrives, exactly as a late application connects to the CPU manager.
  void submit_job(const JobSpec& spec, SimTime when);

  /// Runs until all finite jobs complete or max_time_us elapses.
  /// Returns simulated end time.
  SimTime run();

  /// Runs until `until` (absolute simulated time) or finite-job completion.
  SimTime run_until(SimTime until);

  /// Executes exactly one tick.
  void step();

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] Machine& machine() noexcept { return machine_; }
  [[nodiscard]] const Machine& machine() const noexcept { return machine_; }
  [[nodiscard]] const BusModel& bus() const noexcept { return bus_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return *scheduler_; }
  [[nodiscard]] trace::ScheduleTrace& trace() noexcept { return trace_; }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return ecfg_; }

  /// Optional observer called after every tick (used by experiments that
  /// sample time series, e.g. the window-length ablation).
  using TickObserver = std::function<void(const Engine&)>;
  void set_tick_observer(TickObserver obs) { observer_ = std::move(obs); }

  /// Attaches a structured event tracer (non-owning; nullptr detaches).
  /// When enabled, every tick records one kBusResolution event and thread
  /// lifecycle transitions record kJobStateChange events — all into the
  /// tracer's preallocated ring, so the tick path stays allocation-free.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Attaches a metrics registry (non-owning; nullptr detaches). Registers
  /// the engine's instruments (see docs/OBSERVABILITY.md for the catalog)
  /// and updates them every tick.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  /// One full tick: arrivals, scheduler, execute, observer. Returns true
  /// when a structural event occurred (any thread state or placement
  /// change), which invalidates quantum-batch preconditions.
  bool step_once();

  /// Returns true on a structural event (see step_once).
  bool execute_tick();
  void account_unplaced(double tick);
  void apply_cache_disturbance(double tick);
  /// Wakes barrier waiters whose siblings caught up; true if any woke.
  bool barrier_transitions();

  /// Recomputes the cached per-job barrier front (min progress over the
  /// job's live threads); completed jobs keep an (unread) infinity front.
  void refresh_job_fronts();

  // ---- quantum batching (DESIGN.md §11) ----
  //
  // After an event-free full tick, replay_quiet_ticks() advances through
  // ticks in which provably nothing changes shape — no arrival, noise
  // boundary, I/O wake or scheduler action — repeating the exact per-tick
  // arithmetic (same operations, same order, bit-identical results) while
  // skipping the scheduler tick, the gather and the disturbance scan. Demand
  // may drift (cache warm-up, demand-model edges): the replay re-derives a
  // thread's demand whenever its warmth moved or its progress nears the
  // model's steady bound, and re-resolves the bus only on ticks where some
  // demand changed bitwise. Any per-tick event check that fires falls back
  // to full stepping for that tick.

  /// Validates batch preconditions, computes the event horizon (max replay
  /// ticks) and fills the batch_* scratch. Returns 0 when batching is not
  /// currently sound.
  std::uint64_t prepare_batch(SimTime until);
  /// Replays up to prepare_batch() ticks; advances now_.
  void replay_quiet_ticks(SimTime until);

  /// Fills smt_penalty_ from placed_ and the workspace's alphas; runs after
  /// every resolve, full tick or replay.
  void update_smt_penalty();
  /// One tick's progress of placed_[i] (thread `ti`) under the workspace's
  /// resolution, its warmth's affinity penalty and its SMT penalty.
  [[nodiscard]] double tick_delta(std::size_t i, std::size_t ti,
                                  double tick) const;

  MachineConfig mcfg_;
  EngineConfig ecfg_;
  Machine machine_;
  BusModel bus_;
  std::unique_ptr<Scheduler> scheduler_;
  trace::ScheduleTrace trace_;
  EngineStats stats_;
  stats::Rng rng_;
  TickObserver observer_;
  SimTime now_ = 0;
  bool started_ = false;

  /// Observability sinks (all non-owning; null = off). The instrument
  /// pointers cache set_metrics() registrations so the tick path pays one
  /// null check + increment, never a name lookup.
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_ticks_ = nullptr;
  obs::Counter* m_saturated_ticks_ = nullptr;
  obs::Counter* m_granted_transactions_ = nullptr;
  obs::Counter* m_job_completions_ = nullptr;
  obs::Histogram* m_bus_utilization_ = nullptr;
  obs::Histogram* m_bus_stretch_ = nullptr;

  /// OS-noise state: until when each CPU is stolen, and when the next
  /// steal begins.
  std::vector<SimTime> noise_until_;
  std::vector<SimTime> noise_next_;

  /// Pending open-system arrivals. Sorted lazily at run start (submit_job
  /// only appends); drained with the `pending_next_` cursor so arrivals
  /// cost amortized O(1) instead of O(n) front-erases.
  struct PendingJob {
    SimTime when;
    JobSpec spec;
  };
  std::vector<PendingJob> pending_;
  std::size_t pending_next_ = 0;
  bool pending_sorted_ = true;

  // ---- per-tick scratch (reused across ticks: the steady-state tick path
  // performs no heap allocation) ----

  /// One placed thread's tick-local view.
  struct PlacedThread {
    int cpu;
    int tid;
    double limit;          // progress bound this tick (barrier/end of work)
    bool spinning;         // already at the bound => pure spin
    bool barrier_limited;  // bound comes from a barrier, not end of work
  };
  std::vector<PlacedThread> placed_;
  std::vector<double> demands_;
  std::vector<double> weights_;
  std::vector<double> smt_penalty_;
  std::vector<int> placed_idx_by_cpu_;
  std::vector<int> dma_tids_;
  std::vector<char> is_placed_;
  BusWorkspace bus_ws_;

  /// Cached barrier front per job, kept current by refresh_job_fronts() at
  /// the end of every tick (and re-derived when jobs arrive). Avoids the
  /// per-job min scans the tick-start loop and barrier_transitions() used
  /// to duplicate.
  std::vector<double> job_front_;

  // ---- quantum-batching scratch (reused across batches; allocation-free
  // in steady state) ----

  /// One placed thread's batch view, in placed_ order. The rates are
  /// refreshed by the replay when their inputs change.
  struct BatchThread {
    int tid;
    int job;
    int cpu;
    std::size_t pi;       ///< index into demands_ / bus workspace arrays
    bool spinning;        ///< pure spinner for the whole batch
    bool coupled;
    bool io_enabled;
    double delta;         ///< tick / total_slowdown
    double granted_tick;  ///< granted rate * tick
    double attempt_tick;  ///< demand * tick
    double warmth;        ///< warmth demands_[pi] was derived at (NaN: none)
    double steady_until;  ///< demand model's steady bound, refreshed lazily
    double work;
    double interval;
    double next_io;
  };
  std::vector<BatchThread> batch_threads_;
  std::vector<double> batch_frac_;  ///< per-BatchThread tick fraction
  std::vector<double> batch_pnew_;  ///< per-BatchThread predicted progress
  /// DMA agents: (thread id, granted*tick, demand*tick).
  struct BatchDma {
    int tid;
    double granted_tick;
    double attempt_tick;
  };
  std::vector<BatchDma> batch_dma_;
  std::vector<int> batch_stolen_;        ///< noise-stolen resident threads
  std::vector<double*> batch_dist_;      ///< disturbance victims' warmth
  std::vector<double> batch_dist_dec_;   ///< matching warmth decrement
  std::vector<double*> batch_wait_;      ///< unplaced wait accumulators
};

}  // namespace bbsched::sim
