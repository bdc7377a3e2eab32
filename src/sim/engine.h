// Quantum-stepped simulation engine.
//
// Each tick the engine (1) derives every placed thread's uncontended bus
// demand (barrier-spinning threads demand ~nothing), (2) resolves bus
// contention analytically, (3) advances progress / warmth / accounting, and
// (4) applies barrier spin-then-block, I/O and completion transitions. A
// gathered tick first lets the scheduler adjust placements and re-gathers the
// runners; a quiet tick reuses the last gather. Both run one tick body. See
// DESIGN.md §3 for the model and §11 for gathered and quiet ticks.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

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
  /// Quantum batching (DESIGN.md §11): runs of consecutive quiet ticks, and
  /// the quiet ticks themselves (a subset of total_ticks; the others are
  /// gathered ticks). Results are bit-identical to per-tick stepping.
  std::uint64_t batches = 0;
  std::uint64_t batched_ticks = 0;
  /// BusModel::resolve calls: one per gathered tick, plus one per quiet
  /// tick on which some demand changed or a runner was stolen, released or
  /// flipped its spin classification (a quiet tick that then meets an event
  /// and re-gathers counts its resolve too). A cost counter like
  /// batched_ticks: it depends on the batch length, the outputs do not.
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

  /// Executes exactly one gathered tick.
  void step();

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] Machine& machine() noexcept { return machine_; }
  [[nodiscard]] const Machine& machine() const noexcept { return machine_; }
  [[nodiscard]] const BusModel& bus() const noexcept { return bus_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return *scheduler_; }
  [[nodiscard]] const trace::ScheduleTrace& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return ecfg_; }

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
  // ---- the tick body (DESIGN.md §11) ----
  //
  // A gathered tick calls Scheduler::tick and rebuilds the slot list
  // (placed_) from the placements: the first tick, step(), the tick after
  // a state-changing event, the tick that ends a quiet horizon, and every
  // tick at max_batch_ticks <= 1. Inside the horizon (quiet_horizon) a
  // quiet tick reuses the list. Both kinds classify every slot, derive the
  // demands that drifted (every one after a gather), resolve the bus if an
  // input changed (always after a gather), commit once, then apply the
  // disturbance, wait, front and wake lists built after the last gathered
  // tick's advance. A quiet tick whose runners would meet a state-changing
  // event hands the tick to the scheduler and a fresh gather: the scheduler
  // may charge a deferred span to the placements its next tick() sees, so
  // none may change before that call (Scheduler::quiescent_until).

  /// Runs one gathered tick at now_, then the quiet ticks of its horizon;
  /// `until` bounds the horizon.
  void run_ticks(SimTime until);
  /// A gathered tick's start: admits due arrivals, runs the scheduler's
  /// tick and rebuilds the slots and DMA agents from the placements.
  void gather();
  /// Builds the disturbance, wait, front and waiter lists after a gathered
  /// tick's advance; they hold until the next gather, since a quiet tick
  /// changes no thread state and no placement.
  void build_tick_lists();
  /// Quiet ticks that may follow an event-free gathered tick: the minimum
  /// of max_batch_ticks, `until`, the scheduler's quiescent_until promise,
  /// the next arrival and the next I/O wake. 0 at max_batch_ticks <= 1.
  [[nodiscard]] std::uint64_t quiet_horizon(SimTime until) const;

  /// Opens the OS-noise steal windows whose start time has come, drawing
  /// from rng_ in CPU order, once at the start of every tick.
  void open_noise_windows();

  /// Recomputes the cached per-job barrier front (min progress over the
  /// job's live threads); completed jobs keep an (unread) infinity front.
  void refresh_job_fronts();
  void refresh_job_front(const Job& j);

  /// Fills smt_penalty_ from placed_ and the workspace's alphas; runs after
  /// every resolve.
  void update_smt_penalty();
  /// Bus agents that count in the stats, metrics and BusResolution payload:
  /// every demands_ entry except the stolen runners' zero-demand slots.
  [[nodiscard]] std::size_t bus_agents() const noexcept;
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
  /// Warmth a running thread gains per tick (tick / cache warm-up time).
  double warm_inc_ = 0.0;
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

  /// OS-noise state: until when each CPU is stolen and when the next steal
  /// begins.
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

  /// The state change a runner's step meets this tick.
  enum class TickEvent { kNone, kBlock, kIoIssue, kComplete };

  /// One slot: a CPU's runner at the last gather. A stolen runner stays a
  /// zero-demand bus agent (DESIGN.md §11 "Demand-only events"). Every tick
  /// re-classifies it; `warmth` and `steady_until` let a quiet tick keep a
  /// settled demand.
  struct PlacedThread {
    int cpu = -1;
    int tid = -1;
    bool stolen = false;           // OS noise holds the CPU: no progress
    bool spinning = false;         // already at the bound => pure spin
    bool barrier_limited = false;  // bound comes from a barrier
    TickEvent event = TickEvent::kNone;
    double limit = 0.0;  // progress bound this tick (barrier/I/O/end of work)
    double delta = 0.0;  // tick / total slowdown
    double frac = 1.0;   // share of the tick spent advancing
    /// Warmth demands_[i] was derived at (NaN: not derived).
    double warmth = std::numeric_limits<double>::quiet_NaN();
    /// Demand model's steady bound, refreshed lazily.
    double steady_until = -std::numeric_limits<double>::infinity();
    /// Executing: neither spinning nor stolen (an active SMT sibling).
    [[nodiscard]] bool active() const noexcept { return !spinning && !stolen; }
  };
  std::vector<PlacedThread> placed_;
  std::vector<double> demands_;
  std::vector<double> weights_;
  std::vector<double> smt_penalty_;
  std::vector<int> placed_idx_by_cpu_;
  std::vector<int> dma_tids_;
  std::vector<char> is_placed_;
  BusWorkspace bus_ws_;
  /// The current resolution's agent count and utilization.
  std::size_t bus_agents_ = 0;
  double bus_util_ = 0.0;

  /// Cached barrier front per job. Only a slot's progress moves, so a tick
  /// refreshes only the slots' coupled jobs (front_jobs_); every front is
  /// re-derived when jobs arrive. An uncoupled job's front is never read.
  std::vector<double> job_front_;

  /// build_tick_lists() output: cache-disturbance victims' warmth with the
  /// matching decrement, unplaced threads' wait accumulators, the slots'
  /// coupled jobs (ascending id) and those jobs' barrier waiters.
  std::vector<double*> dist_;
  std::vector<double> dist_dec_;
  std::vector<double*> wait_;
  std::vector<int> front_jobs_;
  std::vector<int> waiters_;
};

}  // namespace bbsched::sim
