// Structure-of-arrays storage for per-thread simulation state.
//
// The engine's per-tick loops (gather, advance, cache disturbance, unplaced
// accounting, barrier fronts) each touch one or two fields of every thread.
// With an array-of-structs thread record those loops strode ~150-byte
// records and dragged whole cache lines for a single double; SoAStore keeps
// each field in its own contiguous array so the hot loops stream packed
// doubles instead (see DESIGN.md §11).
//
// Demand-side constants of the owning JobSpec (work, barrier interval, cache
// and I/O parameters) are flattened per thread at admission so the gather
// loop reads flat arrays instead of chasing Job -> JobSpec -> CacheProfile
// pointers every tick.
//
// The store is the one access path to per-thread state: the engine,
// the schedulers and the tests all index `machine.store().<field>[tid]`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/job.h"

namespace bbsched::sim {

/// The parallel arrays. All vectors share one length (size()); index =
/// global thread id. Mutable simulation state and flattened JobSpec
/// constants live side by side; the latter never change after push_back.
struct SoAStore {
  // ---- identity (immutable) ----
  std::vector<int> app_id;
  std::vector<int> tidx;

  // ---- mutable simulation state ----
  std::vector<ThreadState> state;
  std::vector<double> progress_us;  ///< virtual work completed
  std::vector<int> last_cpu;        ///< CPU it last ran on (-1: never ran)
  std::vector<double> warmth;       ///< cache state on last_cpu, in [0, 1]
  /// Consecutive time spent spinning at the current barrier (for
  /// spin-then-block).
  std::vector<double> consecutive_spin_us;
  /// I/O bookkeeping: absolute wake time of the in-flight I/O, and the
  /// progress point at which the next I/O will be issued.
  std::vector<SimTime> io_wake_us;
  std::vector<double> next_io_at_progress;

  // ---- accounting accumulators (monotonically increasing) ----
  std::vector<double> bus_transactions;  ///< granted (data-moving)
  /// Attempted transactions: demand-side count including arbitration
  /// retries — what the Xeon's bus counters (IOQ allocations) see and hence
  /// what the CPU manager samples; can exceed the data actually moved.
  std::vector<double> bus_attempts;
  std::vector<double> run_us;   ///< time occupying a CPU and progressing
  std::vector<double> spin_us;  ///< time occupying a CPU but barrier-spinning
  std::vector<double> stolen_us;        ///< time lost to OS noise while placed
  std::vector<double> ready_wait_us;    ///< time runnable but not placed
  std::vector<double> barrier_wait_us;  ///< time blocked at barriers
  std::vector<double> io_wait_us;       ///< time blocked on I/O
  std::vector<double> mgr_blocked_us;   ///< time blocked by the CPU manager
  std::vector<std::uint64_t> migrations;  ///< times placed on another CPU

  // ---- flattened JobSpec constants (set at admission, then immutable) ----
  std::vector<const DemandModel*> demand;  ///< owned by the Job's spec
  std::vector<double> work_us;
  std::vector<double> barrier_interval_us;  ///< <= 0: uncoupled
  std::vector<double> cold_demand_boost;
  std::vector<double> migration_sensitivity;
  std::vector<double> bus_priority;
  std::vector<double> footprint_frac;  ///< min(1, footprint_kb / l2_kb)
  std::vector<double> io_period_progress_us;
  std::vector<double> io_burst_us;
  std::vector<double> io_dma_tps;
  std::vector<char> io_enabled;
  std::vector<char> coupled;  ///< barrier_interval_us > 0

  [[nodiscard]] std::size_t size() const noexcept { return state.size(); }

  /// Appends one thread of job `job` with thread-index `ti`; returns its
  /// global id. `l2_kb` is the machine's cache size (for footprint_frac).
  int push_back(const JobSpec& spec, int job, int ti, double l2_kb) {
    const int id = static_cast<int>(size());
    app_id.push_back(job);
    tidx.push_back(ti);
    state.push_back(ThreadState::kReady);
    progress_us.push_back(0.0);
    last_cpu.push_back(-1);
    warmth.push_back(0.0);
    consecutive_spin_us.push_back(0.0);
    io_wake_us.push_back(0);
    next_io_at_progress.push_back(
        spec.io.enabled() ? spec.io.period_progress_us : 0.0);
    bus_transactions.push_back(0.0);
    bus_attempts.push_back(0.0);
    run_us.push_back(0.0);
    spin_us.push_back(0.0);
    stolen_us.push_back(0.0);
    ready_wait_us.push_back(0.0);
    barrier_wait_us.push_back(0.0);
    io_wait_us.push_back(0.0);
    mgr_blocked_us.push_back(0.0);
    migrations.push_back(0);
    demand.push_back(spec.demand.get());
    work_us.push_back(spec.work_us);
    barrier_interval_us.push_back(spec.barrier_interval_us);
    cold_demand_boost.push_back(spec.cache.cold_demand_boost);
    migration_sensitivity.push_back(spec.cache.migration_sensitivity);
    bus_priority.push_back(spec.bus_priority);
    footprint_frac.push_back(std::min(1.0, spec.cache.footprint_kb / l2_kb));
    io_period_progress_us.push_back(spec.io.period_progress_us);
    io_burst_us.push_back(spec.io.burst_us);
    io_dma_tps.push_back(spec.io.dma_tps);
    io_enabled.push_back(spec.io.enabled() ? 1 : 0);
    coupled.push_back(spec.barrier_interval_us > 0.0 ? 1 : 0);
    return id;
  }
};

}  // namespace bbsched::sim
