// Jobs and threads in the simulated SMP.
//
// A job models one application instance: `nthreads` SPMD threads that each
// carry `work_us` of virtual work (its uniprogrammed execution time) and
// synchronise at barriers every `barrier_interval_us` of progress. Bus
// behaviour comes from a DemandModel (supplied by the workload library),
// cache behaviour from a small per-job CacheProfile.
#pragma once

#include <cassert>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.h"

namespace bbsched::sim {

/// Uncontended bus-transaction demand of a job's threads as a function of
/// progress. Implementations must be deterministic in (tidx, progress) so
/// runs are reproducible and contention feedback stays stable.
class DemandModel {
 public:
  virtual ~DemandModel() = default;

  /// Transactions/µs thread `tidx` would issue at virtual progress
  /// `progress_us` on an uncontended machine.
  [[nodiscard]] virtual double rate(int tidx, double progress_us) const = 0;

  /// Upper end of the progress interval [progress_us, steady_until) over
  /// which rate(tidx, ·) is guaranteed constant. The engine's tick batching
  /// (DESIGN.md §11) reuses a thread's derived demand while its progress
  /// stays a tick below this bound, and opt_solve counts only demands
  /// steady forever (infinity) toward its bus bound. The conservative
  /// default — the current point itself — claims no constant interval, so
  /// batched ticks re-derive such a model's demand every tick.
  [[nodiscard]] virtual double steady_until(int tidx,
                                            double progress_us) const {
    (void)tidx;
    return progress_us;
  }
};

/// Constant-rate demand — adequate for most of the paper's applications,
/// whose long-run transaction rates are steady (Fig. 1A).
class SteadyDemand final : public DemandModel {
 public:
  explicit SteadyDemand(double tps) : tps_(tps) { assert(tps >= 0.0); }
  [[nodiscard]] double rate(int, double) const override { return tps_; }
  [[nodiscard]] double steady_until(int, double) const override {
    return std::numeric_limits<double>::infinity();
  }

 private:
  double tps_;
};

/// Cache-related per-job parameters for the warmth/affinity model.
struct CacheProfile {
  /// Working-set footprint in KB (relative to L2 size). Determines how much
  /// a thread disturbs other threads' cached state on the same CPU.
  double footprint_kb = 128.0;

  /// Extra execution-time penalty at warmth 0, scaled by (1 - warmth).
  /// High for codes with very high cache hit ratios (paper: LU-CB at 99.53%
  /// and Water-nsqr are "very sensitive to thread migrations").
  double migration_sensitivity = 0.08;

  /// Extra uncontended bus demand while cold (working-set refill):
  /// d_eff = d * (1 + cold_demand_boost * (1 - warmth)). Zero for streaming
  /// codes with no reuse (BBMA), higher for cache-resident codes.
  double cold_demand_boost = 0.5;
};

/// Blocking-I/O behaviour (paper §6 future work: I/O- and network-intensive
/// workloads "which stress the bus bandwidth"). Threads alternate
/// `period_progress_us` of computation with `burst_us` of blocking I/O;
/// while an I/O is in flight its DMA transfer consumes `dma_tps` of bus
/// bandwidth even though the thread occupies no processor — the bus sees
/// the device as one more agent, and the performance counters attribute the
/// traffic to the job.
struct IoProfile {
  double period_progress_us = 0.0;  ///< compute between I/Os; 0 = no I/O
  double burst_us = 0.0;            ///< blocking time per I/O
  double dma_tps = 0.0;             ///< bus transactions/µs during the I/O

  [[nodiscard]] bool enabled() const {
    return period_progress_us > 0.0 && burst_us > 0.0;
  }
};

/// Immutable description of a job to admit into the machine.
struct JobSpec {
  std::string name;
  int nthreads = 1;

  /// Per-thread virtual work (uniprogrammed execution time), µs.
  /// Use kInfiniteWork for continuously running microbenchmarks.
  double work_us = 1.0;

  /// Progress between barriers; <= 0 disables coupling (independent threads).
  double barrier_interval_us = 0.0;

  /// Bus-arbitration weight (>= 1). Ordinary latency-bound applications use
  /// 1.0; back-to-back streaming writers (BBMA) are burst-friendly and lose
  /// less per transaction at saturation — see bus_model.h.
  double bus_priority = 1.0;

  /// Bus-bandwidth reservation as a fraction of the calibrated bus capacity
  /// (0 = best-effort, the default). Consumed only by the credit/reservation
  /// QoS tier (core/credit_scheduler.h, docs/POLICIES.md); with the tier
  /// disabled the field is inert and the simulation is bit-identical to a
  /// build without it.
  double bw_reservation = 0.0;

  std::shared_ptr<const DemandModel> demand;
  CacheProfile cache{};
  IoProfile io{};

  static constexpr double kInfiniteWork =
      std::numeric_limits<double>::infinity();
  [[nodiscard]] bool infinite() const {
    return work_us == kInfiniteWork;
  }
};

/// Lifecycle state of a simulated thread.
enum class ThreadState {
  kReady,          ///< runnable, waiting for a processor
  kBarrierWait,    ///< yielded the CPU waiting for siblings at a barrier
  kIoWait,         ///< blocked on I/O (its DMA still uses the bus)
  kManagerBlocked, ///< blocked by the CPU manager (gang scheduling)
  kDone,           ///< all work complete
};

// Per-thread simulation state lives in sim::SoAStore (soa_store.h) as
// structure-of-arrays; ThreadCtx — the per-thread view schedulers and tests
// use — is defined there as a proxy of references into the arrays.

/// Mutable per-job simulation state.
struct Job {
  int id = -1;
  JobSpec spec;
  std::vector<int> thread_ids;  ///< global ids of this job's threads

  SimTime release_us = 0;            ///< admission time
  SimTime completion_us = kForever;  ///< set when the last thread finishes
  bool completed = false;

  [[nodiscard]] SimTime turnaround_us() const {
    assert(completed);
    return completion_us - release_us;
  }
};

}  // namespace bbsched::sim
