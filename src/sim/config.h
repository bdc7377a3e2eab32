// Configuration of the simulated SMP.
//
// Defaults model the paper's testbed: a dedicated 4-way 1.4 GHz Intel Xeon
// SMP (hyperthreading disabled), 256 KB L2 per processor, 400 MHz front-side
// bus. The bus constants come straight from the paper's §3 measurements:
// STREAM sustains 1797 MB/s ≈ 29.5 bus transactions/µs at 64 bytes per
// transaction; a single BBMA microbenchmark instance sustains 23.6
// transactions/µs, which we use as the per-thread streaming peak D_max.
#pragma once

#include <cstddef>

#include "sim/time.h"

namespace bbsched::sim {

/// Analytic shared-bus contention model parameters (see DESIGN.md §3).
struct BusConfig {
  /// Sustained system-wide capacity in transactions/µs (STREAM, 4 CPUs).
  double capacity_tps = 29.5;

  /// Peak per-thread streaming rate in transactions/µs (BBMA measurement).
  /// Used to map a thread's demand to its memory-boundedness alpha.
  double per_thread_peak_tps = 23.6;

  /// Exponent p in alpha = min(1, d/D_max)^p. Values below 1 acknowledge
  /// that latency-bound codes stall on the bus for a larger share of their
  /// time than their raw transaction rate suggests (no prefetch overlap).
  double alpha_exponent = 0.72;

  /// Arbitration efficiency loss per extra demanding agent: effective
  /// capacity = capacity * max(floor, 1 - loss*(k-1)). Models the paper's
  /// observation that "contention and arbitration contribute to bandwidth
  /// consumption" before nominal saturation.
  double arbitration_loss = 0.018;
  double arbitration_floor = 0.88;

  /// A thread counts as "demanding" for arbitration purposes above this
  /// rate (transactions/µs). Non-negative, so the zero-demand agents of
  /// spinning and noise-stolen runners never count.
  double demanding_threshold_tps = 1.0;

  /// Sub-saturation queueing inflation: X_light = 1 + kappa * rho^2.
  double queueing_kappa = 0.15;

  /// Upper bound for the memory-stretch fixed point (safety clamp).
  double max_stretch = 64.0;

  /// Arbitration weight of DMA agents (device bus masters behind blocking
  /// I/O). Burst transfers, like BBMA's posted writes, lose less per
  /// transaction at saturation than latency-bound CPU reads.
  double dma_arbitration_weight = 1.3;
};

/// Per-processor cache behaviour (warmth/affinity model).
struct CacheConfig {
  /// L2 capacity in KB (Xeon: 256 KB).
  double l2_kb = 256.0;

  /// Time for a thread to rebuild full cache state while running (µs).
  /// ~20 ms matches the scale at which affinity effects matter for 100–200ms
  /// quanta.
  SimTime warmup_us = 40 * kUsPerMs;
};

/// Simultaneous multithreading (hyperthreading). The paper's Xeons had HT
/// disabled (the perfctr driver could not attribute counters per logical
/// thread); §6 names multithreaded processors as future work — "sharing
/// happens also at the level of internal processor resources". Two active
/// contexts on one core slow each other down: a base penalty for pipeline
/// sharing plus a symbiosis term that grows when BOTH contexts are
/// memory-bound (they fight over the same load/store resources), after the
/// symbiotic-scheduling observations the paper cites ([9] Snavely/Tullsen).
struct SmtConfig {
  /// Execution-time penalty when a sibling context is active.
  double base_penalty = 0.15;
  /// Additional penalty scaled by min(alpha_i, alpha_sibling).
  double memory_overlap_penalty = 0.35;
};

/// Machine shape. num_cpus counts *hardware contexts*; with
/// threads_per_core = 2 a 4-way machine exposes 8 schedulable contexts on
/// 4 physical cores (contexts 2k and 2k+1 share core k).
struct MachineConfig {
  int num_cpus = 4;
  int threads_per_core = 1;
  BusConfig bus{};
  CacheConfig cache{};
  SmtConfig smt{};

  [[nodiscard]] int num_cores() const { return num_cpus / threads_per_core; }
  [[nodiscard]] int core_of(int cpu) const { return cpu / threads_per_core; }
};

/// Engine stepping parameters.
struct EngineConfig {
  /// Simulation tick (µs). 1 ms resolves 100–200 ms quanta finely while
  /// keeping full fig-2 experiments around a second of wall time each.
  SimTime tick_us = 1 * kUsPerMs;

  /// Hard stop; experiments normally end when all finite jobs complete.
  SimTime max_time_us = 3600 * kUsPerSec;

  /// Consecutive spin time after which a barrier-waiting thread yields its
  /// processor (spin-then-block, after the paper-era Intel OpenMP runtime
  /// which spun aggressively before sleeping). Spinning wastes the thread's
  /// own timeslice; blocking triggers a wakeup placement later, which on
  /// the Linux 2.4 baseline migrates threads — both pathologies the gang
  /// policies remove.
  SimTime spin_grace_us = 30 * kUsPerMs;

  /// Upper bound on the number of ticks the engine may advance in one
  /// event-free batch (quantum batching, DESIGN.md §11). Batched ticks
  /// replay the exact per-tick arithmetic — results are bit-identical to
  /// per-tick stepping — but skip the bus resolve and scheduler work whose
  /// inputs are provably constant. 0 or 1 forces per-tick stepping (the
  /// differential tests use this).
  std::uint32_t max_batch_ticks = 4096;

  /// Record run intervals into the engine's trace::ScheduleTrace (tests,
  /// Gantt charts and Chrome per-CPU tracks enable this; big benches don't).
  bool trace = false;

  /// Seed for all stochastic behaviour in the run.
  std::uint64_t seed = 42;

  /// OS noise: kernel daemons (bdflush/kupdated), interrupt storms and
  /// other machine background steal short CPU windows at random times. The
  /// noise hits every scheduler identically; what differs is the response —
  /// a gang loses only the stolen time (its siblings spin briefly), while
  /// uncoordinated time-sharing amplifies each steal through barrier-spin
  /// waste, wake-time migrations and lost slice alignment. Mean interval
  /// between steals per CPU; 0 disables noise.
  SimTime os_noise_interval_us = 250 * kUsPerMs;
  /// Steal duration is uniform in [min, max].
  SimTime os_noise_min_us = 10 * kUsPerMs;
  SimTime os_noise_max_us = 40 * kUsPerMs;
};

}  // namespace bbsched::sim
