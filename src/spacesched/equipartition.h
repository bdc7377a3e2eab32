// Dynamic equipartition space-sharing — the §2 related-work baseline
// (McCann, Vaswani, Zahorjan; Tucker & Gupta process control).
//
// "Dynamic space sharing policies attempt to surpass the cache performance
//  limitations by running parallel jobs on dedicated sets of processors,
//  the size of which may vary at run-time. ... Their drawback is that they
//  limit the degree of parallelism that the application can exploit."
//
// Implementation: at every reallocation quantum the active jobs are given
// disjoint processor partitions — one processor per job in list order, then
// a second round of +1 (capped by the job's thread count) while processors
// remain; allocated jobs rotate to the tail for fairness. A job whose
// partition is smaller than its thread count *folds*: its threads
// round-robin over the partition at a sub-quantum slice. Folding a
// spin-barrier SPMD job is expensive (the scheduled thread quickly runs
// ahead of its descheduled siblings and spins), which is precisely the
// classic argument for gang scheduling over space sharing for tightly
// synchronized codes — and it emerges from the simulation rather than
// being assumed.
//
// Like the Linux baseline, the policy is completely bandwidth-oblivious;
// bench/ext_spacesharing quantifies how much of the paper's win survives
// against this stronger-than-Linux comparator.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/scheduler.h"

namespace bbsched::spacesched {

struct EquipartitionConfig {
  /// Partition reallocation period (µs).
  sim::SimTime quantum_us = 100 * sim::kUsPerMs;

  /// Round-robin slice for folded threads within a partition (µs). Short
  /// slices bound barrier-spin waste for coupled jobs; long slices bound
  /// context-switch cost.
  sim::SimTime fold_slice_us = 5 * sim::kUsPerMs;
};

class EquipartitionScheduler final : public sim::Scheduler {
 public:
  explicit EquipartitionScheduler(EquipartitionConfig cfg = {}) : cfg_(cfg) {}

  void start(sim::Machine& m, trace::ScheduleTrace&) override;
  void tick(sim::Machine& m, sim::SimTime now,
            trace::ScheduleTrace&) override;

  [[nodiscard]] const char* name() const override { return "equipartition"; }

  /// `now` while the next tick() would act: an unseen job to join the
  /// rotation, an active-job count that changed since the allocation, or a
  /// partition CPU whose occupant is not the thread the fold window wants
  /// there (unless the CPU is idle and that thread cannot be placed).
  /// Otherwise the earlier of the quantum end and the next fold-slice
  /// advance, both of which act whatever the machine looks like.
  [[nodiscard]] sim::SimTime quiescent_until(const sim::Machine& m,
                                             sim::SimTime now) const override;

  /// Partition sizes of the current quantum, indexed by job id (0 when the
  /// job has no processors this quantum). Exposed for tests.
  [[nodiscard]] const std::vector<int>& allocation() const noexcept {
    return allocation_;
  }

  [[nodiscard]] std::uint64_t reallocations() const noexcept {
    return reallocations_;
  }

 private:
  void reallocate(sim::Machine& m, sim::SimTime now);
  void place_partitions(sim::Machine& m, sim::SimTime now);

  EquipartitionConfig cfg_;

  /// Job ids in rotation order (head = next to be favoured).
  std::vector<int> order_;
  /// reallocate's scratch for the next rotation order.
  std::vector<int> rotation_;
  /// Per-job partition: the CPUs owned this quantum.
  std::vector<std::vector<int>> partitions_;
  std::vector<int> allocation_;
  /// Per-job fold cursor (index into the job's thread list).
  std::vector<std::size_t> fold_cursor_;

  sim::SimTime quantum_start_ = 0;
  sim::SimTime last_fold_advance_ = 0;
  std::size_t known_jobs_ = 0;
  std::size_t active_jobs_at_alloc_ = 0;
  std::uint64_t reallocations_ = 0;
};

}  // namespace bbsched::spacesched
