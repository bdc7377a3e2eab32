// Gang election: the processor-allocation algorithm of §4.
//
// Both policies are "gang-like": an application gets processors only if all
// of its threads fit. Election per quantum proceeds as:
//
//  1. The application at the top of the applications list is allocated by
//     default — this guarantees every application eventually runs,
//     independent of its bandwidth characteristics (no starvation).
//  2. While unallocated processors remain, traverse the whole list; for
//     every application that fits, compute fitness(ABBW/proc, BBW/thread);
//     allocate the fittest and repeat. ABBW/proc is recomputed after every
//     allocation, so low-bandwidth picks make high-bandwidth candidates
//     fitter for the remaining processors and vice versa.
//
// The election is a pure function of (candidate list, processor count, bus
// bandwidth); policies differ only in which BBW/thread estimate they plug in.
#pragma once

#include <vector>

#include "core/fitness.h"

namespace bbsched::core {

/// One schedulable application as the election sees it.
struct Candidate {
  int app_id = -1;
  int nthreads = 1;
  /// Policy-provided estimate of the app's bus bandwidth per thread
  /// (transactions/µs): latest quantum or window average.
  double bbw_per_thread = 0.0;
};

struct ElectionResult {
  /// Elected app ids, in allocation order (head of list first).
  std::vector<int> elected;
  /// Processors left idle (gang fragmentation).
  int idle_procs = 0;
  /// Sum of elected applications' bandwidth requirements (trans/µs).
  double allocated_bw = 0.0;
};

/// Per-candidate audit record of one election (observability). One entry
/// per candidate, in candidate-list order, elected or not — this is what
/// makes a "why did the election pass over job X?" question answerable
/// from a trace.
struct CandidateDecision {
  int app_id = -1;
  int nthreads = 1;
  double bbw_per_thread = 0.0;
  /// ABBW/proc at the moment the candidate was last scored (for the winner
  /// of a round: the round it won). Meaningless for head_default entries.
  double abbw_per_proc = 0.0;
  /// Score under the active rule at that moment. The head-of-list default
  /// allocation is unconditional: its score stays 0 and head_default is set.
  double score = 0.0;
  bool elected = false;
  bool head_default = false;
  /// Position in the allocation order; -1 when not elected.
  int alloc_order = -1;
};

/// Selection rule used after the head-of-list default allocation. The paper
/// uses kFitness (Eq. 1/2); the others exist for the design ablation in
/// bench/ablation_fitness.
enum class ElectionRule {
  kFitness,       ///< Eq. 1: max fitness(ABBW/proc, BBW/thread)
  kFirstFit,      ///< plain gang scheduling: list order, ignore bandwidth
  kLowestFirst,   ///< always the lowest-bandwidth candidate
  kHighestFirst,  ///< always the highest-bandwidth candidate
};

[[nodiscard]] const char* to_string(ElectionRule rule);

/// Runs the election over `candidates` (in applications-list order) for
/// `nprocs` processors and a bus of `total_bus_bw` transactions/µs.
///
/// When `audit` is non-null it is resized to candidates.size() and filled
/// with one CandidateDecision per candidate (same order). The vector is
/// reused across calls by the CPU manager, so filling it allocates only
/// until its capacity reaches the list length.
[[nodiscard]] ElectionResult elect(const std::vector<Candidate>& candidates,
                                   int nprocs, double total_bus_bw,
                                   ElectionRule rule = ElectionRule::kFitness,
                                   std::vector<CandidateDecision>* audit =
                                       nullptr);

/// Allocation-free variant: fills `out` in place (its vectors keep their
/// capacity across elections). The CPU manager's per-quantum path uses this
/// so the steady-state managed tick path stays heap-free
/// (tests/test_perf_smoke.cc).
void elect_into(const std::vector<Candidate>& candidates, int nprocs,
                double total_bus_bw, ElectionRule rule,
                std::vector<CandidateDecision>* audit, ElectionResult& out);

}  // namespace bbsched::core
