#include "core/election.h"

#include <cassert>

namespace bbsched::core {

const char* to_string(ElectionRule rule) {
  switch (rule) {
    case ElectionRule::kFitness: return "fitness";
    case ElectionRule::kFirstFit: return "first-fit";
    case ElectionRule::kLowestFirst: return "lowest-first";
    case ElectionRule::kHighestFirst: return "highest-first";
  }
  return "unknown";
}

ElectionResult elect(const std::vector<Candidate>& candidates, int nprocs,
                     double total_bus_bw, ElectionRule rule,
                     std::vector<CandidateDecision>* audit) {
  ElectionResult out;
  elect_into(candidates, nprocs, total_bus_bw, rule, audit, out);
  return out;
}

// The election inner loop, allocation-free in steady state.
void elect_into(const std::vector<Candidate>& candidates, int nprocs,
                double total_bus_bw, ElectionRule rule,
                std::vector<CandidateDecision>* audit, ElectionResult& out) {
  assert(nprocs >= 0);
  out.elected.clear();
  out.allocated_bw = 0.0;
  out.idle_procs = nprocs;

  if (audit) {
    // audit is the caller's reused, size-stable buffer: it only grows on
    // the first tracing quantum after an app-set change.
    audit->resize(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      (*audit)[i] = CandidateDecision{};
      (*audit)[i].app_id = candidates[i].app_id;
      (*audit)[i].nthreads = candidates[i].nthreads;
      (*audit)[i].bbw_per_thread = candidates[i].bbw_per_thread;
    }
  }

  // Reused scratch: per-quantum elections must not touch the heap once the
  // buffer reached the list length (the perf_smoke allocation gate).
  static thread_local std::vector<char> taken;
  taken.assign(candidates.size(), 0);

  auto allocate = [&](std::size_t idx) {
    const Candidate& c = candidates[idx];
    taken[idx] = true;
    if (audit) {
      (*audit)[idx].elected = true;
      (*audit)[idx].alloc_order = static_cast<int>(out.elected.size());
    }
    // out.elected is the caller's reused result buffer; its capacity
    // stabilizes after the first quantum.
    out.elected.push_back(c.app_id);
    out.idle_procs -= c.nthreads;
    out.allocated_bw += c.bbw_per_thread * static_cast<double>(c.nthreads);
  };

  // Step 1: head-of-list default allocation (starvation freedom). The head
  // is the first application that fits at all.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].nthreads <= out.idle_procs) {
      if (audit) (*audit)[i].head_default = true;
      allocate(i);
      break;
    }
  }

  // Step 2: repeated full-list traversals, allocating the best candidate
  // under the active rule each time, until no candidate fits. Each round
  // refreshes the audit entries of every candidate it scores, so a
  // passed-over candidate's record holds its score from the last round in
  // which it competed.
  while (out.idle_procs > 0) {
    const double abbw =
        abbw_per_proc(total_bus_bw, out.allocated_bw, out.idle_procs);
    double best_score = -1.0;
    std::size_t best_idx = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (taken[i] || candidates[i].nthreads > out.idle_procs) continue;
      double score = 0.0;
      switch (rule) {
        case ElectionRule::kFitness:
          score = fitness(abbw, candidates[i].bbw_per_thread);
          break;
        case ElectionRule::kFirstFit:
          score = 1.0;  // strict '>' keeps the first fitting candidate
          break;
        case ElectionRule::kLowestFirst:
          score = 1.0 / (1.0 + candidates[i].bbw_per_thread);
          break;
        case ElectionRule::kHighestFirst:
          score = candidates[i].bbw_per_thread;
          break;
      }
      if (audit) {
        (*audit)[i].score = score;
        (*audit)[i].abbw_per_proc = abbw;
      }
      if (score > best_score) {
        best_score = score;
        best_idx = i;
      }
    }
    if (best_idx == candidates.size()) break;  // nothing fits
    allocate(best_idx);
  }
}

}  // namespace bbsched::core
