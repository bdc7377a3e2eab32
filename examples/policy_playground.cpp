// Policy playground: watch the paper's election algorithm work, quantum by
// quantum. Prints the applications-list order, each candidate's BBW/thread
// estimate, the evolving ABBW/proc, the fitness values of Eq. 1 and the
// elected gang — the exact arithmetic of §4 on live simulated counters.
//
// Usage: policy_playground [latest|window] [QUANTA]   (QUANTA >= 1)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/managed_scheduler.h"
#include "experiments/cli.h"
#include "sim/engine.h"
#include "workload/workload.h"

namespace {

using namespace bbsched;

/// Replays the §4 election arithmetic for display purposes.
void explain_election(const core::CpuManager& mgr, int nprocs) {
  std::vector<core::Candidate> candidates;
  for (int id : mgr.order()) {
    candidates.push_back({id, mgr.app(id).nthreads, mgr.policy_estimate(id)});
  }

  std::printf("  list:");
  for (const auto& c : candidates) {
    std::printf(" %s(%.2f)", mgr.app(c.app_id).name.c_str(),
                c.bbw_per_thread);
  }
  std::printf("\n");

  // Head-of-list default allocation.
  double allocated_bw = 0.0;
  int free_procs = nprocs;
  std::vector<bool> taken(candidates.size(), false);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].nthreads <= free_procs) {
      taken[i] = true;
      free_procs -= candidates[i].nthreads;
      allocated_bw += candidates[i].bbw_per_thread * candidates[i].nthreads;
      std::printf("  head: %s elected by default\n",
                  mgr.app(candidates[i].app_id).name.c_str());
      break;
    }
  }

  while (free_procs > 0) {
    const double abbw =
        core::abbw_per_proc(mgr.config().total_bus_bw_tps, allocated_bw,
                            free_procs);
    std::printf("  ABBW/proc = %.2f trans/us over %d free procs\n", abbw,
                free_procs);
    double best = -1.0;
    std::size_t best_idx = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (taken[i] || candidates[i].nthreads > free_procs) continue;
      const double f = core::fitness(abbw, candidates[i].bbw_per_thread);
      std::printf("    fitness(%s) = 1000/(1+|%.2f-%.2f|) = %.0f\n",
                  mgr.app(candidates[i].app_id).name.c_str(), abbw,
                  candidates[i].bbw_per_thread, f);
      if (f > best) {
        best = f;
        best_idx = i;
      }
    }
    if (best_idx == candidates.size()) {
      std::printf("    nothing fits: %d processor(s) stay idle\n",
                  free_procs);
      break;
    }
    taken[best_idx] = true;
    free_procs -= candidates[best_idx].nthreads;
    allocated_bw +=
        candidates[best_idx].bbw_per_thread * candidates[best_idx].nthreads;
    std::printf("    -> elect %s\n",
                mgr.app(candidates[best_idx].app_id).name.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool window = argc > 1 && std::strcmp(argv[1], "window") == 0;
  const int quanta =
      argc > 2 ? experiments::count_operand(argv[0], "QUANTA", argv[2]) : 8;

  sim::MachineConfig mcfg;
  sim::EngineConfig ecfg;
  core::ManagedSchedulerConfig scfg;
  scfg.manager.policy = window ? core::PolicyKind::kQuantaWindow
                               : core::PolicyKind::kLatestQuantum;

  auto scheduler = std::make_unique<core::ManagedScheduler>(scfg);
  auto* sched = scheduler.get();
  sim::Engine eng(mcfg, ecfg, std::move(scheduler));

  // The paper's Fig.-2C environment for SP: the most instructive mix.
  const auto w = workload::fig2_mixed(
      workload::paper_application("SP"), mcfg.bus);
  for (const auto& job : w.jobs) eng.add_job(job);

  std::printf("policy: %s   machine: %d CPUs, bus %.1f trans/us\n",
              core::to_string(scfg.manager.policy), mcfg.num_cpus,
              mcfg.bus.capacity_tps);
  std::printf("workload: %s\n", w.name.c_str());

  const sim::SimTime quantum = scfg.manager.quantum_us;
  eng.step();  // connect the applications and run the initial election
  for (int q = 0; q < quanta; ++q) {
    std::printf("\n=== quantum %d (t = %.1f s) ===\n", q,
                static_cast<double>(eng.now()) / 1e6);
    explain_election(sched->manager(), mcfg.num_cpus);
    std::printf("  running:");
    for (int id : sched->manager().running()) {
      std::printf(" %s", sched->manager().app(id).name.c_str());
    }
    std::printf("\n");
    eng.run_until(eng.now() + quantum);
    if (eng.machine().all_finite_jobs_done()) break;
  }

  std::printf("\n(the estimates above are per-thread bus transaction rates "
              "sampled from the shared arenas, twice per quantum)\n");
  return 0;
}
