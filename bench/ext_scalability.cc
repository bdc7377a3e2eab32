// Extension: machine-size scaling.
//
// The paper evaluates a 4-way SMP; its intro argues bus bandwidth is THE
// scalability barrier for larger SMPs. This bench scales the machine (2 to
// 16 processors) while keeping the bus agent-scaling realistic: sustained
// capacity grows sub-linearly with the processor count (electrical loading
// of a shared bus), per 2003-era platform behaviour. The workload scales
// with the machine (1 app instance + 1 BBMA + 1 nBBMA per 2 CPUs), so the
// multiprogramming degree stays 2 per processor pair.
//
// Expected shape: the bandwidth-aware policies' advantage GROWS with the
// processor count — more agents on a relatively slower bus make oblivious
// scheduling increasingly costly.
//
// Usage: ext_scalability [--fast] [--csv] [--app=NAME] [--jobs=N]
#include <cmath>
#include <iostream>
#include <vector>

#include "experiments/cli.h"
#include "experiments/observe.h"
#include "experiments/parallel.h"
#include "experiments/runner.h"
#include "stats/table.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  using namespace bbsched;
  const auto opt = experiments::parse_cli(argc, argv);

  const auto& app =
      workload::paper_application(opt.app.empty() ? "MG" : opt.app);

  stats::Table table("Machine-size sweep (workload scales with the machine)");
  table.set_header({"CPUs", "bus (trans/us)", "Latest", "Window",
                    "T_linux(s)", "T_window(s)"});

  // One batch across all machine sizes: per size, (linux, latest, window).
  const std::vector<int> cpu_counts = {2, 4, 8, 16};
  std::vector<experiments::RunRequest> requests;
  for (int ncpus : cpu_counts) {
    experiments::ExperimentConfig cfg;
    cfg.time_scale = opt.time_scale;
    cfg.engine.seed = opt.seed;
    cfg.machine.num_cpus = ncpus;
    // Shared-bus capacity scales sub-linearly with attached agents:
    // C(n) = C4 * (n/4)^0.5 (electrical loading + arbitration depth).
    cfg.machine.bus.capacity_tps =
        29.5 * std::sqrt(static_cast<double>(ncpus) / 4.0);
    cfg.managed.manager.total_bus_bw_tps = cfg.machine.bus.capacity_tps;
    cfg.managed.manager.initial_estimate_tps =
        cfg.machine.bus.capacity_tps / ncpus;

    workload::Workload w;
    w.name = "scaled mix";
    std::uint64_t seed = 7;
    for (int pair = 0; pair < ncpus / 2; ++pair) {
      w.jobs.push_back(
          workload::make_app_job(app, cfg.machine.bus, 2, seed += 13));
      w.measured.push_back(w.jobs.size() - 1);
      w.jobs.push_back(workload::make_bbma_job(cfg.machine.bus));
      w.jobs.push_back(workload::make_nbbma_job());
    }

    requests.push_back({w, experiments::SchedulerKind::kLinux, cfg});
    requests.push_back({w, experiments::SchedulerKind::kLatestQuantum, cfg});
    requests.push_back({w, experiments::SchedulerKind::kQuantaWindow, cfg});
  }
  const auto runs = experiments::run_workloads_parallel(
      requests, experiments::ParallelExecutor(opt.jobs));

  for (std::size_t c = 0; c < cpu_counts.size(); ++c) {
    const auto& linux_run = runs[3 * c];
    const auto& latest_run = runs[3 * c + 1];
    const auto& window_run = runs[3 * c + 2];
    const auto& cfg = requests[3 * c].cfg;

    auto pct = [&](const experiments::RunResult& r) {
      return experiments::improvement_pct(
          linux_run.measured_mean_turnaround_us,
          r.measured_mean_turnaround_us);
    };
    table.add_row(
        {std::to_string(cpu_counts[c]),
         stats::Table::num(cfg.machine.bus.capacity_tps, 1),
         stats::Table::pct(pct(latest_run)), stats::Table::pct(pct(window_run)),
         stats::Table::num(linux_run.measured_mean_turnaround_us / 1e6),
         stats::Table::num(window_run.measured_mean_turnaround_us / 1e6)});
  }
  table.render(std::cout);
  if (opt.csv) {
    std::cout << '\n';
    table.render_csv(std::cout);
  }

  // Representative traced run: the first Latest-Quantum request.
  (void)experiments::maybe_dump_observability(opt, requests[1].workload,
                                              requests[1].kind,
                                              requests[1].cfg);
  return 0;
}
