// Ablation: CPU-manager quantum length (paper §5).
//
// The paper uses a 200 ms manager quantum — twice the Linux timeslice —
// after finding that 100 ms "resulted to an excessive number of context
// switches ... attributed to the lack of synchronization between the OS
// scheduler and the CPU manager". This bench sweeps the quantum and reports
// turnaround, gang elections (context-switch proxy), migrations, and the
// share of machine time lost to manager overhead (which is charged per
// quantum boundary, so it grows as quanta shrink).
//
// Usage: ablation_quantum [--fast] [--csv] [--app=NAME] [--jobs=N]
#include <iostream>
#include <vector>

#include "experiments/cli.h"
#include "experiments/observe.h"
#include "experiments/fig2.h"
#include "experiments/parallel.h"
#include "stats/table.h"

int main(int argc, char** argv) {
  using namespace bbsched;
  const auto opt = experiments::parse_cli(argc, argv);

  experiments::ExperimentConfig cfg;
  cfg.time_scale = opt.time_scale;
  cfg.engine.seed = opt.seed;
  // Realistic manager costs so shorter quanta actually hurt: signal
  // delivery + list traversal + arena polling at every boundary.
  cfg.managed.overhead_base_us = 300;
  cfg.managed.overhead_per_app_us = 100;

  const auto& app = workload::paper_application(
      opt.app.empty() ? "SP" : opt.app);
  const auto w = experiments::make_fig2_workload(
      experiments::Fig2Set::kMixed, app, cfg.machine.bus);

  const std::vector<sim::SimTime> quanta_ms = {50, 100, 200, 400, 800};

  // Request 0 is the Linux baseline; request 1+i the i-th quantum setting.
  std::vector<experiments::RunRequest> requests;
  requests.push_back({w, experiments::SchedulerKind::kLinux, cfg});
  for (sim::SimTime q_ms : quanta_ms) {
    experiments::ExperimentConfig qcfg = cfg;
    qcfg.managed.manager.quantum_us = q_ms * sim::kUsPerMs;
    requests.push_back({w, experiments::SchedulerKind::kQuantaWindow, qcfg});
  }
  const auto runs = experiments::run_workloads_parallel(
      requests, experiments::ParallelExecutor(opt.jobs));
  const auto& linux_run = runs[0];

  stats::Table table("Manager quantum sweep (workload: " + w.name + ")");
  table.set_header({"quantum", "T_app(s)", "vs linux", "elections",
                    "migrations", "overhead share"});
  for (std::size_t i = 0; i < quanta_ms.size(); ++i) {
    const sim::SimTime q_ms = quanta_ms[i];
    const auto& qcfg = requests[i + 1].cfg;
    const auto& run = runs[i + 1];
    const double imp = experiments::improvement_pct(
        linux_run.measured_mean_turnaround_us,
        run.measured_mean_turnaround_us);
    const double overhead_us =
        static_cast<double>(run.elections) *
        (static_cast<double>(qcfg.managed.overhead_base_us) +
         static_cast<double>(qcfg.managed.overhead_per_app_us) *
             static_cast<double>(w.jobs.size()));
    const double overhead_share =
        100.0 * overhead_us / static_cast<double>(run.end_time_us);
    table.add_row({std::to_string(q_ms) + "ms",
                   stats::Table::num(run.measured_mean_turnaround_us / 1e6),
                   stats::Table::pct(imp), std::to_string(run.elections),
                   std::to_string(run.migrations),
                   stats::Table::pct(overhead_share)});
  }
  table.render(std::cout);
  std::cout << "\nPaper: 100 ms quanta caused excessive context switches; "
               "200 ms (2x the Linux timeslice) fixed it, and the quantum "
               "had no measurable effect on cache performance.\n";
  if (opt.csv) {
    std::cout << '\n';
    table.render_csv(std::cout);
  }

  // Representative traced run: the swept workload at the default quantum.
  (void)experiments::maybe_dump_observability(
      opt, w, experiments::SchedulerKind::kLatestQuantum, cfg);
  return 0;
}
