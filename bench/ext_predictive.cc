// Extension (paper §6 future work): model-driven scheduling.
//
// Compares the Eq.-1 fitness policies against two model-driven elections
// that predict contention with an offline-fitted analytic bus model
// (core/predictor.h) and optimize over candidate gangs:
//   predictive-throughput — maximize predicted aggregate progress,
//   predictive-fair       — maximize the slowest thread's speed (may leave
//                           processors idle rather than saturate the bus).
//
// Usage: ext_predictive [--fast] [--csv] [--app=NAME] [--jobs=N]
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

  std::vector<std::string> names = {"Water-nsqr", "LU-CB", "SP", "CG"};
  if (!opt.app.empty()) names = {opt.app};

  const std::vector<experiments::SchedulerKind> kinds = {
      experiments::SchedulerKind::kLinux,
      experiments::SchedulerKind::kQuantaWindow,
      experiments::SchedulerKind::kPredictiveThroughput,
      experiments::SchedulerKind::kPredictiveFair};

  experiments::ParallelExecutor executor(opt.jobs);

  for (auto set : {experiments::Fig2Set::kSaturated,
                   experiments::Fig2Set::kIdleBus,
                   experiments::Fig2Set::kMixed}) {
    stats::Table table(std::string("Model-driven vs Eq. 1 — ") +
                       experiments::to_string(set) +
                       " (improvement vs Linux)");
    table.set_header({"app", "window (Eq. 1)", "pred-throughput",
                      "pred-fair"});
    // Per app: one run per kind (Linux baseline first), all in one batch.
    std::vector<experiments::RunRequest> requests;
    for (const auto& name : names) {
      const auto& app = workload::paper_application(name);
      const auto w =
          experiments::make_fig2_workload(set, app, cfg.machine.bus);
      for (auto kind : kinds) requests.push_back({w, kind, cfg});
    }
    const auto runs =
        experiments::run_workloads_parallel(requests, executor);

    for (std::size_t a = 0; a < names.size(); ++a) {
      const auto& linux_run = runs[a * kinds.size()];
      auto improvement = [&](std::size_t kind_idx) {
        const auto& run = runs[a * kinds.size() + kind_idx];
        return experiments::improvement_pct(
            linux_run.measured_mean_turnaround_us,
            run.measured_mean_turnaround_us);
      };
      table.add_row({names[a], stats::Table::pct(improvement(1)),
                     stats::Table::pct(improvement(2)),
                     stats::Table::pct(improvement(3))});
    }
    table.render(std::cout);
    if (opt.csv) table.render_csv(std::cout);
    std::cout << '\n';
  }
  std::cout
      << "predictive-fair may leave processors idle instead of saturating "
         "the bus,\nwhich Eq. 1 structurally never does — the comparison "
         "quantifies what the paper's\nproposed model-driven reformulation "
         "could buy.\n";

  // Representative traced run: SP saturated set under predictive-throughput.
  (void)experiments::maybe_dump_observability(
      opt,
      experiments::make_fig2_workload(experiments::Fig2Set::kSaturated,
                                      workload::paper_application("SP"),
                                      cfg.machine.bus),
      experiments::SchedulerKind::kPredictiveThroughput, cfg);
  return 0;
}
