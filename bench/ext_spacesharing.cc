// Extension (§2 related work): dynamic space sharing as a second,
// stronger-than-Linux baseline.
//
// Equipartition gives every job a dedicated processor partition (better
// cache behaviour than time-sharing, as §2 notes) but (a) folds parallel
// jobs onto fewer processors, which is expensive for spin-barrier codes —
// ruinously so when jobs outnumber processors, as in these sets — and
// (b) remains bandwidth-oblivious, so nothing stops two streamers from
// saturating the bus under different partitions. The table quantifies both
// effects against the bandwidth-aware gang policies.
//
// Usage: ext_spacesharing [--fast] [--csv] [--app=NAME] [--jobs=N]
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

  std::vector<std::string> names = {"Radiosity", "LU-CB", "SP", "CG"};
  if (!opt.app.empty()) names = {opt.app};

  const std::vector<experiments::SchedulerKind> kinds = {
      experiments::SchedulerKind::kLinux,
      experiments::SchedulerKind::kEquipartition,
      experiments::SchedulerKind::kLatestQuantum,
      experiments::SchedulerKind::kQuantaWindow};

  experiments::ParallelExecutor executor(opt.jobs);

  for (auto set : {experiments::Fig2Set::kSaturated,
                   experiments::Fig2Set::kIdleBus,
                   experiments::Fig2Set::kMixed}) {
    stats::Table table(std::string("Space sharing vs the rest — ") +
                       experiments::to_string(set) +
                       " (mean app turnaround, s)");
    table.set_header(
        {"app", "linux", "equipartition", "latest", "window",
         "window vs equi"});
    // Per app: one run per kind, whole set batched through the executor.
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
      auto secs = [&](std::size_t kind_idx) {
        return runs[a * kinds.size() + kind_idx].measured_mean_turnaround_us /
               1e6;
      };
      const double t_linux = secs(0);
      const double t_equi = secs(1);
      const double t_latest = secs(2);
      const double t_window = secs(3);
      table.add_row({names[a], stats::Table::num(t_linux),
                     stats::Table::num(t_equi), stats::Table::num(t_latest),
                     stats::Table::num(t_window),
                     stats::Table::pct(
                         experiments::improvement_pct(t_equi, t_window))});
    }
    table.render(std::cout);
    if (opt.csv) table.render_csv(std::cout);
    std::cout << '\n';
  }
  std::cout << "Space sharing avoids Linux's slice-misalignment waste but "
               "folds gangs and\nignores the bus; the last column is the "
               "bandwidth-aware win over it.\n";

  // Representative traced run: SP saturated set under equipartition.
  (void)experiments::maybe_dump_observability(
      opt,
      experiments::make_fig2_workload(experiments::Fig2Set::kSaturated,
                                      workload::paper_application("SP"),
                                      cfg.machine.bus),
      experiments::SchedulerKind::kEquipartition, cfg);
  return 0;
}
