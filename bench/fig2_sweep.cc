// Multi-seed version of the Fig.-2 headline numbers: every improvement is
// reported as mean ± 95% CI over independent seeds (OS-noise phases, Linux
// slice jitter and burst patterns all vary). The paper reports single
// measurements; this bench shows how sensitive each number is.
//
// Usage: fig2_sweep [--fast] [--csv] [--app=NAME] [--seeds=N] [--jobs=N]
//                   [--trace-out=FILE] [--metrics-out=FILE]
//   (default 5 seeds; sweeps fan out over the parallel harness)
#include <iostream>
#include <string>

#include "experiments/cli.h"
#include "experiments/fig2.h"
#include "experiments/observe.h"
#include "experiments/parallel.h"
#include "experiments/sweep.h"
#include "stats/table.h"

int main(int argc, char** argv) {
  using namespace bbsched;
  const auto opt = experiments::parse_cli(argc, argv);
  int seeds = 5;
  for (int i = 1; i < argc; ++i) {
    experiments::cli_detail::int_flag(argv[0], argv[i], "--seeds", 1, seeds);
  }

  experiments::ExperimentConfig cfg;
  cfg.time_scale = opt.time_scale;
  cfg.engine.seed = opt.seed;

  std::vector<std::string> names = {"Radiosity", "LU-CB", "SP", "CG"};
  if (!opt.app.empty()) names = {opt.app};

  auto fmt = [](const experiments::ImprovementStats& s) {
    return stats::Table::pct(s.mean_pct) + " ± " +
           stats::Table::num(s.ci95_pct, 1);
  };

  experiments::ParallelExecutor executor(opt.jobs);
  // Both policies are scored against one shared Linux run per seed.
  constexpr experiments::SchedulerKind kPolicies[] = {
      experiments::SchedulerKind::kLatestQuantum,
      experiments::SchedulerKind::kQuantaWindow};

  for (auto set : {experiments::Fig2Set::kSaturated,
                   experiments::Fig2Set::kIdleBus,
                   experiments::Fig2Set::kMixed}) {
    stats::Table table(std::string("Fig 2 sweep (") + std::to_string(seeds) +
                       " seeds) — " + experiments::to_string(set));
    table.set_header({"app", "Latest (mean ± ci95)", "Window (mean ± ci95)",
                      "Window range"});
    for (const auto& name : names) {
      const auto& app = workload::paper_application(name);
      const auto w =
          experiments::make_fig2_workload(set, app, cfg.machine.bus);
      const auto improvements = experiments::parallel_sweep_improvements(
          w, kPolicies, experiments::SchedulerKind::kLinux, cfg, seeds,
          executor);
      const auto& latest = improvements[0];
      const auto& window = improvements[1];
      table.add_row({name, fmt(latest), fmt(window),
                     "[" + stats::Table::pct(window.min_pct) + ", " +
                         stats::Table::pct(window.max_pct) + "]"});
    }
    table.render(std::cout);
    if (opt.csv) table.render_csv(std::cout);
    std::cout << '\n';
  }

  // One representative traced run: the first app's saturated-bus workload
  // under the Latest-Quantum policy (the paper's headline configuration).
  (void)experiments::maybe_dump_observability(
      opt,
      experiments::make_fig2_workload(experiments::Fig2Set::kSaturated,
                                      workload::paper_application(names[0]),
                                      cfg.machine.bus),
      experiments::SchedulerKind::kLatestQuantum, cfg);
  return 0;
}
