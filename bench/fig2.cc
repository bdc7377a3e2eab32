// Reproduces Fig. 2A-C: average turnaround-time improvement (%) of the two
// bandwidth-aware policies over the Linux 2.4 baseline when two instances of
// each application (eight threads on four processors, manager quantum
// 200 ms) run with
//   A: FOUR BBMA microbenchmarks (already-saturated bus),
//   B: FOUR nBBMA microbenchmarks (low-bandwidth jobs available for pairing),
//   C: TWO BBMA and TWO nBBMA (mixed high/low-bandwidth environment).
// Each panel prints its table, its summary and the paper's numbers. Every
// run of a panel goes to the parallel harness as one batch, so --jobs
// changes only the wall time.
//
// Usage: fig2 [--fast] [--scale=X] [--csv] [--app=NAME] [--seed=N]
//             [--jobs=N] [--trace-out=FILE] [--metrics-out=FILE]
//   --trace-out traces Fig. 2A's first application under Latest Quantum.
#include <iostream>

#include "experiments/cli.h"
#include "experiments/fig2.h"
#include "experiments/observe.h"
#include "experiments/parallel.h"
#include "stats/table.h"

namespace {

using bbsched::experiments::Fig2Set;

struct Panel {
  Fig2Set set;
  const char* title;
  const char* paper;
};

constexpr Panel kPanels[] = {
    {Fig2Set::kSaturated, "Fig 2A: 2 Apps (2 threads each) + 4 BBMA",
     "Latest 4..68% (avg 41%), Window 2..53% (avg 31%)."},
    // Raytrace's irregular traffic destabilises the latest-quantum estimate.
    {Fig2Set::kIdleBus, "Fig 2B: 2 Apps (2 threads each) + 4 nBBMA",
     "Latest up to 60% (avg 13%, Raytrace -19%); "
     "Window up to 64% (avg 21%, Raytrace -1%)."},
    {Fig2Set::kMixed, "Fig 2C: 2 Apps (2 threads each) + 2 BBMA + 2 nBBMA",
     "Latest up to 50% (avg 26%, LU -7%); Window up to 47% (avg 25%)."},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace bbsched;
  const auto opt = experiments::parse_cli(argc, argv);

  experiments::ExperimentConfig cfg;
  cfg.time_scale = opt.time_scale;
  cfg.engine.seed = opt.seed;

  std::vector<workload::AppProfile> apps;
  for (const auto& app : workload::paper_applications()) {
    if (opt.app.empty() || opt.app == app.name) apps.push_back(app);
  }

  experiments::ParallelExecutor executor(opt.jobs);
  for (const Panel& panel : kPanels) {
    const auto rows = experiments::run_fig2(panel.set, apps, cfg, executor);

    stats::Table table(std::string(panel.title) +
                       " — avg turnaround improvement vs Linux (%)");
    table.set_header({"app", "Latest", "Window", "T_linux(s)", "T_latest(s)",
                      "T_window(s)"});
    for (const auto& r : rows) {
      table.add_row({r.app, stats::Table::pct(r.improvement_latest_pct),
                     stats::Table::pct(r.improvement_window_pct),
                     stats::Table::num(r.t_linux_us / 1e6),
                     stats::Table::num(r.t_latest_us / 1e6),
                     stats::Table::num(r.t_window_us / 1e6)});
    }
    table.render(std::cout);
    if (opt.csv) {
      std::cout << '\n';
      table.render_csv(std::cout);
    }

    const auto s = experiments::summarize(rows);
    std::cout << "\nSummary   Latest: avg "
              << stats::Table::pct(s.latest_avg_pct) << ", range ["
              << stats::Table::pct(s.latest_min_pct) << ", "
              << stats::Table::pct(s.latest_max_pct) << "]\n"
              << "          Window: avg "
              << stats::Table::pct(s.window_avg_pct) << ", range ["
              << stats::Table::pct(s.window_min_pct) << ", "
              << stats::Table::pct(s.window_max_pct) << "]\n"
              << "Paper:    " << panel.paper << '\n';
  }

  // Representative traced run: Fig. 2A's first application under the
  // Latest-Quantum policy.
  (void)experiments::maybe_dump_observability(
      opt,
      experiments::make_fig2_workload(Fig2Set::kSaturated, apps[0],
                                      cfg.machine.bus),
      experiments::SchedulerKind::kLatestQuantum, cfg);
  return 0;
}
