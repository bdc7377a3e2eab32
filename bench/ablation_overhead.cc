// Ablation: CPU-manager overhead (paper §4).
//
// "The overhead introduced by the CPU manager ... is usually negligible. In
//  the worst case scenario, namely when multiple identical copies of
//  applications with low bus bandwidth requirements are co-executed, it is
//  at most 4.5%."
//
// This bench reproduces that measurement: N identical low-bandwidth
// (Radiosity-class) instances run under the manager with realistic per-
// quantum costs, and the slowdown relative to a zero-overhead manager is
// reported. Low-bandwidth copies are the worst case because the manager's
// work is the same while the policy provides no offsetting bus benefit.
//
// Usage: ablation_overhead [--fast] [--csv] [--jobs=N]
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

  experiments::ExperimentConfig base;
  base.time_scale = opt.time_scale;
  base.engine.seed = opt.seed;

  stats::Table table(
      "Manager overhead: identical low-bandwidth copies (worst case)");
  table.set_header(
      {"copies", "T no-overhead (s)", "T with overhead (s)", "overhead"});

  const auto& radiosity = workload::paper_application("Radiosity");
  const std::vector<int> copy_counts = {2, 3, 4, 6, 8};
  const int kSeeds = 5;

  // One batch across all copy counts and seeds. Per copy count: kSeeds
  // (free, cost) pairs — averaging over seeds because OS-noise phase shifts
  // can perturb the election sequence by more than the overhead itself.
  std::vector<experiments::RunRequest> requests;
  for (int copies : copy_counts) {
    workload::Workload w;
    w.name = std::to_string(copies) + "x Radiosity";
    for (int i = 0; i < copies; ++i) {
      w.jobs.push_back(workload::make_app_job(radiosity, base.machine.bus, 2,
                                              /*seed=*/100 + i));
      w.measured.push_back(static_cast<std::size_t>(i));
    }
    for (int s = 0; s < kSeeds; ++s) {
      experiments::ExperimentConfig free_cfg = base;
      free_cfg.engine.seed = opt.seed + static_cast<std::uint64_t>(s);
      free_cfg.managed.overhead_base_us = 0;
      free_cfg.managed.overhead_per_app_us = 0;
      requests.push_back({w, experiments::SchedulerKind::kQuantaWindow,
                          free_cfg});

      experiments::ExperimentConfig cost_cfg = base;
      cost_cfg.engine.seed = opt.seed + static_cast<std::uint64_t>(s);
      cost_cfg.managed.overhead_base_us = 300;
      cost_cfg.managed.overhead_per_app_us = 100;
      requests.push_back({w, experiments::SchedulerKind::kQuantaWindow,
                          cost_cfg});
    }
  }
  const auto runs = experiments::run_workloads_parallel(
      requests, experiments::ParallelExecutor(opt.jobs));

  const std::size_t stride = 2 * static_cast<std::size_t>(kSeeds);
  for (std::size_t c = 0; c < copy_counts.size(); ++c) {
    double t_free = 0.0;
    double t_cost = 0.0;
    for (int s = 0; s < kSeeds; ++s) {
      const std::size_t idx =
          c * stride + 2 * static_cast<std::size_t>(s);
      t_free += runs[idx].measured_mean_turnaround_us;
      t_cost += runs[idx + 1].measured_mean_turnaround_us;
    }
    t_free /= kSeeds;
    t_cost /= kSeeds;

    const double overhead = 100.0 * (t_cost - t_free) / t_free;
    table.add_row({std::to_string(copy_counts[c]),
                   stats::Table::num(t_free / 1e6),
                   stats::Table::num(t_cost / 1e6),
                   stats::Table::pct(overhead)});
  }
  table.render(std::cout);
  std::cout << "\nPaper: at most 4.5% in this worst case, usually "
               "negligible.\n";
  if (opt.csv) {
    std::cout << '\n';
    table.render_csv(std::cout);
  }

  // Representative traced run: the first zero-overhead request.
  (void)experiments::maybe_dump_observability(opt, requests[0].workload,
                                              requests[0].kind,
                                              requests[0].cfg);
  return 0;
}
