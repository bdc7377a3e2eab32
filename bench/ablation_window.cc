// Ablation: moving-window length (paper §4).
//
// The paper chose a 5-sample window because it "has the property of limiting
// the average distance between the observed transactions pattern and the
// moving window average to 5% for applications with irregular bus bandwidth
// requirements, such as Raytrace or LU", while wider windows would need
// decaying weights to stay responsive.
//
// Part 1 reproduces that signal-tracking argument: per-quantum transaction
// rates of each irregular application are pushed through windows of length
// 1..16 and the mean relative distance |window - actual| / mean is printed.
//
// Part 2 shows the end-to-end effect: Fig.-2B improvement for Raytrace as a
// function of the window length (length 1 == 'Latest Quantum').
//
// Usage: ablation_window [--fast] [--csv] [--jobs=N]
#include <cmath>
#include <iostream>
#include <memory>
#include <vector>

#include "experiments/cli.h"
#include "experiments/observe.h"
#include "experiments/fig2.h"
#include "experiments/parallel.h"
#include "stats/moving_window.h"
#include "stats/table.h"
#include "workload/demand_models.h"

namespace {

using namespace bbsched;

/// Mean relative distance between the per-quantum rate sequence of `app`
/// and its trailing moving average of length `window_len`.
double tracking_distance(const workload::AppProfile& app,
                         std::size_t window_len) {
  const sim::BusConfig bus;
  const auto spec = workload::make_app_job(app, bus, 2, /*seed=*/11);

  // Per-200ms-quantum mean demand of thread 0 (progress advances ~1:1 with
  // time in the uncontended standalone run this models).
  const double quantum_us = 200.0e3;
  const int quanta = 200;
  std::vector<double> rates;
  for (int q = 0; q < quanta; ++q) {
    double sum = 0.0;
    const int steps = 40;
    for (int s = 0; s < steps; ++s) {
      const double progress = q * quantum_us + (s + 0.5) * quantum_us / steps;
      sum += spec.demand->rate(0, progress);
    }
    rates.push_back(sum / steps);
  }

  // The estimate that matters is the one the policy uses for the NEXT
  // quantum: compare the trailing window average against the rate the
  // application then actually exhibits. Window length 1 is exactly the
  // 'Latest Quantum' estimator.
  stats::MovingWindow window(window_len);
  double dist = 0.0;
  double mean = 0.0;
  int counted = 0;
  for (double r : rates) {
    if (window.size() >= window_len) {
      dist += std::fabs(window.mean() - r);
      mean += r;
      ++counted;
    }
    window.push(r);
  }
  return counted > 0 ? dist / mean : 0.0;  // == avg|error| / avg(rate)
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = experiments::parse_cli(argc, argv);

  // ---- Part 1: signal tracking ----
  stats::Table tracking(
      "Window tracking error: mean |window avg - quantum rate| / mean rate");
  tracking.set_header({"window", "Raytrace", "LU-CB", "CG (steady-ish)"});
  const auto& ray = workload::paper_application("Raytrace");
  const auto& lu = workload::paper_application("LU-CB");
  const auto& cg = workload::paper_application("CG");
  for (std::size_t len : {1u, 2u, 3u, 4u, 5u, 6u, 8u, 12u, 16u}) {
    tracking.add_row({std::to_string(len),
                      stats::Table::pct(100.0 * tracking_distance(ray, len)),
                      stats::Table::pct(100.0 * tracking_distance(lu, len)),
                      stats::Table::pct(100.0 * tracking_distance(cg, len))});
  }
  tracking.render(std::cout);
  std::cout << "\nPaper: a 5-sample window limits the distance to ~5% for "
               "irregular applications.\n\n";

  // ---- Part 2: end-to-end policy stability vs window length ----
  experiments::ExperimentConfig cfg;
  cfg.time_scale = opt.time_scale;
  cfg.engine.seed = opt.seed;

  stats::Table e2e("Fig 2B improvement for Raytrace vs window length");
  e2e.set_header({"window", "improvement vs linux"});
  const auto w = experiments::make_fig2_workload(
      experiments::Fig2Set::kIdleBus, ray, cfg.machine.bus);

  // Batch the baseline and every window/ewma variant in one parallel run:
  // request 0 = Linux, then one kManagedCustom run per table row.
  const std::vector<std::size_t> window_lens = {1, 3, 5, 8, 12};
  const std::vector<double> ewma_alphas = {0.33, 0.15};
  std::vector<experiments::RunRequest> requests;
  requests.push_back({w, experiments::SchedulerKind::kLinux, cfg});
  for (std::size_t len : window_lens) {
    experiments::ExperimentConfig wcfg = cfg;
    wcfg.managed.manager.policy = core::PolicyKind::kQuantaWindow;
    wcfg.managed.manager.window_len = len;
    requests.push_back({w, experiments::SchedulerKind::kManagedCustom, wcfg});
  }
  // §4's wider-window suggestion: exponentially decaying weights instead of
  // a longer flat window.
  for (double alpha : ewma_alphas) {
    experiments::ExperimentConfig wcfg = cfg;
    wcfg.managed.manager.policy = core::PolicyKind::kExponential;
    wcfg.managed.manager.ewma_alpha = alpha;
    requests.push_back({w, experiments::SchedulerKind::kManagedCustom, wcfg});
  }
  const auto runs = experiments::run_workloads_parallel(requests, opt.jobs);

  const auto& linux_run = runs[0];
  auto improvement = [&](const experiments::RunResult& run) {
    return experiments::improvement_pct(linux_run.measured_mean_turnaround_us,
                                        run.measured_mean_turnaround_us);
  };
  for (std::size_t i = 0; i < window_lens.size(); ++i) {
    e2e.add_row({std::to_string(window_lens[i]),
                 stats::Table::pct(improvement(runs[1 + i]))});
  }
  for (std::size_t i = 0; i < ewma_alphas.size(); ++i) {
    e2e.add_row({"ewma a=" + stats::Table::num(ewma_alphas[i], 2),
                 stats::Table::pct(
                     improvement(runs[1 + window_lens.size() + i]))});
  }
  e2e.render(std::cout);
  if (opt.csv) {
    std::cout << '\n';
    tracking.render_csv(std::cout);
    e2e.render_csv(std::cout);
  }

  // Representative traced run: the swept workload at the default window.
  (void)experiments::maybe_dump_observability(
      opt, w, experiments::SchedulerKind::kQuantaWindow, cfg);
  return 0;
}
