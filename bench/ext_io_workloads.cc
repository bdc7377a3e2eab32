// Extension (paper §6 future work): I/O- and network-intensive workloads.
//
// "We plan to test our scheduler with I/O and network-intensive workloads
//  which stress the bus bandwidth, using scientific applications, web and
//  database servers."
//
// A server job's threads alternate request processing with blocking I/O
// whose DMA transfers are additional bus masters: the job holds few
// processors yet can consume substantial bandwidth. The sweep varies the
// server's DMA intensity while it competes with two instances of a
// memory-intensive application and two nBBMA, and reports each scheduler's
// mean application turnaround plus the server's request throughput.
//
// Usage: ext_io_workloads [--fast] [--csv] [--app=NAME] [--jobs=N]
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

  experiments::ExperimentConfig cfg;
  cfg.time_scale = opt.time_scale;
  cfg.engine.seed = opt.seed;

  const auto& app =
      workload::paper_application(opt.app.empty() ? "SP" : opt.app);

  stats::Table table(
      "Server DMA sweep: 2x " + app.name +
      " + 2-thread server + 2 nBBMA (app turnaround improvement vs Linux)");
  table.set_header({"server DMA", "Latest", "Window", "T_linux(s)",
                    "server tx (linux)", "server tx (window)"});

  // One batch across DMA intensities: per intensity (linux, latest, window).
  const std::vector<double> dma_rates = {0.0, 4.0, 10.0, 18.0};
  std::vector<experiments::RunRequest> requests;
  for (double dma_tps : dma_rates) {
    workload::Workload w;
    w.name = "io mix";
    w.jobs.push_back(workload::make_app_job(app, cfg.machine.bus, 2, 11));
    w.jobs.push_back(workload::make_app_job(app, cfg.machine.bus, 2, 23));
    w.measured = {0, 1};
    // Server: 2 request threads, 4 ms of CPU per request then a 6 ms
    // blocking I/O whose DMA moves data at `dma_tps`.
    w.jobs.push_back(workload::make_server_job(
        "server", 2, sim::JobSpec::kInfiniteWork, /*cpu_rate_tps=*/2.0,
        /*cpu_burst_us=*/4'000.0, /*io_burst_us=*/6'000.0, dma_tps));
    w.jobs.push_back(workload::make_nbbma_job());
    w.jobs.push_back(workload::make_nbbma_job());

    requests.push_back({w, experiments::SchedulerKind::kLinux, cfg});
    requests.push_back({w, experiments::SchedulerKind::kLatestQuantum, cfg});
    requests.push_back({w, experiments::SchedulerKind::kQuantaWindow, cfg});
  }
  const auto runs = experiments::run_workloads_parallel(requests, opt.jobs);

  for (std::size_t d = 0; d < dma_rates.size(); ++d) {
    const double dma_tps = dma_rates[d];
    const auto& linux_run = runs[3 * d];
    const auto& latest_run = runs[3 * d + 1];
    const auto& window_run = runs[3 * d + 2];

    auto pct = [&](const experiments::RunResult& r) {
      return experiments::improvement_pct(
          linux_run.measured_mean_turnaround_us,
          r.measured_mean_turnaround_us);
    };
    // Server throughput proxy: transactions it pushed per second of run.
    const double tx_linux = linux_run.job_transactions[2] /
                            (static_cast<double>(linux_run.end_time_us) / 1e6);
    const double tx_window =
        window_run.job_transactions[2] /
        (static_cast<double>(window_run.end_time_us) / 1e6);

    table.add_row({stats::Table::num(dma_tps, 1) + " tps",
                   stats::Table::pct(pct(latest_run)),
                   stats::Table::pct(pct(window_run)),
                   stats::Table::num(linux_run.measured_mean_turnaround_us /
                                     1e6),
                   stats::Table::num(tx_linux / 1e6, 2) + "M/s",
                   stats::Table::num(tx_window / 1e6, 2) + "M/s"});
  }
  table.render(std::cout);
  if (opt.csv) {
    std::cout << '\n';
    table.render_csv(std::cout);
  }
  std::cout << "\nDMA agents consume bandwidth without holding processors, "
               "so the policies must\naccount for traffic they cannot "
               "deschedule — the headroom they can recover\nshrinks as the "
               "server's DMA share grows.\n";

  // Representative traced run: the first Latest-Quantum request.
  (void)experiments::maybe_dump_observability(opt, requests[1].workload,
                                              requests[1].kind,
                                              requests[1].cfg);
  return 0;
}
