// Workload explorer: build a custom multiprogrammed mix from the paper's
// applications and microbenchmarks, run it under every scheduler, and
// compare turnarounds, bus utilization and scheduling behaviour.
//
// Usage:
//   workload_explorer [jobs...]
//     each job is NAME[xN], e.g.  SP CG BBMA BBMAx2 nBBMA Radiosityx2
//   default mix: SP CG BBMAx2 nBBMAx2
//
// Example:
//   ./workload_explorer MG Raytrace BBMAx3 nBBMA
#include <cstdio>
#include <string>
#include <vector>

#include "experiments/cli.h"
#include "experiments/parallel.h"
#include "experiments/runner.h"
#include "workload/workload.h"

namespace {

using namespace bbsched;

struct ParsedJob {
  std::string name;
  int count = 1;
};

/// NAME or NAMExN with N >= 1; anything else exits 2 naming the argument.
ParsedJob parse_job(const char* prog, const std::string& arg) {
  ParsedJob out;
  const auto x = arg.rfind('x');
  if (x != std::string::npos && x + 1 < arg.size() &&
      std::isdigit(static_cast<unsigned char>(arg[x + 1]))) {
    out.name = arg.substr(0, x);
    out.count = experiments::count_operand(prog, "NAMExN", arg.substr(x + 1));
  } else {
    out.name = arg;
  }
  if (out.name != "BBMA" && out.name != "nBBMA" &&
      !experiments::is_paper_app(out.name)) {
    experiments::bad_value(prog, "NAME", arg);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  experiments::ExperimentConfig cfg;
  cfg.time_scale = 0.1;  // demo-sized jobs

  std::vector<ParsedJob> requested;
  for (int i = 1; i < argc; ++i) {
    requested.push_back(parse_job(argv[0], argv[i]));
  }
  if (requested.empty()) {
    requested = {{"SP", 1}, {"CG", 1}, {"BBMA", 2}, {"nBBMA", 2}};
  }

  workload::Workload w;
  w.name = "custom mix";
  std::uint64_t seed = 11;
  for (const auto& job : requested) {
    for (int i = 0; i < job.count; ++i) {
      if (job.name == "BBMA") {
        w.jobs.push_back(workload::make_bbma_job(cfg.machine.bus));
      } else if (job.name == "nBBMA") {
        w.jobs.push_back(workload::make_nbbma_job());
      } else {
        w.jobs.push_back(workload::make_app_job(
            workload::paper_application(job.name), cfg.machine.bus, 2,
            seed += 13));
        w.measured.push_back(w.jobs.size() - 1);
      }
    }
  }
  if (w.measured.empty()) {
    std::fprintf(stderr, "mix needs at least one application\n");
    return 1;
  }

  std::printf("mix:");
  for (const auto& j : w.jobs) std::printf(" %s", j.name.c_str());
  std::printf("   (4 CPUs, bus %.1f trans/us)\n\n", cfg.machine.bus.capacity_tps);

  std::printf("%-16s %14s %12s %11s %11s %11s\n", "scheduler",
              "app turnaround", "bus util", "saturated", "elections",
              "migrations");
  // All scheduler comparisons are independent runs — fan them out through
  // the parallel harness (results land in request order).
  std::vector<experiments::RunRequest> requests;
  for (const auto kind : {experiments::SchedulerKind::kLinux,
                          experiments::SchedulerKind::kLatestQuantum,
                          experiments::SchedulerKind::kQuantaWindow}) {
    requests.push_back({w, kind, cfg});
  }
  const auto runs = experiments::run_workloads_parallel(requests);
  for (const auto& r : runs) {
    std::printf("%-16s %12.2f s %11.1f%% %10.1f%% %11llu %11llu\n",
                r.scheduler.c_str(), r.measured_mean_turnaround_us / 1e6,
                100.0 * r.engine_stats.bus_utilization.mean(),
                100.0 * static_cast<double>(r.engine_stats.saturated_ticks) /
                    static_cast<double>(r.engine_stats.total_ticks),
                static_cast<unsigned long long>(r.elections),
                static_cast<unsigned long long>(r.migrations));
  }

  std::printf(
      "\nPer-job turnarounds under quanta-window (0 = background job):\n");
  const auto& r = runs[2];
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    std::printf("  %-12s %8.2f s   %12.0f transactions\n",
                w.jobs[i].name.c_str(), r.turnaround_us[i] / 1e6,
                r.job_transactions[i]);
  }
  return 0;
}
