// Offline optimal co-schedule solver (experiments/opt_solve.h) as a CLI.
//
// Default mode builds a small reservation-style mix (or a Fig. 2 set for
// --app=NAME), prints the certified lower bounds, and the optimal batch
// co-schedule under the analytic contention model with its value.
//
// Usage: opt_solve [--app=NAME] [--procs=N] [--scale=X] [--csv]
//
// tests/test_opt_solve.cc checks the solver against a brute-force
// enumerator and its own certified bounds (ctest -L qos).
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/cli.h"
#include "experiments/opt_solve.h"
#include "stats/table.h"
#include "workload/app_profile.h"
#include "workload/workload.h"

namespace {

using bbsched::experiments::OptInstance;
using bbsched::experiments::OptSchedule;

std::string describe(const OptSchedule& s, const OptInstance& inst) {
  std::ostringstream os;
  for (std::size_t b = 0; b < s.batches.size(); ++b) {
    if (b > 0) os << " | ";
    for (std::size_t i = 0; i < s.batches[b].size(); ++i) {
      if (i > 0) os << '+';
      os << inst.apps[static_cast<std::size_t>(s.batches[b][i])].name;
    }
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bbsched;
  int nprocs = 4;
  const auto opt = experiments::parse_cli(
      argc, argv,
      {{"--procs", "N", "processors, >= 1 (default 4)",
        experiments::number(nprocs, 1)}});

  sim::MachineConfig machine;
  machine.num_cpus = nprocs;

  workload::Workload w;
  if (!opt.app.empty()) {
    w = workload::fig2_mixed(workload::paper_application(opt.app),
                             machine.bus);
  } else {
    // A reservation-style mix: two finite streamer instances plus two
    // ordinary applications (the shape bench/ext_qos sweeps).
    w.name = "qos-demo";
    w.jobs.push_back(workload::make_app_job(
        workload::paper_application("SP"), machine.bus, 2));
    w.jobs.push_back(workload::make_app_job(
        workload::paper_application("CG"), machine.bus, 2));
    w.jobs.push_back(workload::make_app_job(
        workload::paper_application("Radiosity"), machine.bus, 2));
    w.jobs.push_back(workload::make_app_job(
        workload::paper_application("MG"), machine.bus, 2));
    w.measured = {0, 1, 2, 3};
  }

  const double scale = opt.time_scale == 1.0 ? 0.02 : opt.time_scale;
  const experiments::OptInstance inst =
      experiments::make_instance(w, machine, scale);
  const experiments::OptBounds bounds = experiments::certified_bounds(inst);
  const experiments::OptSchedule best_mean = experiments::solve_batches(
      inst, experiments::OptObjective::kMeanTurnaround);
  const experiments::OptSchedule best_span =
      experiments::solve_batches(inst, experiments::OptObjective::kMakespan);

  stats::Table table("Offline optimum — " + w.name + " (" +
                     std::to_string(inst.apps.size()) + " apps, " +
                     std::to_string(nprocs) + " procs, scale " +
                     stats::Table::num(scale) + ")");
  table.set_header({"quantity", "certified LB (s)", "batch-DP opt (s)",
                    "optimal batches"});
  table.add_row({"mean turnaround",
                 stats::Table::num(bounds.mean_turnaround_lb_us / 1e6, 4),
                 stats::Table::num(best_mean.mean_turnaround_us / 1e6, 4),
                 describe(best_mean, inst)});
  table.add_row({"makespan",
                 stats::Table::num(bounds.makespan_lb_us / 1e6, 4),
                 stats::Table::num(best_span.makespan_us / 1e6, 4),
                 describe(best_span, inst)});
  table.render(std::cout);
  if (opt.csv) table.render_csv(std::cout);
  std::cout << "\nThe certified LB holds for every scheduler on every run; "
               "the batch-DP value is\nthe optimum over gang-batch "
               "schedules under the analytic contention model.\n";
  return 0;
}
