// Offline optimal co-schedule solver (experiments/opt_solve.h) as a CLI.
//
// Default mode builds a small reservation-style mix (or a Fig. 2 set for
// --app=NAME), prints the certified lower bounds, and the optimal batch
// co-schedule under the analytic contention model with its value.
//
// Usage: opt_solve [--app=NAME] [--procs=N] [--scale=X] [--csv]
//        opt_solve --self-check
//
// --self-check runs the embedded fixture suite (subset-DP vs brute-force
// cross-check, bound sanity) and exits non-zero on any mismatch; ctest and
// tools/check.sh wire this in.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/cli.h"
#include "experiments/opt_solve.h"
#include "stats/table.h"
#include "workload/app_profile.h"
#include "workload/workload.h"

namespace {

using bbsched::experiments::OptApp;
using bbsched::experiments::OptBounds;
using bbsched::experiments::OptInstance;
using bbsched::experiments::OptObjective;
using bbsched::experiments::OptSchedule;

OptInstance synthetic(std::vector<OptApp> apps, int nprocs) {
  OptInstance inst;
  inst.apps = std::move(apps);
  inst.nprocs = nprocs;
  return inst;  // default BusConfig: the calibrated paper bus
}

bool close(double a, double b, double rel = 1e-6) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= rel * scale;
}

int fail(const std::string& what, double got, double want) {
  std::cerr << "self-check FAILED: " << what << " (got " << got << ", want "
            << want << ")\n";
  return 1;
}

/// DP-vs-brute-force and bound sanity over a fixture instance.
int check_instance(const std::string& name, const OptInstance& inst) {
  using bbsched::experiments::brute_force;
  using bbsched::experiments::certified_bounds;
  using bbsched::experiments::solve_batches;
  int failures = 0;
  for (const OptObjective obj :
       {OptObjective::kMakespan, OptObjective::kMeanTurnaround}) {
    const OptSchedule dp = solve_batches(inst, obj);
    const OptSchedule bf = brute_force(inst, obj);
    const double dp_value = obj == OptObjective::kMakespan
                                ? dp.makespan_us
                                : dp.mean_turnaround_us;
    const double bf_value = obj == OptObjective::kMakespan
                                ? bf.makespan_us
                                : bf.mean_turnaround_us;
    if (!close(dp_value, bf_value)) {
      failures += fail(name + ": DP vs brute force", dp_value, bf_value);
    }
    const OptBounds bounds = certified_bounds(inst);
    const double bound = obj == OptObjective::kMakespan
                             ? bounds.makespan_lb_us
                             : bounds.mean_turnaround_lb_us;
    if (dp_value < bound * (1.0 - 1e-9)) {
      failures += fail(name + ": certified bound exceeds the model optimum",
                       dp_value, bound);
    }
  }
  return failures;
}

int self_check() {
  int failures = 0;

  // Zero-demand single app: no contention at all, makespan == work exactly.
  {
    const OptInstance inst =
        synthetic({{"solo", 2, 1000.0, 0.0, 1.0}}, 4);
    const OptSchedule dp = bbsched::experiments::solve_batches(
        inst, OptObjective::kMakespan);
    if (!close(dp.makespan_us, 1000.0, 1e-12)) {
      failures += fail("solo zero-demand makespan", dp.makespan_us, 1000.0);
    }
  }

  failures += check_instance(
      "two-light",
      synthetic({{"a", 2, 1000.0, 1.0, 1.0}, {"b", 2, 800.0, 2.0, 1.0}}, 4));
  failures += check_instance(
      "heavy-pair",
      synthetic({{"hog", 2, 500.0, 11.8, 1.0},
                 {"lean", 2, 700.0, 0.5, 1.0},
                 {"mid", 1, 900.0, 6.0, 1.0}},
                4));
  failures += check_instance(
      "thread-heterogeneous",
      synthetic({{"wide", 3, 400.0, 4.0, 1.0},
                 {"narrow", 1, 1200.0, 9.0, 1.0},
                 {"pair", 2, 600.0, 2.5, 1.0},
                 {"solo", 1, 300.0, 0.1, 1.0}},
                4));
  failures += check_instance(
      "streamer-weighted",
      synthetic({{"bbma-ish", 1, 600.0, 23.6, 1.6},
                 {"app", 2, 900.0, 5.0, 1.0},
                 {"idle-ish", 1, 500.0, 0.0037, 1.0}},
                4));

  // A paper workload end to end: Fig. 2 mixed set for SP (backgrounds are
  // infinite and must be skipped by make_instance).
  {
    const auto& app = bbsched::workload::paper_application("SP");
    bbsched::sim::MachineConfig machine;
    const auto w = bbsched::workload::fig2_mixed(app, machine.bus);
    const OptInstance inst =
        bbsched::experiments::make_instance(w, machine, 0.01);
    if (inst.apps.size() != w.measured.size()) {
      failures += fail("fig2 instance app count",
                       static_cast<double>(inst.apps.size()),
                       static_cast<double>(w.measured.size()));
    } else {
      failures += check_instance("fig2-mixed-SP", inst);
    }
  }

  if (failures == 0) {
    std::cout << "opt_solve self-check: all fixtures OK\n";
    return 0;
  }
  std::cerr << "opt_solve self-check: " << failures << " failure(s)\n";
  return 1;
}

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
  bool check = false;
  const auto opt = experiments::parse_cli(
      argc, argv,
      {{"--procs", "N", "processors, >= 1 (default 4)",
        experiments::number(nprocs, 1)},
       {"--self-check", "", "run the embedded fixture suite and exit",
        experiments::set_true(check)}});
  if (check) return self_check();

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
