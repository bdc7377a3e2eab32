// Ablation: the fitness metric itself.
//
// Eq. 1 targets *optimal bus utilization*: elect the application whose
// BBW/thread is closest to the available bandwidth per unallocated
// processor. This bench compares it against simpler election rules, holding
// everything else (gang scheduling, head-of-list rotation, quantum, window)
// fixed:
//   first-fit      — plain gang scheduling in list order (bandwidth-blind)
//   lowest-first   — always co-schedule the least bandwidth-hungry jobs
//   highest-first  — always co-schedule the most bandwidth-hungry jobs
//
// Rows report the mean improvement vs Linux over the three Fig.-2 sets for
// representative applications, showing how much of the win is gang
// scheduling per se and how much is Eq. 1's bandwidth matching.
//
// Usage: ablation_fitness [--fast] [--csv] [--jobs=N]
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

  const std::vector<std::string> app_names = {"Water-nsqr", "LU-CB", "SP",
                                              "CG"};
  const std::vector<core::ElectionRule> rules = {
      core::ElectionRule::kFitness, core::ElectionRule::kFirstFit,
      core::ElectionRule::kLowestFirst, core::ElectionRule::kHighestFirst};

  experiments::ParallelExecutor executor(opt.jobs);

  for (auto set : {experiments::Fig2Set::kSaturated,
                   experiments::Fig2Set::kIdleBus,
                   experiments::Fig2Set::kMixed}) {
    stats::Table table(std::string("Election-rule ablation — ") +
                       experiments::to_string(set) +
                       " (improvement vs Linux, Quanta-Window estimates)");
    std::vector<std::string> header = {"app"};
    for (auto rule : rules) header.emplace_back(core::to_string(rule));
    table.set_header(header);

    // One batch for the whole set: per app, the Linux baseline followed by
    // one run per election rule (stride = 1 + rules.size()).
    std::vector<experiments::RunRequest> requests;
    for (const auto& name : app_names) {
      const auto& app = workload::paper_application(name);
      const auto w =
          experiments::make_fig2_workload(set, app, cfg.machine.bus);
      requests.push_back({w, experiments::SchedulerKind::kLinux, cfg});
      for (auto rule : rules) {
        experiments::ExperimentConfig rcfg = cfg;
        rcfg.managed.manager.election_rule = rule;
        requests.push_back({w, experiments::SchedulerKind::kQuantaWindow,
                            rcfg});
      }
    }
    const auto runs =
        experiments::run_workloads_parallel(requests, executor);

    const std::size_t stride = 1 + rules.size();
    for (std::size_t a = 0; a < app_names.size(); ++a) {
      const auto& linux_run = runs[a * stride];
      std::vector<std::string> row = {app_names[a]};
      for (std::size_t r = 0; r < rules.size(); ++r) {
        const auto& run = runs[a * stride + 1 + r];
        row.push_back(stats::Table::pct(experiments::improvement_pct(
            linux_run.measured_mean_turnaround_us,
            run.measured_mean_turnaround_us)));
      }
      table.add_row(row);
    }
    table.render(std::cout);
    if (opt.csv) {
      table.render_csv(std::cout);
    }
    std::cout << '\n';
  }
  std::cout << "first-fit isolates the gang-scheduling benefit; the gap to "
               "'fitness' is Eq. 1's bandwidth-matching contribution.\n";

  // Representative traced run: SP saturated set under the full fitness rule.
  (void)experiments::maybe_dump_observability(
      opt,
      experiments::make_fig2_workload(experiments::Fig2Set::kSaturated,
                                      workload::paper_application("SP"),
                                      cfg.machine.bus),
      experiments::SchedulerKind::kLatestQuantum, cfg);
  return 0;
}
