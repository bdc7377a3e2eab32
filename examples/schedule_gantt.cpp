// Schedule visualization: run the same workload under every scheduler and
// render ASCII Gantt charts of who occupied which processor when. The
// contrast makes the policies' behaviour obvious at a glance: Linux
// interleaves everything; equipartition draws static horizontal stripes;
// the bandwidth-aware managers alternate clean vertical gangs.
//
// Usage: schedule_gantt [APP] [SECONDS]     (default: SP, 4 s; SECONDS >= 1)
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "experiments/cli.h"
#include "experiments/runner.h"
#include "trace/gantt.h"
#include "workload/workload.h"

int main(int argc, char** argv) {
  using namespace bbsched;
  const std::string app_name = argc > 1 ? argv[1] : "SP";
  if (!experiments::is_paper_app(app_name)) {
    experiments::bad_value(argv[0], "APP", app_name);
  }
  const int seconds =
      argc > 2 ? experiments::count_operand(argv[0], "SECONDS", argv[2]) : 4;

  experiments::ExperimentConfig cfg;
  const auto w = workload::fig2_mixed(
      workload::paper_application(app_name), cfg.machine.bus);

  std::vector<std::string> names;
  for (const auto& j : w.jobs) names.push_back(j.name);

  for (const auto kind : {experiments::SchedulerKind::kLinux,
                          experiments::SchedulerKind::kEquipartition,
                          experiments::SchedulerKind::kQuantaWindow}) {
    sim::EngineConfig ecfg = cfg.engine;
    ecfg.trace = true;
    sim::Engine eng(cfg.machine, ecfg,
                    experiments::make_scheduler(kind, cfg));
    for (const auto& job : w.jobs) eng.add_job(job);
    eng.run_until(sim::sec(static_cast<std::uint64_t>(seconds)));

    std::printf("\n=== %s ===\n", experiments::to_string(kind));
    trace::GanttOptions opt;
    opt.cell_us = 25'000;  // 25 ms cells: quantum structure visible
    opt.max_cells = 160;
    render_gantt(std::cout, eng.trace(), cfg.machine.num_cpus, names, opt);
  }
  std::printf("\nworkload: %s — jobs 'a','b' are the application instances; "
              "'c','d' BBMA; 'e','f' nBBMA\n", w.name.c_str());
  return 0;
}
