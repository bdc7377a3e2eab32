#include "experiments/fig2.h"

#include <algorithm>
#include <iterator>

#include "experiments/parallel.h"

namespace bbsched::experiments {

const char* to_string(Fig2Set set) {
  switch (set) {
    case Fig2Set::kSaturated: return "2 Apps + 4 BBMA";
    case Fig2Set::kIdleBus: return "2 Apps + 4 nBBMA";
    case Fig2Set::kMixed: return "2 Apps + 2 BBMA + 2 nBBMA";
  }
  return "unknown";
}

workload::Workload make_fig2_workload(Fig2Set set,
                                      const workload::AppProfile& app,
                                      const sim::BusConfig& bus) {
  switch (set) {
    case Fig2Set::kSaturated: return workload::fig2_saturated(app, bus);
    case Fig2Set::kIdleBus: return workload::fig2_idle_bus(app, bus);
    case Fig2Set::kMixed: return workload::fig2_mixed(app, bus);
  }
  return {};
}

std::vector<Fig2Row> run_fig2(Fig2Set set,
                              const std::vector<workload::AppProfile>& apps,
                              const ExperimentConfig& cfg,
                              const ParallelExecutor& executor) {
  constexpr SchedulerKind kKinds[] = {SchedulerKind::kLinux,
                                      SchedulerKind::kLatestQuantum,
                                      SchedulerKind::kQuantaWindow};
  std::vector<RunRequest> requests;
  requests.reserve(apps.size() * std::size(kKinds));
  for (const auto& app : apps) {
    const auto w = make_fig2_workload(set, app, cfg.machine.bus);
    for (const auto kind : kKinds) requests.push_back({w, kind, cfg});
  }
  const auto runs = run_workloads_parallel(requests, executor);

  std::vector<Fig2Row> rows(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    Fig2Row& row = rows[i];
    row.app = apps[i].name;
    row.t_linux_us = runs[3 * i].measured_mean_turnaround_us;
    row.t_latest_us = runs[3 * i + 1].measured_mean_turnaround_us;
    row.t_window_us = runs[3 * i + 2].measured_mean_turnaround_us;
    row.improvement_latest_pct =
        improvement_pct(row.t_linux_us, row.t_latest_us);
    row.improvement_window_pct =
        improvement_pct(row.t_linux_us, row.t_window_us);
  }
  return rows;
}

Fig2Summary summarize(const std::vector<Fig2Row>& rows) {
  Fig2Summary s;
  if (rows.empty()) return s;
  s.latest_min_pct = s.window_min_pct = 1e18;
  s.latest_max_pct = s.window_max_pct = -1e18;
  for (const auto& r : rows) {
    s.latest_avg_pct += r.improvement_latest_pct;
    s.window_avg_pct += r.improvement_window_pct;
    s.latest_max_pct = std::max(s.latest_max_pct, r.improvement_latest_pct);
    s.latest_min_pct = std::min(s.latest_min_pct, r.improvement_latest_pct);
    s.window_max_pct = std::max(s.window_max_pct, r.improvement_window_pct);
    s.window_min_pct = std::min(s.window_min_pct, r.improvement_window_pct);
  }
  s.latest_avg_pct /= static_cast<double>(rows.size());
  s.window_avg_pct /= static_cast<double>(rows.size());
  return s;
}

}  // namespace bbsched::experiments
