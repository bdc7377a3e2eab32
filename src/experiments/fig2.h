// Fig. 2 reproduction: the §5 evaluation of the scheduling policies.
//
// Three multiprogrammed sets at multiprogramming degree two (eight threads
// on four processors), per application:
//   A: 2 app instances + 4 BBMA   (already-saturated bus),
//   B: 2 app instances + 4 nBBMA  (low-bandwidth jobs available),
//   C: 2 app instances + 2 BBMA + 2 nBBMA (mixed environment).
// Each set runs under the Linux 2.4 baseline and both manager policies; the
// reported value is the improvement in the arithmetic-mean turnaround of the
// two application instances over the Linux run.
#pragma once

#include <string>
#include <vector>

#include "experiments/runner.h"
#include "workload/app_profile.h"
#include "workload/workload.h"

namespace bbsched::experiments {

enum class Fig2Set { kSaturated, kIdleBus, kMixed };

[[nodiscard]] const char* to_string(Fig2Set set);

/// Builds the workload of `set` for one application.
[[nodiscard]] workload::Workload make_fig2_workload(
    Fig2Set set, const workload::AppProfile& app, const sim::BusConfig& bus);

struct Fig2Row {
  std::string app;
  double t_linux_us = 0.0;
  double t_latest_us = 0.0;
  double t_window_us = 0.0;
  /// Improvement of mean app turnaround vs Linux, percent (positive =
  /// policy faster).
  double improvement_latest_pct = 0.0;
  double improvement_window_pct = 0.0;
};

class ParallelExecutor;

/// Runs one set for every application in `apps`: the Linux, Latest-Quantum
/// and Quanta-Window runs of every application go to `executor` as one
/// batch. Rows follow `apps` and are identical at any worker count.
[[nodiscard]] std::vector<Fig2Row> run_fig2(
    Fig2Set set, const std::vector<workload::AppProfile>& apps,
    const ExperimentConfig& cfg, ParallelExecutor& executor);

/// Summary statistics over a set's rows (the paper quotes max and average
/// improvements per set).
struct Fig2Summary {
  double latest_avg_pct = 0.0;
  double latest_max_pct = 0.0;
  double latest_min_pct = 0.0;
  double window_avg_pct = 0.0;
  double window_max_pct = 0.0;
  double window_min_pct = 0.0;
};

[[nodiscard]] Fig2Summary summarize(const std::vector<Fig2Row>& rows);

}  // namespace bbsched::experiments
