// Parameterized end-to-end properties of the scheduling policies across
// every (policy, experiment-set) combination: gang invariants, starvation
// freedom, sane improvement bounds and determinism, on real Fig.-2
// workloads at reduced scale.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "experiments/fig2.h"

namespace bbsched::experiments {
namespace {

using Param = std::tuple<SchedulerKind, Fig2Set>;

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.time_scale = 0.06;
  return cfg;
}

class PolicySetSweep : public ::testing::TestWithParam<Param> {};

TEST_P(PolicySetSweep, CompletesAndStaysWithinSaneBounds) {
  const auto [kind, set] = GetParam();
  const auto cfg = small_cfg();
  const auto& app = workload::paper_application("SP");
  const auto w = make_fig2_workload(set, app, cfg.machine.bus);

  const auto linux_run = run_workload(w, SchedulerKind::kLinux, cfg);
  const auto policy_run = run_workload(w, kind, cfg);

  // Both app instances completed under both schedulers.
  for (std::size_t idx : w.measured) {
    EXPECT_GT(policy_run.turnaround_us[idx], 0.0);
  }
  // The bandwidth-aware policies are never catastrophically worse than
  // Linux (paper's worst corner case is -19%). Equipartition IS allowed to
  // collapse here: with more gangs than processors, folding spin-barrier
  // jobs is ruinous (see test_equipartition and bench/ext_spacesharing) —
  // only bound it loosely.
  const double imp = 100.0 *
                     (linux_run.measured_mean_turnaround_us -
                      policy_run.measured_mean_turnaround_us) /
                     linux_run.measured_mean_turnaround_us;
  const double lower_bound =
      kind == SchedulerKind::kEquipartition ? -300.0 : -30.0;
  EXPECT_GT(imp, lower_bound);
  EXPECT_LT(imp, 90.0);
}

TEST_P(PolicySetSweep, DeterministicAcrossRepeats) {
  const auto [kind, set] = GetParam();
  const auto cfg = small_cfg();
  const auto& app = workload::paper_application("Volrend");
  const auto w = make_fig2_workload(set, app, cfg.machine.bus);
  const auto a = run_workload(w, kind, cfg);
  const auto b = run_workload(w, kind, cfg);
  EXPECT_DOUBLE_EQ(a.measured_mean_turnaround_us,
                   b.measured_mean_turnaround_us);
  EXPECT_EQ(a.end_time_us, b.end_time_us);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSets, PolicySetSweep,
    ::testing::Combine(::testing::Values(SchedulerKind::kLatestQuantum,
                                         SchedulerKind::kQuantaWindow,
                                         SchedulerKind::kPredictiveThroughput,
                                         SchedulerKind::kEquipartition),
                       ::testing::Values(Fig2Set::kSaturated,
                                         Fig2Set::kIdleBus,
                                         Fig2Set::kMixed)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = to_string(std::get<0>(info.param));
      name += "_";
      const auto set = std::get<1>(info.param);
      name += set == Fig2Set::kSaturated  ? "bbma"
              : set == Fig2Set::kIdleBus ? "nbbma"
                                         : "mixed";
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Gang invariants hold for the managed policies on every set: whenever any
// thread of a 2-thread app occupies a CPU, its sibling occupies one too.
class GangInvariantSweep : public ::testing::TestWithParam<Fig2Set> {};

TEST_P(GangInvariantSweep, SiblingsAlwaysCoScheduled) {
  const auto set = GetParam();
  ExperimentConfig cfg = small_cfg();
  cfg.engine.trace = true;
  cfg.engine.os_noise_interval_us = 0;

  const auto& app = workload::paper_application("BT");
  const auto w = make_fig2_workload(set, app, cfg.machine.bus);

  sim::Engine eng(cfg.machine, cfg.engine,
                  make_scheduler(SchedulerKind::kQuantaWindow, cfg));
  for (auto spec : w.jobs) {
    if (!spec.infinite()) spec.work_us *= cfg.time_scale;
    eng.add_job(spec);
  }
  eng.run();

  ASSERT_TRUE(eng.trace().no_oversubscription());
  const auto& state = eng.machine().store().state;
  for (std::uint64_t t_ms = 20; t_ms < 1500; t_ms += 73) {
    const auto ivs = eng.trace().intervals_in(t_ms * 1000, t_ms * 1000 + 1);
    std::map<int, int> per_app;
    for (const auto& iv : ivs) ++per_app[iv.app_id];
    for (const auto& [app_id, count] : per_app) {
      const auto& job = eng.machine().job(app_id);
      if (job.spec.nthreads != 2 || job.completed) continue;
      // Barrier-blocked / I/O-blocked siblings are legitimate gaps; only
      // assert that we never see a *manager-blocked* split: the sibling is
      // either also running or in a transient wait, never kManagerBlocked.
      if (count == 1) {
        for (int tid : job.thread_ids) {
          EXPECT_NE(state[static_cast<std::size_t>(tid)],
                    sim::ThreadState::kManagerBlocked)
              << "split gang at t=" << t_ms << "ms app=" << app_id;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSets, GangInvariantSweep,
                         ::testing::Values(Fig2Set::kSaturated,
                                           Fig2Set::kIdleBus,
                                           Fig2Set::kMixed),
                         [](const ::testing::TestParamInfo<Fig2Set>& info) {
                           switch (info.param) {
                             case Fig2Set::kSaturated: return "bbma";
                             case Fig2Set::kIdleBus: return "nbbma";
                             case Fig2Set::kMixed: return "mixed";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace bbsched::experiments
