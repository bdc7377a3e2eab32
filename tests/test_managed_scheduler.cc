// Integration tests for the managed (gang, bandwidth-aware) scheduler on
// the simulator: gang invariants, quantum cadence, sampling and the counter
// faults injected there, blocking semantics, overhead accounting and
// disconnect handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/managed_scheduler.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/engine.h"

namespace bbsched::core {
namespace {

using sim::Engine;
using sim::EngineConfig;
using sim::JobSpec;
using sim::MachineConfig;
using sim::SteadyDemand;

EngineConfig quiet_engine(bool trace = false) {
  EngineConfig e;
  e.os_noise_interval_us = 0;
  e.trace = trace;
  return e;
}

JobSpec job(const std::string& name, int nthreads, double work_us,
            double rate, double barrier_us = 2'000.0) {
  JobSpec spec;
  spec.name = name;
  spec.nthreads = nthreads;
  spec.work_us = work_us;
  spec.barrier_interval_us = barrier_us;
  spec.demand = std::make_shared<SteadyDemand>(rate);
  spec.cache.cold_demand_boost = 0.0;
  spec.cache.migration_sensitivity = 0.0;
  return spec;
}

ManagedSchedulerConfig mcfg(PolicyKind kind = PolicyKind::kLatestQuantum) {
  ManagedSchedulerConfig c;
  c.manager.policy = kind;
  return c;
}

/// One two-thread app alone for 1 s (5 quanta, 2 samples each) under
/// `faults`, with the scheduler's tracer and metrics attached.
void observed_run(const faults::FaultConfig& faults, obs::Tracer& tracer,
                  obs::MetricsRegistry& metrics) {
  ManagedSchedulerConfig c = mcfg();
  c.counter_faults = faults;
  auto sched = std::make_unique<ManagedScheduler>(c);
  sched->set_tracer(&tracer);
  sched->set_metrics(&metrics);
  Engine eng(MachineConfig{}, quiet_engine(), std::move(sched));
  eng.add_job(job("a", 2, 2.0e6, 1.0));
  eng.run_until(sim::ms(1000));
}

/// The delta of every CounterSample event app 0 logged, in order.
std::vector<double> sample_deltas(const obs::Tracer& tracer) {
  std::vector<double> out;
  tracer.events().for_each([&](const obs::TraceEvent& e) {
    if (e.type == obs::EventType::kCounterSample && e.sample.app_id == 0) {
      out.push_back(e.sample.delta_transactions);
    }
  });
  return out;
}

TEST(ManagedScheduler, ConnectsEveryJobAtStart) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<ManagedScheduler>(mcfg()));
  eng.add_job(job("a", 2, 1.0e6, 1.0));
  eng.add_job(job("b", 1, JobSpec::kInfiniteWork, 23.6, 0.0));
  eng.step();
  auto& sched = dynamic_cast<ManagedScheduler&>(eng.scheduler());
  EXPECT_EQ(sched.manager().app_count(), 2u);
}

TEST(ManagedScheduler, GangThreadsRunTogetherOrNotAtAll) {
  EngineConfig ecfg = quiet_engine(true);
  Engine eng(MachineConfig{}, ecfg,
             std::make_unique<ManagedScheduler>(mcfg()));
  eng.add_job(job("a", 2, 600'000.0, 3.0));
  eng.add_job(job("b", 2, 600'000.0, 8.0));
  eng.add_job(job("c", 2, 600'000.0, 12.0));
  eng.run();

  // At every traced instant, the two threads of each app are either both
  // occupying CPUs or both absent (modulo barrier blocking, which we
  // excluded by giving every thread the same steady rate).
  const auto& trace = eng.trace();
  ASSERT_TRUE(trace.no_oversubscription());
  for (std::uint64_t t = 10; t < 500; t += 37) {
    const auto ivs = trace.intervals_in(t * 1000, t * 1000 + 1);
    std::map<int, int> per_app;
    for (const auto& iv : ivs) ++per_app[iv.app_id];
    for (const auto& [app, count] : per_app) {
      EXPECT_EQ(count, 2) << "app " << app << " split at t=" << t << "ms";
    }
  }
}

TEST(ManagedScheduler, QuantumCadenceIs200ms) {
  EngineConfig ecfg = quiet_engine(true);
  Engine eng(MachineConfig{}, ecfg,
             std::make_unique<ManagedScheduler>(mcfg()));
  eng.add_job(job("a", 2, 2.0e6, 1.0));
  eng.add_job(job("b", 2, 2.0e6, 1.0));
  eng.add_job(job("c", 2, 2.0e6, 1.0));
  eng.run_until(sim::sec(2));
  auto& sched = dynamic_cast<ManagedScheduler&>(eng.scheduler());
  // 2 s / 200 ms = 10 quantum boundaries (+1 initial election).
  EXPECT_GE(sched.elections(), 10u);
  EXPECT_LE(sched.elections(), 12u);
}

TEST(ManagedScheduler, SamplesTwicePerQuantum) {
  obs::Tracer tracer({.enabled = true});
  obs::MetricsRegistry metrics;
  observed_run({}, tracer, metrics);
  // 5 quanta x 2 samples each; the app is always running (alone).
  const auto samples = sample_deltas(tracer).size();
  EXPECT_GE(samples, 8u);
  EXPECT_LE(samples, 12u);
}

TEST(ManagedScheduler, CounterFaultClassesActAtTheSamplingSite) {
  // One row per fault class at probability 1: every read logs the class's
  // fault event, and the row's effect shows in the CounterSample deltas
  // (app 0's, in order), the logged fault values or the manager's metrics.
  using faults::FaultConfig;
  using Values = std::vector<double>;
  obs::Tracer clean_tracer({.enabled = true});
  obs::MetricsRegistry clean_metrics;
  observed_run({}, clean_tracer, clean_metrics);
  const Values clean = sample_deltas(clean_tracer);
  ASSERT_FALSE(clean.empty());
  const double span = FaultConfig{}.wrap_span;
  const auto counter = [](const obs::MetricsRegistry& m, const char* name) {
    return m.find_counter(name)->value();
  };

  struct Row {
    const char* name;
    double FaultConfig::*prob;
    obs::FaultKind logged;
    std::function<void(const Values& deltas, const Values& values,
                       const obs::MetricsRegistry& metrics)>
        expect;
  };
  const Row rows[] = {
      {"drop", &FaultConfig::drop_prob, obs::FaultKind::kSampleDropped,
       [](const Values& deltas, const Values&, const obs::MetricsRegistry&) {
         EXPECT_TRUE(deltas.empty()) << "a dropped read posts nothing";
       }},
      {"read-fail", &FaultConfig::read_fail_prob,
       obs::FaultKind::kReadFailure,
       [&](const Values&, const Values&, const obs::MetricsRegistry& m) {
         EXPECT_GT(counter(m, "manager.faults.invalid_samples"), 0.0);
       }},
      {"stale", &FaultConfig::stale_prob, obs::FaultKind::kStaleSample,
       [](const Values& deltas, const Values&, const obs::MetricsRegistry&) {
         ASSERT_FALSE(deltas.empty());
         for (const double d : deltas) EXPECT_EQ(d, 0.0);
       }},
      {"noise", &FaultConfig::noise_prob, obs::FaultKind::kNoisySample,
       [&](const Values& deltas, const Values& factors,
           const obs::MetricsRegistry&) {
         ASSERT_FALSE(deltas.empty());
         EXPECT_EQ(deltas.front(), clean.front() * factors.front());
       }},
      {"wrap", &FaultConfig::wrap_prob, obs::FaultKind::kCounterWraparound,
       [&](const Values&, const Values& wrapped,
           const obs::MetricsRegistry& m) {
         for (const double v : wrapped) EXPECT_LT(v, span);
         EXPECT_GT(counter(m, "manager.faults.negative_deltas"), 0.0);
       }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    FaultConfig faults;
    faults.enabled = true;
    faults.*row.prob = 1.0;
    obs::Tracer tracer({.enabled = true});
    obs::MetricsRegistry metrics;
    observed_run(faults, tracer, metrics);
    Values values;
    tracer.events().for_each([&](const obs::TraceEvent& e) {
      if (e.type == obs::EventType::kFault && e.fault.kind == row.logged) {
        values.push_back(e.fault.value);
      }
    });
    ASSERT_FALSE(values.empty());
    row.expect(sample_deltas(tracer), values, metrics);
  }
}

TEST(ManagedScheduler, NonElectedAppsAreManagerBlocked) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<ManagedScheduler>(mcfg()));
  eng.add_job(job("a", 4, 1.0e6, 1.0));
  eng.add_job(job("b", 4, 1.0e6, 1.0));
  eng.step();
  const auto& m = eng.machine();
  int blocked = 0, placed = 0;
  for (const auto& t : m.threads()) {
    if (t.state == sim::ThreadState::kManagerBlocked) ++blocked;
    if (m.cpu_of(t.id) != -1) ++placed;
  }
  EXPECT_EQ(blocked, 4);
  EXPECT_EQ(placed, 4);
}

TEST(ManagedScheduler, BlockedAppAccumulatesMgrBlockedTime) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<ManagedScheduler>(mcfg()));
  eng.add_job(job("a", 4, 500'000.0, 1.0));
  eng.add_job(job("b", 4, 500'000.0, 1.0));
  eng.run();
  double blocked_total = 0.0;
  for (const auto& t : eng.machine().threads()) {
    blocked_total += t.mgr_blocked_us;
  }
  EXPECT_GT(blocked_total, 100'000.0);
}

TEST(ManagedScheduler, HeadOfListGuaranteesEveryAppRuns) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<ManagedScheduler>(mcfg()));
  // Six two-thread apps, grossly different rates: nobody starves.
  for (int i = 0; i < 6; ++i) {
    eng.add_job(job("app" + std::to_string(i), 2, 1.2e6,
                    i % 2 == 0 ? 0.1 : 11.0));
  }
  eng.run_until(sim::sec(4));
  for (const auto& j : eng.machine().jobs()) {
    double run = 0.0;
    for (int tid : j.thread_ids) run += eng.machine().thread(tid).run_us;
    EXPECT_GT(run, 100'000.0) << "job " << j.spec.name << " starved";
  }
}

TEST(ManagedScheduler, AffinityPreservedAcrossQuanta) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<ManagedScheduler>(mcfg()));
  eng.add_job(job("a", 2, 2.0e6, 1.0));
  eng.add_job(job("b", 2, 2.0e6, 1.0));
  eng.add_job(job("c", 2, 2.0e6, 1.0));
  eng.run_until(sim::sec(3));
  // Gang re-elections prefer each thread's previous CPU. Conflicts between
  // rotating gang pairs still force some moves, but far fewer than one
  // migration per placement (~15 elections x 4 placements here).
  std::uint64_t migrations = 0;
  for (const auto& t : eng.machine().threads()) migrations += t.migrations;
  EXPECT_LE(migrations, 20u);
}

TEST(ManagedScheduler, DisconnectOnCompletionTriggersReelection) {
  EngineConfig ecfg = quiet_engine(true);
  Engine eng(MachineConfig{}, ecfg,
             std::make_unique<ManagedScheduler>(mcfg()));
  eng.add_job(job("short", 4, 100'000.0, 1.0));  // finishes mid-quantum
  eng.add_job(job("long", 4, 800'000.0, 1.0));
  eng.run();
  auto& sched = dynamic_cast<ManagedScheduler&>(eng.scheduler());
  // The short job was disconnected when it completed; the engine stops the
  // moment the last job finishes, so that final disconnect may be pending.
  EXPECT_LE(sched.manager().app_count(), 1u);
  EXPECT_TRUE(eng.machine().all_finite_jobs_done());
  // The long job must not have waited for the next 200 ms boundary after
  // the short one finished at ~100 ms: total runtime ~900 ms, not 1 s+.
  EXPECT_LE(eng.machine().job(1).completion_us, sim::ms(980));
}

TEST(ManagedScheduler, OverheadIdlesTheMachine) {
  ManagedSchedulerConfig heavy = mcfg();
  heavy.overhead_base_us = 10 * sim::kUsPerMs;  // absurd, for visibility
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<ManagedScheduler>(heavy));
  const int a = eng.add_job(job("a", 2, 500'000.0, 1.0));

  ManagedSchedulerConfig light = mcfg();
  Engine eng2(MachineConfig{}, quiet_engine(),
              std::make_unique<ManagedScheduler>(light));
  const int b = eng2.add_job(job("a", 2, 500'000.0, 1.0));

  eng.run();
  eng2.run();
  EXPECT_GT(eng.machine().job(a).turnaround_us(),
            eng2.machine().job(b).turnaround_us());
}

TEST(ManagedScheduler, GangFragmentationLeavesCpusIdle) {
  // One 3-thread app + one 2-thread app on 4 CPUs: they can never co-run;
  // each quantum leaves processors idle.
  EngineConfig ecfg = quiet_engine(true);
  Engine eng(MachineConfig{}, ecfg,
             std::make_unique<ManagedScheduler>(mcfg()));
  eng.add_job(job("three", 3, 400'000.0, 1.0));
  eng.add_job(job("two", 2, 400'000.0, 1.0));
  eng.run();
  // Both complete; 3 + 2 = 5 > 4 processors, so the trace must never show
  // the two apps running simultaneously.
  const auto& trace = eng.trace();
  for (std::uint64_t t = 10; t < 400; t += 23) {
    const auto ivs = trace.intervals_in(t * 1000, t * 1000 + 1);
    std::set<int> apps;
    for (const auto& iv : ivs) apps.insert(iv.app_id);
    EXPECT_LE(apps.size(), 1u) << "t=" << t;
  }
}

TEST(ManagedScheduler, WindowPolicySmoothsEstimates) {
  // Drive both policies through identical history with a bursty app and
  // compare the manager-side estimates.
  for (auto kind : {PolicyKind::kLatestQuantum, PolicyKind::kQuantaWindow}) {
    CpuManager mgr(ManagerConfig{kind});
    const int id = mgr.connect("bursty", 1);
    double last_est = 0.0;
    double max_est = 0.0;
    for (int q = 0; q < 10; ++q) {
      mgr.schedule_quantum(4);
      const double rate = q == 8 ? 40.0 : 5.0;
      mgr.record_sample(id, rate * 200'000.0);
      mgr.schedule_quantum(4);
      last_est = mgr.policy_estimate(id);
      max_est = std::max(max_est, last_est);
    }
    if (kind == PolicyKind::kLatestQuantum) {
      EXPECT_GT(max_est, 30.0);  // the burst passes straight through
    } else {
      EXPECT_LT(max_est, 20.0);  // the 5-sample window damps it
    }
  }
}

}  // namespace
}  // namespace bbsched::core
