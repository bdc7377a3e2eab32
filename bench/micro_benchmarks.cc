// google-benchmark microbenchmarks for the hot paths of the simulator and
// the scheduling policies: bus fixed-point resolution, gang elections,
// engine tick throughput, and the statistics primitives the policies use.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/election.h"
#include "core/managed_scheduler.h"
#include "linuxsched/linux_sched.h"
#include "sim/bus_model.h"
#include "sim/engine.h"
#include "stats/moving_window.h"
#include "workload/demand_models.h"
#include "workload/workload.h"

namespace {

using namespace bbsched;

// Both resolve benches use the workspace overload, as the engine does.
void BM_BusResolveUnsaturated(benchmark::State& state) {
  const sim::BusModel model((sim::BusConfig()));
  std::vector<double> demands(static_cast<std::size_t>(state.range(0)), 1.5);
  sim::BusWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.resolve(demands, {}, ws));
  }
}
BENCHMARK(BM_BusResolveUnsaturated)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_BusResolveSaturated(benchmark::State& state) {
  // Saturation engages the bisection (the expensive path). Fig. 2's
  // "2 Apps + 4 BBMA" mix per CPU, tiled to n agents: half SP threads
  // (9.3 trans/µs, weight 1), half BBMA streamers (23.6, weight 1.5).
  // Unequal coefficients, so the Jensen start is not already the root.
  const sim::BusModel model((sim::BusConfig()));
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> demands(n, 9.3);
  std::vector<double> weights(n, 1.0);
  for (std::size_t i = n / 2; i < n; ++i) {
    demands[i] = 23.6;
    weights[i] = 1.5;
  }
  sim::BusWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.resolve(demands, weights, ws));
  }
}
BENCHMARK(BM_BusResolveSaturated)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_Election(benchmark::State& state) {
  std::vector<core::Candidate> candidates;
  for (int i = 0; i < state.range(0); ++i) {
    candidates.push_back({i, 1 + i % 3, static_cast<double>(i % 24)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::elect(candidates, 4, 29.5));
  }
}
BENCHMARK(BM_Election)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_EngineTickManaged(benchmark::State& state) {
  sim::EngineConfig ecfg;
  ecfg.max_time_us = sim::kForever;
  core::ManagedSchedulerConfig mcfg;
  sim::Engine eng(sim::MachineConfig{}, ecfg,
                  std::make_unique<core::ManagedScheduler>(mcfg));
  const sim::BusConfig bus;
  const auto w =
      workload::fig2_mixed(workload::paper_application("SP"), bus);
  for (const auto& job : w.jobs) eng.add_job(job);
  for (auto _ : state) {
    eng.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineTickManaged);

void BM_EngineTickLinux(benchmark::State& state) {
  sim::EngineConfig ecfg;
  ecfg.max_time_us = sim::kForever;
  sim::Engine eng(
      sim::MachineConfig{}, ecfg,
      std::make_unique<linuxsched::LinuxScheduler>(
          linuxsched::LinuxSchedConfig{}));
  const sim::BusConfig bus;
  const auto w =
      workload::fig2_saturated(workload::paper_application("CG"), bus);
  for (const auto& job : w.jobs) eng.add_job(job);
  for (auto _ : state) {
    eng.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineTickLinux);

void BM_MovingWindowPush(benchmark::State& state) {
  stats::MovingWindow w(5);
  double x = 0.0;
  for (auto _ : state) {
    w.push(x);
    x += 0.37;
    benchmark::DoNotOptimize(w.mean());
  }
}
BENCHMARK(BM_MovingWindowPush);

void BM_BurstyDemandRate(benchmark::State& state) {
  workload::BurstyDemand d(10.0, 0.6, 40'000.0, 42);
  double p = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.rate(0, p));
    p += 997.0;
  }
}
BENCHMARK(BM_BurstyDemandRate);

void BM_Fitness(benchmark::State& state) {
  double a = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fitness(a, 23.6 - a));
    a += 0.001;
    if (a > 29.5) a = 0.0;
  }
}
BENCHMARK(BM_Fitness);

}  // namespace

BENCHMARK_MAIN();
