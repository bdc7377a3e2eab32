// google-benchmark microbenchmarks for the hot paths of the simulator and
// the scheduling policies: bus fixed-point resolution, gang elections,
// engine tick throughput with and without the tracer and the counter-fault
// hook, the parallel sweep harness, and the statistics primitives the
// policies use. tests/test_perf_smoke.cc gates the same engine benches on
// allocating nothing.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/election.h"
#include "core/managed_scheduler.h"
#include "experiments/parallel.h"
#include "experiments/runner.h"
#include "linuxsched/linux_sched.h"
#include "obs/tracer.h"
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

void BM_BusResolveSaturatedVaried(benchmark::State& state) {
  // BM_BusResolveSaturated repeats one vector, so the branch predictor
  // learns its whole search path. This one cycles through 1024 saturated
  // per-CPU vectors of Fig. 2, generated once from a fixed seed: four of the
  // eight threads of a set (two 2-thread instances of a paper application
  // beside four BBMA, four nBBMA, or two of each), each at a random point of
  // its demand curve and drifted by a random cache warmth in [0.5, 1], as
  // the engine derives demand.
  const sim::BusConfig bus;
  const sim::BusModel model(bus);
  std::vector<workload::Workload> sets;
  for (const auto& app : workload::paper_applications()) {
    sets.push_back(workload::fig2_saturated(app, bus));
    sets.push_back(workload::fig2_idle_bus(app, bus));
    sets.push_back(workload::fig2_mixed(app, bus));
  }
  std::uint64_t rng = 42;
  auto next = [&rng] {  // splitmix64
    std::uint64_t z = (rng += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  auto unit = [&next] {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  };
  struct Mix {
    std::vector<double> demands;
    std::vector<double> weights;
  };
  std::vector<Mix> mixes;
  sim::BusWorkspace ws;
  while (mixes.size() < 1024) {
    const auto& jobs = sets[next() % sets.size()].jobs;
    std::vector<std::pair<const sim::JobSpec*, int>> threads;
    for (const auto& job : jobs) {
      for (int t = 0; t < job.nthreads; ++t) threads.emplace_back(&job, t);
    }
    Mix mix;
    for (std::size_t cpu = 0; cpu < 4; ++cpu) {
      const std::size_t pick = cpu + next() % (threads.size() - cpu);
      std::swap(threads[cpu], threads[pick]);
      const auto& [job, tidx] = threads[cpu];
      const double span = job->infinite() ? 1e7 : job->work_us;
      const double warmth = 0.5 + 0.5 * unit();
      mix.demands.push_back(job->demand->rate(tidx, span * unit()) *
                            (1.0 + job->cache.cold_demand_boost *
                                       (1.0 - warmth)));
      mix.weights.push_back(job->bus_priority);
    }
    if (model.resolve(mix.demands, mix.weights, ws).saturated) {
      mixes.push_back(std::move(mix));
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const Mix& mix = mixes[i];
    if (++i == mixes.size()) i = 0;
    benchmark::DoNotOptimize(model.resolve(mix.demands, mix.weights, ws));
  }
}
BENCHMARK(BM_BusResolveSaturatedVaried);

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

// Arg 1 turns the counter-fault hook on: 10% of reads dropped, 10% noisy.
void BM_EngineTickManaged(benchmark::State& state) {
  sim::EngineConfig ecfg;
  ecfg.max_time_us = sim::kForever;
  core::ManagedSchedulerConfig mcfg;
  mcfg.counter_faults.enabled = state.range(0) != 0;
  mcfg.counter_faults.drop_prob = 0.10;
  mcfg.counter_faults.noise_prob = 0.10;
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
BENCHMARK(BM_EngineTickManaged)->Arg(0)->Arg(1);

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

// The Fig. 1 pinned engine (Raytrace + 2 BBMA, OS noise on), built and
// warmed with the timer paused as the allocation gate warms it, then timed
// over 5,000 ticks of run_until, which batches quiet ticks as the
// experiments do. Arg 1 enables the tracer: the two rows' ratio is the
// tracer's cost on the simulator.
void BM_EngineRunUntil(benchmark::State& state) {
  constexpr std::uint64_t kTicks = 5'000;
  const experiments::ExperimentConfig cfg;
  const auto w = workload::fig1_with_bbma(
      workload::paper_application("Raytrace"), cfg.machine.bus);
  obs::Tracer tracer({.enabled = state.range(0) != 0});
  std::optional<sim::Engine> eng;
  for (auto _ : state) {
    state.PauseTiming();
    eng.reset();
    tracer.clear();
    eng.emplace(cfg.machine, cfg.engine,
                experiments::make_scheduler(
                    experiments::SchedulerKind::kPinned, cfg));
    eng->set_tracer(&tracer);
    for (const auto& job : w.jobs) eng->add_job(job);
    for (int i = 0; i < 512; ++i) eng->step();
    eng->run_until(eng->now() + 2048 * eng->config().tick_us);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        eng->run_until(eng->now() + kTicks * eng->config().tick_us));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kTicks));
}
BENCHMARK(BM_EngineRunUntil)->Arg(0)->Arg(1);

// Fig. 2's mixed Volrend set, Window scored against Linux over four seeds,
// on a pool of 1, 2 and 4 workers. Every output is bit-identical to the
// serial sweep (tests/test_parallel.cc); this times how the pool scales.
void BM_ParallelSweep(benchmark::State& state) {
  experiments::ExperimentConfig cfg;
  cfg.time_scale = 0.1;
  const auto w = workload::fig2_mixed(workload::paper_application("Volrend"),
                                      cfg.machine.bus);
  experiments::ParallelExecutor executor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiments::parallel_sweep_improvement(
        w, experiments::SchedulerKind::kQuantaWindow,
        experiments::SchedulerKind::kLinux, cfg, 4, executor));
  }
}
BENCHMARK(BM_ParallelSweep)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

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
