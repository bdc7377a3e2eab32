// Parallel experiment harness.
//
// Every experiment in this repo is a batch of *independent* simulations:
// multi-seed sweeps, policy comparisons, parameter ablations. Each
// simulation is fully deterministic given its (workload, scheduler, config)
// triple — the engine owns all of its state and every stochastic ingredient
// is drawn from explicitly seeded generators — so the batch can fan across
// hardware threads freely. Results land in the slot their index owns, which
// makes the output bit-identical to the serial path regardless of worker
// count or completion order (verified by tests/test_parallel.cc at 1/2/8
// workers).
#pragma once

#include <cstddef>
#include <exception>
#include <future>
#include <span>
#include <utility>
#include <vector>

#include "experiments/runner.h"
#include "experiments/sweep.h"
#include "runtime/thread_pool.h"
#include "workload/workload.h"

namespace bbsched::experiments {

/// Fans index-addressed tasks over a ThreadPool. Construct once and reuse
/// across batches; the pool threads persist for the executor's lifetime.
class ParallelExecutor {
 public:
  /// `workers <= 0` sizes the pool to the hardware thread count.
  explicit ParallelExecutor(int workers = 0) : pool_(workers) {}

  [[nodiscard]] int workers() const noexcept { return pool_.size(); }

  /// Evaluates fn(i) for every i in [0, n) across the pool and returns the
  /// results indexed by i. The result order is a function of `n` alone —
  /// never of worker count or scheduling — so deterministic tasks yield
  /// bit-identical batches at any pool size. Waits for the whole batch even
  /// on failure, then rethrows the lowest-index exception.
  template <class Fn>
  auto map(std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{}))> {
    using R = decltype(fn(std::size_t{}));
    std::vector<std::future<R>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(pool_.submit([&fn, i] { return fn(i); }));
    }
    // Wait first so every task finishes before any result (or exception)
    // is consumed: tasks reference `fn`, which must outlive them all.
    for (auto& f : futures) f.wait();
    std::vector<R> results;
    results.reserve(n);
    for (auto& f : futures) results.push_back(f.get());
    return results;
  }

 private:
  runtime::ThreadPool pool_;
};

/// One simulation to run: a (workload, scheduler, config) triple.
struct RunRequest {
  workload::Workload workload;
  SchedulerKind kind = SchedulerKind::kLinux;
  ExperimentConfig cfg;
};

/// Runs every request through run_workload() across `executor`'s pool;
/// results[i] corresponds to requests[i].
[[nodiscard]] std::vector<RunResult> run_workloads_parallel(
    std::span<const RunRequest> requests, ParallelExecutor& executor);

/// Convenience overload owning a one-shot pool of `workers` threads
/// (`0` = hardware thread count).
[[nodiscard]] std::vector<RunResult> run_workloads_parallel(
    std::span<const RunRequest> requests, int workers = 0);

/// Parallel counterpart of sweep_improvement() for several policies scored
/// against one baseline. Each seed's baseline runs once and serves every
/// policy: seed s owns the policies.size() + 1 consecutive tasks from
/// s * (policies.size() + 1), its baseline run first, then one run per
/// policy. Result p is bit-identical to sweep_improvement(workload,
/// policies[p], baseline, cfg, seeds) at any worker count.
[[nodiscard]] std::vector<ImprovementStats> parallel_sweep_improvements(
    const workload::Workload& workload,
    std::span<const SchedulerKind> policies, SchedulerKind baseline,
    const ExperimentConfig& cfg, int seeds, ParallelExecutor& executor);

/// One-policy case of parallel_sweep_improvements(): same seeds, same
/// samples, same summary as sweep_improvement(), with the 2*seeds
/// simulations run concurrently.
[[nodiscard]] ImprovementStats parallel_sweep_improvement(
    const workload::Workload& workload, SchedulerKind policy,
    SchedulerKind baseline, const ExperimentConfig& cfg, int seeds,
    ParallelExecutor& executor);

/// Convenience overload owning a one-shot pool.
[[nodiscard]] ImprovementStats parallel_sweep_improvement(
    const workload::Workload& workload, SchedulerKind policy,
    SchedulerKind baseline, const ExperimentConfig& cfg, int seeds,
    int workers = 0);

}  // namespace bbsched::experiments
