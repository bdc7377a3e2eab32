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

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "experiments/runner.h"
#include "experiments/sweep.h"
#include "workload/workload.h"

namespace bbsched::experiments {

/// Fans index-addressed tasks over up to `workers` threads, one fork-join
/// per batch: the caller works too, so one worker starts no thread.
class ParallelExecutor {
 public:
  /// `workers <= 0` means one per hardware thread.
  explicit ParallelExecutor(int workers = 0)
      : workers_(workers > 0
                     ? static_cast<std::size_t>(workers)
                     : std::max(1u, std::thread::hardware_concurrency())) {}

  /// Evaluates fn(i) for every i in [0, n): the caller and
  /// min(workers, n) - 1 helper threads take indices from one counter, and
  /// each task writes slot i. The result order is a function of `n` alone —
  /// never of worker count or scheduling — so deterministic tasks yield
  /// bit-identical batches at any worker count. Waits for the whole batch
  /// even on failure, then rethrows the lowest-index exception.
  template <class Fn>
  auto map(std::size_t n, Fn&& fn) const
      -> std::vector<decltype(fn(std::size_t{}))> {
    using R = decltype(fn(std::size_t{}));
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> packs slots into shared words");
    std::vector<R> results(n);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) {
        try {
          results[i] = fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    {
      std::vector<std::jthread> helpers;
      for (std::size_t h = 1; h < std::min(workers_, n); ++h) {
        helpers.emplace_back(work);
      }
      work();
    }  // joins the helpers
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    return results;
  }

 private:
  std::size_t workers_;
};

/// One simulation to run: a (workload, scheduler, config) triple.
struct RunRequest {
  workload::Workload workload;
  SchedulerKind kind = SchedulerKind::kLinux;
  ExperimentConfig cfg;
};

/// Runs every request through run_workload() on `executor`; results[i]
/// corresponds to requests[i].
[[nodiscard]] std::vector<RunResult> run_workloads_parallel(
    std::span<const RunRequest> requests, const ParallelExecutor& executor);

/// Parallel counterpart of sweep_improvement() for several policies scored
/// against one baseline. Each seed's baseline runs once and serves every
/// policy: seed s owns the policies.size() + 1 consecutive tasks from
/// s * (policies.size() + 1), its baseline run first, then one run per
/// policy. Result p is bit-identical to sweep_improvement(workload,
/// policies[p], baseline, cfg, seeds) at any worker count.
[[nodiscard]] std::vector<ImprovementStats> parallel_sweep_improvements(
    const workload::Workload& workload,
    std::span<const SchedulerKind> policies, SchedulerKind baseline,
    const ExperimentConfig& cfg, int seeds, const ParallelExecutor& executor);

/// One-policy case of parallel_sweep_improvements(): same seeds, same
/// samples, same summary as sweep_improvement(), with the 2*seeds
/// simulations run concurrently.
[[nodiscard]] ImprovementStats parallel_sweep_improvement(
    const workload::Workload& workload, SchedulerKind policy,
    SchedulerKind baseline, const ExperimentConfig& cfg, int seeds,
    const ParallelExecutor& executor);

}  // namespace bbsched::experiments
