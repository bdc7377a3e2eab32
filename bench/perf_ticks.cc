// Performance tracking bench for the simulation hot path and the parallel
// experiment harness. Emits one JSON object on stdout:
//
//   {
//     "hardware_threads": ...,
//     "tick_bench": { ticks, wall_s, ticks_per_sec, allocs, allocs_per_tick,
//                     batched_ticks, batches, batched_frac },
//     "tick_bench_traced": { ..., events, dropped, overhead_pct },
//     "tick_bench_linux": { ..., batched_ticks, batches, batched_frac },
//     "tick_bench_managed": { ..., fault_overhead_pct },
//     "sweep":      { seeds, runs, serial_wall_s, parallel_wall_s, workers,
//                     speedup, results_identical },
//     "alloc_gate": { "<set>/<policy>": allocs, ... }
//   }
//
// * tick_bench drives a single engine for N ticks (barriered application +
//   two streaming microbenchmarks) and reports throughput plus heap
//   allocations per tick, counted by a global operator-new override. After
//   the workspace refactor the steady-state tick path performs no heap
//   allocation, and --smoke requires exactly 0 allocations in the measured
//   region of tick_bench, tick_bench_traced, tick_bench_linux and
//   tick_bench_managed (all after warm-up). The baseline run has
//   a *disabled* obs::Tracer attached, so the zero-alloc assertion also
//   covers the tracing-off hook; tick_bench_traced repeats the bench with
//   the tracer enabled (events land in the preallocated ring, so it must
//   stay allocation-free too) and reports the wall-clock overhead.
// * tick_bench_linux repeats the untraced bench under the Linux 2.4
//   baseline, whose batching rests on LinuxScheduler::quiescent_until and
//   its deferred timeslice charge. --smoke asserts it batches and stays
//   allocation-free, so a change that puts the paper's baseline arm back on
//   per-tick stepping fails CI instead of only slowing the sweeps.
// * sweep runs the same multi-seed improvement sweep twice — through the
//   serial reference path and through the ThreadPool-backed harness — and
//   reports both wall clocks. The two must produce bit-identical statistics
//   (also asserted under --smoke); the speedup tracks how well the harness
//   scales on the host. With >= 4 hardware threads expect >= 2x.
// * alloc_gate is the hot-path contract: the same tick bench for every
//   policy in docs/POLICIES.md on two workloads, each row's allocations
//   after warm-up. --smoke fails on any non-zero row, and on a
//   degraded-mode row whose manager never degraded.
//
// Usage: perf_ticks [--ticks=N] [--seeds=N] [--workers=N] [--scale=X]
//                   [--smoke]
//   --smoke  tiny iteration counts + hard assertions (ctest label
//            perf_smoke runs this so the bench stays green under tier-1)
//   --ticks, --seeds and --workers exit 2 on a malformed value or one below
//   1 (0 for --workers).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/managed_scheduler.h"
#include "experiments/cli.h"
#include "experiments/parallel.h"
#include "experiments/runner.h"
#include "experiments/sweep.h"
#include "obs/tracer.h"
#include "runtime/thread_pool.h"
#include "sim/engine.h"
#include "workload/workload.h"

// ---- global allocation counter -------------------------------------------
// Replaces the default (unaligned) global new/delete with malloc/free plus a
// relaxed atomic count. Only the *difference* around a measured region is
// reported, so unrelated startup allocations don't pollute the numbers.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace bbsched;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct TickBench {
  std::uint64_t ticks = 0;
  double wall_s = 0.0;
  double ticks_per_sec = 0.0;
  std::uint64_t allocs = 0;
  double allocs_per_tick = 0.0;
  std::uint64_t batched_ticks = 0;  ///< ticks replayed by quantum batching
  std::uint64_t batches = 0;        ///< event-free batches entered
  std::uint64_t events = 0;   ///< traced variant only
  std::uint64_t dropped = 0;  ///< traced variant only
  bool degraded = false;  ///< managed schedulers: ended in degraded mode
};

double batched_frac(const TickBench& b) {
  return b.ticks > 0 ? static_cast<double>(b.batched_ticks) /
                           static_cast<double>(b.ticks)
                     : 0.0;
}

/// The Fig.-1 contention set: one barriered application + two BBMA
/// streamers, so the barrier, saturation and noise paths all run.
workload::Workload fig1_set(const experiments::ExperimentConfig& cfg) {
  return workload::fig1_with_bbma(workload::paper_application("Raytrace"),
                                  cfg.machine.bus);
}

/// Single-engine microbench: workload `w` under scheduler `kind` (built from
/// `cfg`), stepped `ticks` times with OS noise active. The tracer (disabled
/// or enabled) is attached before the measured region; its ring is
/// preallocated, so neither mode may allocate per tick.
TickBench bench_ticks(std::uint64_t ticks, bool trace_enabled,
                      experiments::SchedulerKind kind,
                      const experiments::ExperimentConfig& cfg,
                      const workload::Workload& w) {
  sim::Engine engine(cfg.machine, cfg.engine,
                     experiments::make_scheduler(kind, cfg));
  obs::Tracer tracer({.enabled = trace_enabled});
  engine.set_tracer(&tracer);
  for (const auto& spec : w.jobs) engine.add_job(spec);

  // Warm up: scratch buffers reach steady-state capacity, placements settle.
  for (int i = 0; i < 512; ++i) engine.step();
  // Also warm the batch-replay scratch (step() never batches): one short
  // run_until lets those vectors reach steady capacity before measuring.
  engine.run_until(engine.now() + 2048 * engine.config().tick_us);

  // Measured region drives run_until so quantum batching (DESIGN.md §11)
  // engages exactly as in real experiments. run_until stops early once every
  // finite job completes, so throughput is computed over the ticks the
  // engine actually executed (EngineStats::total_ticks delta), not the
  // requested horizon.
  const sim::SimTime until =
      engine.now() + ticks * engine.config().tick_us;
  const std::uint64_t ticks_before = engine.stats().total_ticks;
  const std::uint64_t batched_before = engine.stats().batched_ticks;
  const std::uint64_t batches_before = engine.stats().batches;
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  engine.run_until(until);
  TickBench out;
  out.wall_s = seconds_since(start);
  out.ticks = engine.stats().total_ticks - ticks_before;
  out.allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  out.ticks_per_sec =
      out.wall_s > 0.0 ? static_cast<double>(out.ticks) / out.wall_s : 0.0;
  out.allocs_per_tick =
      out.ticks > 0
          ? static_cast<double>(out.allocs) / static_cast<double>(out.ticks)
          : 0.0;
  out.batched_ticks = engine.stats().batched_ticks - batched_before;
  out.batches = engine.stats().batches - batches_before;
  out.events = tracer.events().size();
  out.dropped = tracer.dropped();
  if (const auto* managed =
          dynamic_cast<const core::ManagedScheduler*>(&engine.scheduler())) {
    out.degraded = managed->manager().degraded();
  }
  return out;
}

/// Managed-scheduler variant of the tick bench: the full CPU-manager path
/// (sampling, elections, staleness bookkeeping) with the fault-injection
/// hook compiled in. `faults_enabled` toggles injection; with it off the
/// hook must be zero-cost — no draw, no allocation — which --smoke asserts.
TickBench bench_managed_ticks(std::uint64_t ticks, bool faults_enabled) {
  experiments::ExperimentConfig cfg;
  cfg.managed.counter_faults.enabled = faults_enabled;
  cfg.managed.counter_faults.drop_prob = faults_enabled ? 0.10 : 0.0;
  cfg.managed.counter_faults.noise_prob = faults_enabled ? 0.10 : 0.0;
  return bench_ticks(ticks, /*trace_enabled=*/false,
                     experiments::SchedulerKind::kManagedCustom, cfg,
                     fig1_set(cfg));
}

/// One row of the allocation gate: a policy of docs/POLICIES.md measured
/// by bench_ticks on one workload.
struct GateRow {
  std::string key;  ///< "<set>/<policy>"
  TickBench bench;
  bool want_degraded = false;  ///< the run must end in degraded mode
};

/// The hot-path contract (paper §4's bounded per-quantum overhead): after
/// warm-up, no policy's election and tick path touches the heap. Every
/// SchedulerKind runs on Fig. 1's Raytrace + 2 BBMA set and on Fig. 2's
/// saturated SP set, plus the EWMA estimator, the credit tier with two
/// reservations, and Latest with every counter sample dropped (the
/// degraded round-robin fallback).
std::vector<GateRow> bench_alloc_gate(std::uint64_t ticks) {
  using experiments::SchedulerKind;
  const experiments::ExperimentConfig cfg;
  experiments::ExperimentConfig ewma = cfg;
  ewma.managed.manager.policy = core::PolicyKind::kExponential;
  experiments::ExperimentConfig blind = cfg;
  blind.managed.counter_faults.enabled = true;
  blind.managed.counter_faults.drop_prob = 1.0;

  const std::pair<const char*, workload::Workload> sets[] = {
      {"fig1", fig1_set(cfg)},
      {"fig2", workload::fig2_saturated(workload::paper_application("SP"),
                                        cfg.machine.bus)},
  };
  std::vector<GateRow> rows;
  for (const auto& [set, w] : sets) {
    const std::string prefix = std::string(set) + "/";
    for (const SchedulerKind kind :
         {SchedulerKind::kPinned, SchedulerKind::kLinux,
          SchedulerKind::kLatestQuantum, SchedulerKind::kQuantaWindow,
          SchedulerKind::kPredictiveThroughput,
          SchedulerKind::kPredictiveFair, SchedulerKind::kEquipartition}) {
      rows.push_back({prefix + experiments::to_string(kind),
                      bench_ticks(ticks, false, kind, cfg, w)});
    }
    rows.push_back({prefix + "ewma",
                    bench_ticks(ticks, false, SchedulerKind::kManagedCustom,
                                ewma, w)});
    workload::Workload reserved = w;
    reserved.jobs[0].bw_reservation = 0.25;
    reserved.jobs[1].bw_reservation = 0.15;
    rows.push_back({prefix + "credit-reservation",
                    bench_ticks(ticks, false,
                                SchedulerKind::kCreditReservation, cfg,
                                reserved)});
    rows.push_back({prefix + "latest-degraded",
                    bench_ticks(ticks, false, SchedulerKind::kLatestQuantum,
                                blind, w),
                    true});
  }
  return rows;
}

struct SweepBench {
  int seeds = 0;
  int runs = 0;
  int workers = 0;
  double serial_wall_s = 0.0;
  double parallel_wall_s = 0.0;
  double speedup = 0.0;
  bool results_identical = false;
};

bool identical(const experiments::ImprovementStats& a,
               const experiments::ImprovementStats& b) {
  return a.n == b.n && a.mean_pct == b.mean_pct &&
         a.stddev_pct == b.stddev_pct && a.min_pct == b.min_pct &&
         a.max_pct == b.max_pct && a.ci95_pct == b.ci95_pct;
}

/// Multi-seed Fig.-2 improvement sweep, serial vs parallel wall clock.
SweepBench bench_sweep(int seeds, int workers, double time_scale) {
  experiments::ExperimentConfig cfg;
  cfg.time_scale = time_scale;
  const auto w = workload::fig2_mixed(
      workload::paper_application("Volrend"), cfg.machine.bus);

  SweepBench out;
  out.seeds = seeds;
  out.runs = 2 * seeds;

  const auto serial_start = Clock::now();
  const auto serial = experiments::sweep_improvement(
      w, experiments::SchedulerKind::kQuantaWindow,
      experiments::SchedulerKind::kLinux, cfg, seeds);
  out.serial_wall_s = seconds_since(serial_start);

  experiments::ParallelExecutor executor(workers);
  out.workers = executor.workers();
  const auto parallel_start = Clock::now();
  const auto parallel = experiments::parallel_sweep_improvement(
      w, experiments::SchedulerKind::kQuantaWindow,
      experiments::SchedulerKind::kLinux, cfg, seeds, executor);
  out.parallel_wall_s = seconds_since(parallel_start);

  out.speedup = out.parallel_wall_s > 0.0
                    ? out.serial_wall_s / out.parallel_wall_s
                    : 0.0;
  out.results_identical = identical(serial, parallel);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = experiments::parse_cli(argc, argv);
  std::uint64_t ticks = 200'000;
  int seeds = 6;
  bool smoke = false;
  double sweep_scale = opt.time_scale != 1.0 ? opt.time_scale : 0.1;
  int workers = opt.jobs;  // --workers=N is an alias for --jobs=N
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (experiments::cli_detail::int_flag(argv[0], arg, "--ticks",
                                          std::uint64_t{1}, ticks) ||
        experiments::cli_detail::int_flag(argv[0], arg, "--seeds", 1,
                                          seeds) ||
        experiments::cli_detail::int_flag(argv[0], arg, "--workers", 0,
                                          workers)) {
      continue;
    }
    if (arg == "--smoke") smoke = true;
  }
  if (smoke) {
    ticks = 5'000;
    seeds = 2;
    sweep_scale = 0.03;
  }

  using experiments::SchedulerKind;
  const experiments::ExperimentConfig cfg;
  const workload::Workload fig1 = fig1_set(cfg);
  const TickBench tb = bench_ticks(ticks, /*trace_enabled=*/false,
                                   SchedulerKind::kPinned, cfg, fig1);
  const TickBench tt = bench_ticks(ticks, /*trace_enabled=*/true,
                                   SchedulerKind::kPinned, cfg, fig1);
  const TickBench tl = bench_ticks(ticks, /*trace_enabled=*/false,
                                   SchedulerKind::kLinux, cfg, fig1);
  const TickBench tm = bench_managed_ticks(ticks, /*faults_enabled=*/false);
  const TickBench tf = bench_managed_ticks(ticks, /*faults_enabled=*/true);
  const SweepBench sb = bench_sweep(seeds, workers, sweep_scale);
  const std::vector<GateRow> gate = bench_alloc_gate(ticks);

  const double overhead_pct =
      tb.wall_s > 0.0 ? (tt.wall_s - tb.wall_s) / tb.wall_s * 100.0 : 0.0;
  const double fault_overhead_pct =
      tm.wall_s > 0.0 ? (tf.wall_s - tm.wall_s) / tm.wall_s * 100.0 : 0.0;

  std::printf(
      "{\n"
      "  \"hardware_threads\": %d,\n"
      "  \"tick_bench\": {\"ticks\": %llu, \"wall_s\": %.6f, "
      "\"ticks_per_sec\": %.1f, \"allocs\": %llu, "
      "\"allocs_per_tick\": %.6f, \"batched_ticks\": %llu, "
      "\"batches\": %llu, \"batched_frac\": %.4f},\n"
      "  \"tick_bench_traced\": {\"ticks\": %llu, \"wall_s\": %.6f, "
      "\"ticks_per_sec\": %.1f, \"allocs\": %llu, "
      "\"allocs_per_tick\": %.6f, \"events\": %llu, \"dropped\": %llu, "
      "\"overhead_pct\": %.2f},\n"
      "  \"tick_bench_linux\": {\"ticks\": %llu, \"wall_s\": %.6f, "
      "\"ticks_per_sec\": %.1f, \"allocs\": %llu, "
      "\"allocs_per_tick\": %.6f, \"batched_ticks\": %llu, "
      "\"batches\": %llu, \"batched_frac\": %.4f},\n"
      "  \"tick_bench_managed\": {\"ticks\": %llu, \"wall_s\": %.6f, "
      "\"ticks_per_sec\": %.1f, \"allocs\": %llu, "
      "\"allocs_per_tick\": %.6f, \"batched_ticks\": %llu, "
      "\"batches\": %llu, \"fault_overhead_pct\": %.2f},\n"
      "  \"sweep\": {\"seeds\": %d, \"runs\": %d, \"serial_wall_s\": %.6f, "
      "\"parallel_wall_s\": %.6f, \"workers\": %d, \"speedup\": %.3f, "
      "\"results_identical\": %s},\n"
      "  \"alloc_gate\": {",
      runtime::ThreadPool::hardware_workers(),
      static_cast<unsigned long long>(tb.ticks), tb.wall_s, tb.ticks_per_sec,
      static_cast<unsigned long long>(tb.allocs), tb.allocs_per_tick,
      static_cast<unsigned long long>(tb.batched_ticks),
      static_cast<unsigned long long>(tb.batches), batched_frac(tb),
      static_cast<unsigned long long>(tt.ticks), tt.wall_s, tt.ticks_per_sec,
      static_cast<unsigned long long>(tt.allocs), tt.allocs_per_tick,
      static_cast<unsigned long long>(tt.events),
      static_cast<unsigned long long>(tt.dropped), overhead_pct,
      static_cast<unsigned long long>(tl.ticks), tl.wall_s, tl.ticks_per_sec,
      static_cast<unsigned long long>(tl.allocs), tl.allocs_per_tick,
      static_cast<unsigned long long>(tl.batched_ticks),
      static_cast<unsigned long long>(tl.batches), batched_frac(tl),
      static_cast<unsigned long long>(tm.ticks), tm.wall_s, tm.ticks_per_sec,
      static_cast<unsigned long long>(tm.allocs), tm.allocs_per_tick,
      static_cast<unsigned long long>(tm.batched_ticks),
      static_cast<unsigned long long>(tm.batches),
      fault_overhead_pct,
      sb.seeds, sb.runs, sb.serial_wall_s, sb.parallel_wall_s, sb.workers,
      sb.speedup, sb.results_identical ? "true" : "false");
  for (std::size_t i = 0; i < gate.size(); ++i) {
    std::printf("%s\"%s\": %llu", i == 0 ? "" : ", ", gate[i].key.c_str(),
                static_cast<unsigned long long>(gate[i].bench.allocs));
  }
  std::printf("}\n}\n");

  if (smoke) {
    bool ok = true;
    if (tb.allocs != 0) {
      std::fprintf(stderr, "FAIL: tick path allocates (%llu allocs, want 0)\n",
                   static_cast<unsigned long long>(tb.allocs));
      ok = false;
    }
    if (tt.allocs != 0) {
      std::fprintf(stderr,
                   "FAIL: traced tick path allocates (%llu allocs; the ring "
                   "is preallocated, want 0)\n",
                   static_cast<unsigned long long>(tt.allocs));
      ok = false;
    }
    if (tt.events == 0) {
      std::fprintf(stderr, "FAIL: traced tick bench recorded no events\n");
      ok = false;
    }
    if (tb.batched_ticks == 0) {
      std::fprintf(stderr,
                   "FAIL: quantum batching inactive in tick bench (0 of "
                   "%llu ticks batched)\n",
                   static_cast<unsigned long long>(tb.ticks));
      ok = false;
    }
    if (tl.allocs != 0) {
      std::fprintf(stderr,
                   "FAIL: Linux-baseline tick path allocates (%llu allocs, "
                   "want 0)\n",
                   static_cast<unsigned long long>(tl.allocs));
      ok = false;
    }
    if (tl.batched_ticks == 0) {
      std::fprintf(stderr,
                   "FAIL: quantum batching inactive under the Linux baseline "
                   "(0 of %llu ticks batched)\n",
                   static_cast<unsigned long long>(tl.ticks));
      ok = false;
    }
    if (tm.allocs != 0) {
      std::fprintf(stderr,
                   "FAIL: managed tick path with disabled fault injection "
                   "allocates (%llu allocs, want 0)\n",
                   static_cast<unsigned long long>(tm.allocs));
      ok = false;
    }
    for (const GateRow& row : gate) {
      if (row.bench.allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: %s allocates after warm-up (%llu allocs in %llu "
                     "ticks, want 0)\n",
                     row.key.c_str(),
                     static_cast<unsigned long long>(row.bench.allocs),
                     static_cast<unsigned long long>(row.bench.ticks));
        ok = false;
      }
      if (row.want_degraded && !row.bench.degraded) {
        std::fprintf(stderr,
                     "FAIL: %s never entered degraded mode with every "
                     "counter sample dropped\n",
                     row.key.c_str());
        ok = false;
      }
    }
    if (!sb.results_identical) {
      std::fprintf(stderr,
                   "FAIL: parallel sweep differs from serial reference\n");
      ok = false;
    }
    return ok ? 0 : 1;
  }
  return 0;
}
