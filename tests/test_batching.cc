// Differential tests for quantum batching (DESIGN.md §11): a run with
// batching enabled must be bit-identical — thread accounting, engine stats,
// run intervals, and every event the managed scheduler records on its
// tracer — to the same run forced to step per tick (max_batch_ticks = 1).
// The workloads are chosen to cross every event class mid-run: open-system
// arrivals, spin-grace expiry, I/O issue/wake edges, barrier wake-ups and
// completions, which end a batch, and the demand-only events quiet ticks
// absorb: demand that drifts (cache warm-up, SMT sibling eviction,
// demand-model edges), OS-noise steals and releases, and
// spin-classification flips. Those are compared with the engine's events
// (per-tick bus resolutions, state changes) and the bus metrics too,
// including ticks on which every runner is stolen and the bus has no agent,
// and SMT siblings whose penalty must ignore a stolen context.
// Equipartition batches between its fold-slice advances. Under the Linux
// 2.4 baseline the scheduler's own state must match too: a batch defers its
// timeslice charge to the next tick(), so the counters and the epoch-refill
// count are compared as well.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "core/managed_scheduler.h"
#include "experiments/runner.h"
#include "linuxsched/linux_sched.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "spacesched/equipartition.h"
#include "workload/app_profile.h"
#include "workload/demand_models.h"
#include "workload/trace_demand.h"
#include "workload/workload.h"

namespace bbsched {
namespace {

using sim::Engine;
using sim::EngineConfig;
using sim::JobSpec;
using sim::MachineConfig;
using sim::SimTime;

/// Everything the engine computes that callers can observe.
struct RunSnapshot {
  SimTime end = 0;
  std::uint64_t total_ticks = 0;
  std::uint64_t saturated_ticks = 0;
  std::uint64_t batched_ticks = 0;
  double total_granted = 0.0;
  std::uint64_t util_n = 0;
  double util_mean = 0.0;
  double stretch_mean = 0.0;
  std::vector<double> thread_doubles;  ///< every double field, thread-major
  std::vector<int> thread_ints;
  std::vector<SimTime> completions;
  /// Every tracer event (see event_words): the managed scheduler's, plus
  /// the engine's under RunSpec::observe.
  std::vector<std::vector<std::uint64_t>> events;
  std::vector<trace::RunInterval> intervals;
  std::vector<double> counters;  ///< LinuxScheduler timeslice counters
  std::uint64_t epochs = 0;      ///< LinuxScheduler epoch refills
  /// RunSpec::observe only: the engine's kBusResolution events (also in
  /// `events`) and metrics (counters, then each bus histogram's sum and
  /// buckets).
  std::vector<std::pair<std::uint64_t, obs::BusResolutionPayload>> bus_events;
  std::vector<double> metrics;
};

struct RunSpec {
  MachineConfig machine{};
  EngineConfig engine{};
  std::vector<JobSpec> jobs;
  /// (when, spec) open-system arrivals.
  std::vector<std::pair<SimTime, JobSpec>> arrivals;
  SimTime until = 0;
  bool observe = false;  ///< also trace the engine; attach a metrics registry
};

/// One recorded event as words: time, type and every payload field (doubles
/// by bit pattern), so two event streams compare exactly.
std::vector<std::uint64_t> event_words(const obs::TraceEvent& e) {
  const auto d = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto i = [](auto x) { return static_cast<std::uint64_t>(x); };
  std::vector<std::uint64_t> w{e.time_us, i(e.type)};
  switch (e.type) {
    case obs::EventType::kQuantumStart: {
      const auto& p = e.quantum_start;
      w.insert(w.end(), {p.index, i(p.nprocs), i(p.candidates)});
      break;
    }
    case obs::EventType::kElectionDecision: {
      const auto& p = e.election;
      w.insert(w.end(), {p.quantum, i(p.app_id), i(p.nthreads),
                         d(p.bbw_per_thread), d(p.abbw_per_proc), d(p.score),
                         i(p.alloc_order), i(p.elected), i(p.head_default)});
      break;
    }
    case obs::EventType::kBusResolution: {
      const auto& p = e.bus;
      w.insert(w.end(), {d(p.demand_tps), d(p.granted_tps), d(p.capacity_tps),
                         d(p.utilization), d(p.stretch), i(p.agents),
                         i(p.saturated)});
      break;
    }
    case obs::EventType::kJobStateChange: {
      const auto& p = e.job;
      w.insert(w.end(), {i(p.app_id), i(p.thread_id), i(p.from), i(p.to)});
      break;
    }
    case obs::EventType::kCounterSample: {
      const auto& p = e.sample;
      w.insert(w.end(), {i(p.app_id), d(p.delta_transactions),
                         d(p.estimate_tps)});
      break;
    }
    case obs::EventType::kFault: {
      const auto& p = e.fault;
      w.insert(w.end(), {i(p.app_id), i(p.kind), d(p.value)});
      break;
    }
    case obs::EventType::kDegradationChange: {
      const auto& p = e.degradation;
      w.insert(w.end(), {i(p.app_id), i(p.from), i(p.to)});
      break;
    }
    case obs::EventType::kRecovery: {
      const auto& p = e.recovery;
      w.insert(w.end(), {i(p.generation), p.quantum_index,
                         i(p.restored_feeds), i(p.degraded)});
      break;
    }
    case obs::EventType::kReattach: {
      const auto& p = e.reattach;
      w.insert(w.end(), {i(p.app_id), i(p.generation), i(p.adopted_state)});
      break;
    }
    case obs::EventType::kSupervisorRestart: {
      const auto& p = e.supervisor;
      w.insert(w.end(), {i(p.generation), i(p.restarts), p.backoff_us,
                         i(p.gave_up)});
      break;
    }
    case obs::EventType::kCreditReplenish: {
      const auto& p = e.credit;
      w.insert(w.end(), {i(p.app_id), p.period, d(p.granted_tx),
                         d(p.spent_tx), d(p.leftover_tx)});
      break;
    }
    case obs::EventType::kReservationViolation: {
      const auto& p = e.violation;
      w.insert(w.end(), {i(p.app_id), p.period, d(p.reserved_tps),
                         d(p.delivered_tps), i(p.quanta_elected),
                         i(p.quanta_in_period)});
      break;
    }
  }
  return w;
}

RunSnapshot run(const RunSpec& s, std::unique_ptr<sim::Scheduler> sched,
                std::uint32_t max_batch_ticks) {
  EngineConfig ecfg = s.engine;
  ecfg.trace = true;
  ecfg.max_batch_ticks = max_batch_ticks;
  Engine eng(s.machine, ecfg, std::move(sched));
  obs::Tracer tracer({.enabled = true});
  obs::MetricsRegistry metrics;
  if (auto* managed =
          dynamic_cast<core::ManagedScheduler*>(&eng.scheduler())) {
    managed->set_tracer(&tracer);
  }
  if (s.observe) {
    eng.set_tracer(&tracer);
    eng.set_metrics(&metrics);
  }
  for (const auto& spec : s.jobs) eng.add_job(spec);
  for (const auto& [when, spec] : s.arrivals) eng.submit_job(spec, when);
  eng.run_until(s.until);

  RunSnapshot out;
  if (s.observe) {
    for (const char* name : {"sim.ticks", "sim.bus.saturated_ticks",
                             "sim.bus.granted_transactions"}) {
      out.metrics.push_back(metrics.find_counter(name)->value());
    }
    for (const char* name : {"sim.bus.utilization", "sim.bus.stretch"}) {
      const obs::Histogram* h = metrics.find_histogram(name);
      out.metrics.push_back(h->sum());
      for (const std::uint64_t c : h->counts()) {
        out.metrics.push_back(static_cast<double>(c));
      }
    }
  }
  if (const auto* lx =
          dynamic_cast<const linuxsched::LinuxScheduler*>(&eng.scheduler())) {
    // A batched run charges the timeslices of the ticks it skipped at the
    // scheduler's next tick(); one more full step settles both runs.
    eng.step();
    for (const auto& t : eng.machine().threads()) {
      out.counters.push_back(lx->counter(t.id));
    }
    out.epochs = lx->epochs();
  }
  out.end = eng.now();
  const auto& st = eng.stats();
  out.total_ticks = st.total_ticks;
  out.saturated_ticks = st.saturated_ticks;
  out.batched_ticks = st.batched_ticks;
  out.total_granted = st.total_granted_transactions;
  out.util_n = st.bus_utilization.count();
  out.util_mean = st.bus_utilization.mean();
  out.stretch_mean = st.stretch.mean();
  for (const auto& t : eng.machine().threads()) {
    out.thread_doubles.insert(
        out.thread_doubles.end(),
        {t.progress_us, t.warmth, t.consecutive_spin_us,
         t.next_io_at_progress, t.bus_transactions, t.bus_attempts, t.run_us,
         t.spin_us, t.stolen_us, t.ready_wait_us, t.barrier_wait_us,
         t.io_wait_us, t.mgr_blocked_us});
    out.thread_ints.insert(out.thread_ints.end(),
                           {static_cast<int>(t.state), t.last_cpu,
                            static_cast<int>(t.migrations),
                            static_cast<int>(t.io_wake_us & 0x7fffffff)});
  }
  for (const auto& j : eng.machine().jobs()) {
    out.completions.push_back(j.completed ? j.completion_us : 0);
  }
  EXPECT_EQ(tracer.dropped(), 0u) << "trace ring too small for the run";
  tracer.events().for_each([&](const obs::TraceEvent& e) {
    out.events.push_back(event_words(e));
    if (e.type == obs::EventType::kBusResolution) {
      out.bus_events.emplace_back(e.time_us, e.bus);
    }
  });
  out.intervals = eng.trace().intervals();
  return out;
}

void expect_identical(const RunSnapshot& a, const RunSnapshot& b) {
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.total_ticks, b.total_ticks);
  EXPECT_EQ(a.saturated_ticks, b.saturated_ticks);
  EXPECT_EQ(a.total_granted, b.total_granted);  // bitwise
  EXPECT_EQ(a.util_n, b.util_n);
  EXPECT_EQ(a.util_mean, b.util_mean);
  EXPECT_EQ(a.stretch_mean, b.stretch_mean);
  ASSERT_EQ(a.thread_doubles.size(), b.thread_doubles.size());
  for (std::size_t i = 0; i < a.thread_doubles.size(); ++i) {
    EXPECT_EQ(a.thread_doubles[i], b.thread_doubles[i]) << "double #" << i;
  }
  EXPECT_EQ(a.thread_ints, b.thread_ints);
  EXPECT_EQ(a.completions, b.completions);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i], b.events[i]) << "event #" << i;
  }
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(a.intervals[i].start_us, b.intervals[i].start_us);
    EXPECT_EQ(a.intervals[i].end_us, b.intervals[i].end_us);
    EXPECT_EQ(a.intervals[i].thread_id, b.intervals[i].thread_id);
    EXPECT_EQ(a.intervals[i].cpu, b.intervals[i].cpu);
  }
  EXPECT_EQ(a.counters, b.counters);  // bitwise
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.metrics, b.metrics);  // bitwise
}

std::unique_ptr<sim::Scheduler> pinned() {
  return std::make_unique<sim::PinnedScheduler>();
}

std::unique_ptr<sim::Scheduler> managed() {
  core::ManagedSchedulerConfig mcfg;
  mcfg.overhead_base_us = 300;
  mcfg.overhead_per_app_us = 50;
  return std::make_unique<core::ManagedScheduler>(mcfg);
}

std::unique_ptr<sim::Scheduler> linux_baseline() {
  return std::make_unique<linuxsched::LinuxScheduler>();
}

std::unique_ptr<sim::Scheduler> equipartition() {
  return std::make_unique<spacesched::EquipartitionScheduler>();
}

// The Fig.-1 contention set under a pinned scheduler with OS noise: the
// fast barrier sibling rides the barrier limit (frac < 1 inside batches),
// spinners expire their grace, noise windows open on every CPU.
TEST(Batching, PinnedNoiseContentionSetIsBitIdentical) {
  RunSpec s;
  const auto w = workload::fig1_with_bbma(
      workload::paper_application("Raytrace"), s.machine.bus);
  s.jobs = w.jobs;
  s.until = 2'000'000;  // 2 s simulated
  const RunSnapshot batched = run(s, pinned(), 4096);
  const RunSnapshot stepped = run(s, pinned(), 1);
  EXPECT_GT(batched.batched_ticks, 0u) << "batching never engaged";
  EXPECT_EQ(stepped.batched_ticks, 0u);
  // Noise edges and spin flips are replayed, not stepped: what is left are
  // the spin-then-block and wake-up edges.
  EXPECT_LE(batched.total_ticks - batched.batched_ticks, 20u);
  expect_identical(batched, stepped);
}

// One CPU under dense noise: whenever its only resident is stolen the bus
// has no agent, so those ticks add no bus stats or metrics and their
// kBusResolution events carry zero agents, replayed or stepped.
TEST(Batching, FullyStolenMachineIsBitIdentical) {
  RunSpec s;
  s.machine.num_cpus = 1;
  s.engine.os_noise_interval_us = 30'000;
  s.engine.os_noise_min_us = 5'000;
  s.engine.os_noise_max_us = 20'000;
  s.jobs = {workload::make_bbma_job(s.machine.bus)};
  s.until = 1'000'000;
  s.observe = true;
  const RunSnapshot batched = run(s, pinned(), 4096);
  const RunSnapshot stepped = run(s, pinned(), 1);
  EXPECT_GT(batched.batched_ticks, batched.total_ticks / 2);
  std::uint64_t empty = 0;
  for (const auto& [when, payload] : batched.bus_events) {
    if (payload.agents == 0) ++empty;
  }
  EXPECT_GT(empty, 0u) << "no tick had every resident stolen";
  EXPECT_EQ(batched.util_n + empty, batched.total_ticks);
  expect_identical(batched, stepped);
}

// Two-way SMT under noise: two memory-bound threads share each core, so a
// running context's SMT penalty depends on whether its sibling is stolen
// this tick (a stolen sibling must not raise it), and the replay has to
// follow every steal and release.
TEST(Batching, SmtSiblingStealsAreBitIdentical) {
  RunSpec s;
  s.machine.num_cpus = 4;
  s.machine.threads_per_core = 2;
  s.engine.os_noise_interval_us = 40'000;
  const JobSpec app = workload::make_app_job(
      workload::paper_application("SP"), s.machine.bus, 2);
  s.jobs = {app, workload::make_bbma_job(s.machine.bus),
            workload::make_bbma_job(s.machine.bus)};
  s.until = 1'500'000;
  s.observe = true;
  for (auto make : {pinned, managed}) {
    const RunSnapshot batched = run(s, make(), 4096);
    const RunSnapshot stepped = run(s, make(), 1);
    EXPECT_GT(batched.batched_ticks, batched.total_ticks / 2);
    expect_identical(batched, stepped);
  }
}

// Equipartition folds a job with more threads than its partition: the
// wanted thread changes every fold slice, each slice's first tick re-warms
// a cold thread, and noise steals partition CPUs mid-slice.
TEST(Batching, EquipartitionFoldedJobUnderNoiseIsBitIdentical) {
  RunSpec s;
  s.engine.os_noise_interval_us = 60'000;
  JobSpec folded = workload::make_app_job(
      workload::paper_application("LU-CB"), s.machine.bus, 4);
  folded.work_us = 400'000.0;
  s.jobs = {folded, workload::make_bbma_job(s.machine.bus),
            workload::make_bbma_job(s.machine.bus)};
  s.until = 2'000'000;
  const RunSnapshot batched = run(s, equipartition(), 4096);
  const RunSnapshot stepped = run(s, equipartition(), 1);
  EXPECT_GT(batched.batched_ticks, batched.total_ticks / 2)
      << "equipartition must batch";
  expect_identical(batched, stepped);
}

// The CPU-manager path: sampling points, election boundaries and the
// overhead window all bound batches; manager-blocked threads accrue wait.
TEST(Batching, ManagedSchedulerIsBitIdentical) {
  RunSpec s;
  const auto w = workload::fig2_mixed(
      workload::paper_application("Volrend"), s.machine.bus);
  s.jobs = w.jobs;
  s.until = 3'000'000;
  const RunSnapshot batched = run(s, managed(), 4096);
  const RunSnapshot stepped = run(s, managed(), 1);
  EXPECT_GT(batched.batched_ticks, 0u) << "batching never engaged";
  expect_identical(batched, stepped);
}

// The Linux 2.4 baseline on the Fig. 2 sets, run to completion: slice
// expiries, epoch refills, barrier wake-ups and wake-time migrations all
// bound its batches, and every skipped tick's charge is replayed later.
TEST(Batching, LinuxSchedulerFig2SetsAreBitIdentical) {
  for (const char* app : {"SP", "LU-CB"}) {
    for (auto make : {workload::fig2_saturated, workload::fig2_idle_bus,
                      workload::fig2_mixed}) {
      RunSpec s;
      const auto w = make(workload::paper_application(app), s.machine.bus);
      s.jobs = w.jobs;
      s.until = 600'000'000;  // ends when the finite jobs complete
      const RunSnapshot batched = run(s, linux_baseline(), 4096);
      const RunSnapshot stepped = run(s, linux_baseline(), 1);
      SCOPED_TRACE(w.name);
      EXPECT_GT(batched.batched_ticks, 0u) << "batching never engaged";
      expect_identical(batched, stepped);
    }
  }
}

// I/O jobs: issue points interrupt batches mid-tick, wake edges bound the
// horizon, DMA agents keep demanding while their threads block.
TEST(Batching, IoIssueAndWakeEdgesAreBitIdentical) {
  RunSpec s;
  JobSpec io_job;
  io_job.name = "io";
  io_job.nthreads = 2;
  io_job.work_us = 400'000.0;
  io_job.demand = std::make_shared<sim::SteadyDemand>(6.0);
  io_job.cache.cold_demand_boost = 0.0;
  io_job.cache.migration_sensitivity = 0.0;
  io_job.io.period_progress_us = 23'000.0;
  io_job.io.burst_us = 7'500.0;
  io_job.io.dma_tps = 9.0;
  JobSpec steady;
  steady.name = "bg";
  steady.nthreads = 1;
  steady.work_us = 500'000.0;
  steady.demand = std::make_shared<sim::SteadyDemand>(12.0);
  steady.cache.cold_demand_boost = 0.0;
  steady.cache.migration_sensitivity = 0.0;
  s.jobs = {io_job, steady};
  s.until = 1'500'000;
  const RunSnapshot batched = run(s, pinned(), 4096);
  const RunSnapshot stepped = run(s, pinned(), 1);
  EXPECT_GT(batched.batched_ticks, 0u);
  expect_identical(batched, stepped);
}

// Open-system arrivals land mid-run at times that would fall inside a batch
// if the horizon ignored them; completions of the finite jobs end batches.
// Under Linux each arrival also grows the scheduler's counter table.
TEST(Batching, ArrivalsMidBatchAreBitIdentical) {
  RunSpec s;
  s.engine.os_noise_interval_us = 0;  // long batches => arrivals must bound
  JobSpec base;
  base.name = "base";
  base.nthreads = 2;
  base.work_us = 900'000.0;
  base.barrier_interval_us = 3'000.0;
  base.demand = std::make_shared<workload::BurstyDemand>(8.0, 0.4, 90'000.0,
                                                         0x5eedULL);
  base.cache.cold_demand_boost = 0.0;
  base.cache.migration_sensitivity = 0.0;
  s.jobs = {base};
  JobSpec late = base;
  late.name = "late";
  late.nthreads = 1;
  late.work_us = 200'000.0;
  s.arrivals = {{137'000, late}, {512'000, late}};
  s.until = 2'000'000;
  for (auto make : {pinned, linux_baseline}) {
    const RunSnapshot batched = run(s, make(), 4096);
    const RunSnapshot stepped = run(s, make(), 1);
    EXPECT_GT(batched.batched_ticks, 0u);
    expect_identical(batched, stepped);
  }
}

// Randomized sweep: heterogeneous mixes (bursty/phased demand, barriers,
// warmth-sensitive apps) across seeds, under every scheduler. Any divergence
// between quiet and gathered ticks shows up as a bitwise mismatch in some
// seed.
TEST(Batching, RandomizedMixesAreBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunSpec s;
    s.engine.seed = seed;
    const auto w =
        workload::random_mix(2, seed % 3, (seed + 1) % 2, s.machine.bus, seed);
    s.jobs = w.jobs;
    s.until = 1'200'000;
    {
      const RunSnapshot batched = run(s, pinned(), 4096);
      const RunSnapshot stepped = run(s, pinned(), 1);
      SCOPED_TRACE("pinned seed " + std::to_string(seed));
      expect_identical(batched, stepped);
    }
    {
      const RunSnapshot batched = run(s, managed(), 4096);
      const RunSnapshot stepped = run(s, managed(), 1);
      SCOPED_TRACE("managed seed " + std::to_string(seed));
      expect_identical(batched, stepped);
    }
    {
      const RunSnapshot batched = run(s, linux_baseline(), 4096);
      const RunSnapshot stepped = run(s, linux_baseline(), 1);
      SCOPED_TRACE("linux seed " + std::to_string(seed));
      EXPECT_GT(batched.batched_ticks, 0u);
      expect_identical(batched, stepped);
    }
  }
}

// A warmth-sensitive job starting cold: over its 40 ms warm-up every tick
// raises warmth, which moves the job's demand (cold-cache boost) and its
// progress rate (migration penalty), so every replayed tick re-derives the
// demand and re-resolves the bus against two streamers.
RunSpec cold_start_spec() {
  RunSpec s;
  s.engine.os_noise_interval_us = 0;
  JobSpec cold;
  cold.name = "cold";
  cold.nthreads = 2;
  cold.work_us = 1'000'000.0;
  cold.demand = std::make_shared<sim::SteadyDemand>(9.0);
  cold.cache.cold_demand_boost = 0.5;
  cold.cache.migration_sensitivity = 0.08;
  const JobSpec bbma = workload::make_bbma_job(s.machine.bus);
  s.jobs = {cold, bbma, bbma};
  s.until = s.machine.cache.warmup_us;
  return s;
}

TEST(Batching, ColdStartWarmUpIsBitIdentical) {
  const RunSpec s = cold_start_spec();
  const RunSnapshot batched = run(s, pinned(), 4096);
  const RunSnapshot stepped = run(s, pinned(), 1);
  ASSERT_EQ(batched.total_ticks, 40u);
  EXPECT_EQ(batched.batched_ticks, 39u) << "the warm-up must replay";
  expect_identical(batched, stepped);
}

// Two-way SMT: each runner's footprint cools its sibling context's cache
// every tick, and the SMT penalty depends on the resolution's alphas, so it
// must follow every in-replay resolve.
RunSpec smt_mix_spec(std::uint64_t seed) {
  RunSpec s;
  s.machine.threads_per_core = 2;
  s.engine.seed = seed;
  const auto w =
      workload::random_mix(2, seed % 3, (seed + 1) % 2, s.machine.bus, seed);
  s.jobs = w.jobs;
  s.until = 1'200'000;
  return s;
}

TEST(Batching, SmtMixesAreBitIdentical) {
  std::uint64_t ticks = 0;
  std::uint64_t batched_ticks = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const RunSpec s = smt_mix_spec(seed);
    for (auto make : {pinned, managed, linux_baseline}) {
      const RunSnapshot batched = run(s, make(), 4096);
      const RunSnapshot stepped = run(s, make(), 1);
      SCOPED_TRACE("seed " + std::to_string(seed));
      expect_identical(batched, stepped);
      ticks += batched.total_ticks;
      batched_ticks += batched.batched_ticks;
    }
  }
  EXPECT_GT(batched_ticks, ticks / 2) << "SMT runs must batch";
}

// Trace-driven demand keeps DemandModel's default steady bound (none), so
// every replayed tick re-derives each thread's demand; segment edges and
// warm-up re-resolve the bus, OS noise and the Linux baseline end batches.
RunSpec trace_spec() {
  RunSpec s;
  JobSpec traced = workload::make_trace_job(
      "traced", {{3'000.0, 2.0}, {5'000.0, 11.0}, {2'000.0, 6.5}}, 2,
      700'000.0);
  s.jobs = {traced, workload::make_bbma_job(s.machine.bus)};
  s.until = 1'000'000;
  return s;
}

TEST(Batching, TraceDrivenDemandIsBitIdentical) {
  const RunSpec s = trace_spec();
  for (auto make : {pinned, managed, linux_baseline}) {
    const RunSnapshot batched = run(s, make(), 4096);
    const RunSnapshot stepped = run(s, make(), 1);
    expect_identical(batched, stepped);
    EXPECT_GT(batched.batched_ticks, batched.total_ticks / 2)
        << "trace-driven demand must batch";
  }
}

// The observability streams of drifting-demand replays: every tick's
// kBusResolution payload must carry that tick's own resolution, and the bus
// metrics must match per-tick stepping.
TEST(Batching, ObservabilityStreamsAreBitIdentical) {
  std::vector<RunSpec> specs = {cold_start_spec(), smt_mix_spec(2),
                                trace_spec()};
  for (RunSpec& s : specs) {
    s.observe = true;
    for (auto make : {pinned, managed}) {
      const RunSnapshot batched = run(s, make(), 4096);
      const RunSnapshot stepped = run(s, make(), 1);
      EXPECT_GT(batched.batched_ticks, 0u) << "batching never engaged";
      ASSERT_EQ(batched.bus_events.size(), batched.total_ticks);
      expect_identical(batched, stepped);
    }
  }
}

// A small max_batch_ticks still matches: batches are just shorter.
TEST(Batching, ShortBatchesAreBitIdentical) {
  RunSpec s;
  const auto w = workload::fig1_with_bbma(
      workload::paper_application("Raytrace"), s.machine.bus);
  s.jobs = w.jobs;
  s.until = 500'000;
  const RunSnapshot b4096 = run(s, pinned(), 4096);
  const RunSnapshot b7 = run(s, pinned(), 7);
  expect_identical(b4096, b7);
}

}  // namespace
}  // namespace bbsched
