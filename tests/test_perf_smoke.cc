// Allocation gates for paper §4's bounded per-quantum overhead: after
// warm-up, neither the simulator's tick path nor the native manager's
// quantum loop touches the heap. One counting global operator new serves
// both; each case reads only its difference around a measured region, so
// start-up and gtest's own allocations don't count. Every thread of the
// process is counted.
//
// * SimulatorAllocGate: every policy of docs/POLICIES.md on Fig. 1's and
//   Fig. 2's sets, the Fig. 1 pinned bench with an enabled tracer (events
//   land in the preallocated ring), and the managed bench with the counter
//   fault hook off and on. Each row steps 512 ticks, runs 2,048 more
//   through run_until so the quiet ticks' scratch reaches capacity too, and
//   then measures 5,000 ticks of run_until, which batches quiet ticks
//   (DESIGN.md §11) exactly as the experiments do.
// * ManagerAllocGate: a live in-process ManagerServer runs steady quanta
//   with everything on: four in-process clients on two processors (so every
//   quantum blocks and unblocks someone), an enabled tracer, a metrics
//   registry, and a journal small enough to compact inside the window.
//
// ctest -L perf_smoke runs this file. micro_benchmarks times the Fig. 1
// pinned bench untraced and traced (BM_EngineRunUntil).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/managed_scheduler.h"
#include "experiments/runner.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "runtime/client.h"
#include "runtime/manager_server.h"
#include "runtime/signal_gate.h"
#include "sim/engine.h"
#include "workload/workload.h"

// ---- global allocation counter --------------------------------------------
// The deletes stay out of line: inlined into gtest's `new Test` / `delete`
// pairs, their free() trips GCC's -Wmismatched-new-delete in the TSan and
// UBSan builds, although every operator new here returns malloc memory.

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
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bbsched {
namespace {

using experiments::SchedulerKind;

constexpr std::uint64_t kMeasuredTicks = 5'000;

/// One simulator bench: what its measured window did.
struct TickRun {
  std::uint64_t ticks = 0;
  std::uint64_t allocs = 0;
  std::uint64_t batched_ticks = 0;
  std::size_t events = 0;
  bool degraded = false;  ///< managed schedulers: ended in degraded mode
};

/// The Fig. 1 contention set: one barriered application + two BBMA
/// streamers, so the barrier, saturation and noise paths all run.
workload::Workload fig1_set(const experiments::ExperimentConfig& cfg) {
  return workload::fig1_with_bbma(workload::paper_application("Raytrace"),
                                  cfg.machine.bus);
}

/// Workload `w` under scheduler `kind` (built from `cfg`) with OS noise on
/// and a tracer attached, disabled unless `traced`.
TickRun measure_ticks(SchedulerKind kind,
                      const experiments::ExperimentConfig& cfg,
                      const workload::Workload& w, bool traced = false) {
  sim::Engine engine(cfg.machine, cfg.engine,
                     experiments::make_scheduler(kind, cfg));
  obs::Tracer tracer({.enabled = traced});
  engine.set_tracer(&tracer);
  for (const auto& spec : w.jobs) engine.add_job(spec);
  for (int i = 0; i < 512; ++i) engine.step();
  engine.run_until(engine.now() + 2048 * engine.config().tick_us);

  const std::uint64_t ticks0 = engine.stats().total_ticks;
  const std::uint64_t batched0 = engine.stats().batched_ticks;
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  engine.run_until(engine.now() + kMeasuredTicks * engine.config().tick_us);
  TickRun out;
  out.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  out.ticks = engine.stats().total_ticks - ticks0;
  out.batched_ticks = engine.stats().batched_ticks - batched0;
  out.events = tracer.events().size();
  if (const auto* managed =
          dynamic_cast<const core::ManagedScheduler*>(&engine.scheduler())) {
    out.degraded = managed->manager().degraded();
  }
  return out;
}

struct GateRow {
  std::string name;  ///< "<set>/<policy>"
  TickRun run;
  bool want_batched = false;   ///< quiet ticks must batch
  bool want_degraded = false;  ///< the run must end in degraded mode
};

/// Every SchedulerKind on Fig. 1's Raytrace + 2 BBMA set and on Fig. 2's
/// saturated SP set, plus the EWMA estimator, the credit tier with two
/// reservations, and Latest with every counter sample dropped (the degraded
/// round-robin fallback). The Fig. 1 pinned and Linux rows must batch: a
/// change that puts the paper's baseline arm back on per-tick stepping
/// fails here instead of only slowing the sweeps.
TEST(SimulatorAllocGate, EveryPolicyAllocatesNothingAfterWarmUp) {
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
    const bool fig1 = std::string_view(set) == "fig1";
    for (const SchedulerKind kind :
         {SchedulerKind::kPinned, SchedulerKind::kLinux,
          SchedulerKind::kLatestQuantum, SchedulerKind::kQuantaWindow,
          SchedulerKind::kPredictiveThroughput,
          SchedulerKind::kPredictiveFair, SchedulerKind::kEquipartition}) {
      const bool baseline =
          kind == SchedulerKind::kPinned || kind == SchedulerKind::kLinux;
      rows.push_back({prefix + experiments::to_string(kind),
                      measure_ticks(kind, cfg, w), fig1 && baseline});
    }
    rows.push_back({prefix + "ewma",
                    measure_ticks(SchedulerKind::kManagedCustom, ewma, w)});
    workload::Workload reserved = w;
    reserved.jobs[0].bw_reservation = 0.25;
    reserved.jobs[1].bw_reservation = 0.15;
    rows.push_back(
        {prefix + "credit-reservation",
         measure_ticks(SchedulerKind::kCreditReservation, cfg, reserved)});
    rows.push_back({prefix + "latest-degraded",
                    measure_ticks(SchedulerKind::kLatestQuantum, blind, w),
                    false, true});
  }

  ASSERT_EQ(rows.size(), 20u);
  for (const GateRow& row : rows) {
    EXPECT_EQ(row.run.ticks, kMeasuredTicks) << row.name;
    EXPECT_EQ(row.run.allocs, 0u) << row.name << " allocates after warm-up";
    if (row.want_batched) {
      EXPECT_GT(row.run.batched_ticks, 0u) << row.name << " never batched";
    }
    if (row.want_degraded) {
      EXPECT_TRUE(row.run.degraded)
          << row.name << " never degraded with every counter sample dropped";
    }
  }
}

/// The tracer's enabled hook and the fault injector's hook, on or off, stay
/// off the heap: the ring is preallocated, and the injector only draws.
TEST(SimulatorAllocGate, TracerAndCounterFaultHooksAllocateNothing) {
  const experiments::ExperimentConfig cfg;
  const workload::Workload fig1 = fig1_set(cfg);
  const TickRun traced =
      measure_ticks(SchedulerKind::kPinned, cfg, fig1, /*traced=*/true);
  EXPECT_EQ(traced.ticks, kMeasuredTicks);
  EXPECT_EQ(traced.allocs, 0u) << "the traced tick path allocates";
  EXPECT_GT(traced.events, 0u) << "the enabled tracer recorded nothing";

  experiments::ExperimentConfig faults = cfg;
  faults.managed.counter_faults.drop_prob = 0.10;
  faults.managed.counter_faults.noise_prob = 0.10;
  for (const bool enabled : {false, true}) {
    faults.managed.counter_faults.enabled = enabled;
    const TickRun managed =
        measure_ticks(SchedulerKind::kManagedCustom, faults, fig1);
    EXPECT_EQ(managed.ticks, kMeasuredTicks) << "faults " << enabled;
    EXPECT_EQ(managed.allocs, 0u)
        << "the managed tick path allocates with counter faults "
        << (enabled ? "on" : "off");
  }
}

}  // namespace

namespace runtime {
namespace {

using namespace std::chrono_literals;

constexpr int kClients = 4;
constexpr std::uint64_t kWarmupQuanta = 100;
constexpr std::uint64_t kMeasuredQuanta = 250;

/// Sleeps until the manager has run `target` elections or ~10 s passed.
/// Allocation-free, so it can wait inside the measured window.
bool wait_for_elections(const ManagerServer& server, std::uint64_t target) {
  for (int i = 0; i < 2000 && server.elections() < target; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  return server.elections() >= target;
}

TEST(ManagerAllocGate, SteadyQuantaAllocateNothing) {
  const std::string base = "/tmp/bbsched-alloc-" + std::to_string(::getpid());
  obs::Tracer tracer(
      obs::TracerConfig{.enabled = true, .capacity = std::size_t{1} << 16});
  obs::MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.socket_path = base + ".sock";
  cfg.journal_path = base + ".journal";
  cfg.nprocs = 2;
  cfg.manager.quantum_us = 5'000;
  cfg.journal_period_quanta = 2;
  cfg.journal_max_records = 8;  // a compaction every 16 quanta
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;
  ::unlink(cfg.journal_path.c_str());
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> apps;
  for (int i = 0; i < kClients; ++i) {
    apps.emplace_back([&, i] {
      Client client;
      if (!client.connect(cfg.socket_path, "app" + std::to_string(i), 1) ||
          !client.ready()) {
        return;
      }
      ready.fetch_add(1);
      const int slot = client.leader_counter_slot();
      const auto rate = static_cast<std::uint64_t>(2'000 + 7'000 * i);
      while (!stop.load(std::memory_order_relaxed)) {
        client.credit(slot, rate);
        std::this_thread::sleep_for(1ms);
      }
      client.unregister_worker();
      client.disconnect();
    });
  }
  for (int i = 0; i < 2000 && ready.load() < kClients; ++i) {
    std::this_thread::sleep_for(5ms);
  }
  const bool all_ready = ready.load() == kClients;

  bool warmed = false;
  std::uint64_t e0 = 0, e1 = 0, allocs = 0;
  double appends0 = 0.0, appends1 = 0.0;
  const obs::Counter& appends =
      metrics.counter("server.recovery.journal_appends");
  if (all_ready) {
    warmed = wait_for_elections(server, server.elections() + kWarmupQuanta);
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    e0 = server.elections();
    appends0 = appends.value();
    wait_for_elections(server, e0 + kMeasuredQuanta);
    e1 = server.elections();
    appends1 = appends.value();
    allocs = g_allocs.load(std::memory_order_relaxed) - a0;
  }

  stop.store(true);
  server.stop();  // unblocks every client so the workers can exit
  for (auto& t : apps) t.join();
  ::unlink(cfg.journal_path.c_str());
  SignalGate::instance().reset_for_tests();

  ASSERT_TRUE(all_ready) << ready.load() << " of " << kClients
                         << " clients attached";
  ASSERT_TRUE(warmed) << "the manager stopped electing during warm-up";
  ASSERT_GE(e1 - e0, 200u) << "too few quanta measured";
  // journal_max_records appends end in a compaction, so more appends than
  // that put at least one rewrite inside the window.
  EXPECT_GT(appends1 - appends0, static_cast<double>(cfg.journal_max_records));
  EXPECT_GT(tracer.events().size(), 0u);
  EXPECT_EQ(allocs, 0u) << static_cast<double>(allocs) /
                               static_cast<double>(e1 - e0)
                        << " operator new calls per quantum over " << e1 - e0
                        << " quanta";
}

}  // namespace
}  // namespace runtime
}  // namespace bbsched
