// Allocation gate for the native manager's quantum loop: the daemon's
// counterpart of `perf_ticks --smoke`. A counting global operator new
// must read 0 while a live in-process ManagerServer runs steady quanta
// with everything on: four in-process clients on two processors (so every
// quantum blocks and unblocks someone), an enabled tracer, a metrics
// registry, and a journal small enough to compact inside the window.
// Every thread of the process is counted, the clients' included.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "runtime/client.h"
#include "runtime/manager_server.h"
#include "runtime/signal_gate.h"

// ---- global allocation counter (same override as bench/perf_ticks.cc) ----
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

namespace bbsched::runtime {
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
  // A never-signalled slot 0: only slot 0 forwards block/unblock intents to
  // the other registered threads, so each client's signals then reach its
  // own worker only.
  SignalGate::instance().register_current_thread();

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
}  // namespace bbsched::runtime
