// Crash-recovery integration tests (docs/ROBUSTNESS.md §7): the journaled
// manager server restarting in-process, clients reattaching across
// generations without restarting threads, the reattach budget exhausting
// into permanent free-run, the seeded process-chaos schedule
// (faults/runtime_fault_plan.h) being a pure function of its config, and
// the jittered backoff that paces connect, reattach and restart.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "faults/runtime_fault_plan.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "runtime/backoff.h"
#include "runtime/client.h"
#include "runtime/manager_server.h"

namespace bbsched::runtime {
namespace {

std::string unique_path(const char* tag) {
  static std::atomic<int> counter{0};
  return std::string("/tmp/bbsched-test-recovery-") + tag + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1));
}

/// Bounded poll-until-predicate; same deflaked idiom as the server tests.
template <typename Pred>
bool eventually(Pred&& pred, std::uint64_t budget_ms = 10'000,
                std::uint64_t step_ms = 5) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(step_ms));
  }
  return pred();
}

// ---- RuntimeFaultPlan: seeded, deterministic chaos schedules ----

TEST(RuntimeFaultPlan, ScheduleIsAPureFunctionOfTheConfig) {
  faults::RuntimeFaultPlanConfig cfg;
  cfg.seed = 0x1234;
  cfg.kills = 4;
  cfg.stalls = 2;
  cfg.corrupts = 3;
  const faults::RuntimeFaultPlan a(cfg);
  const faults::RuntimeFaultPlan b(cfg);

  ASSERT_EQ(a.events().size(), 9u);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind) << "event " << i;
    EXPECT_EQ(a.events()[i].at_us, b.events()[i].at_us) << "event " << i;
    EXPECT_EQ(a.events()[i].duration_us, b.events()[i].duration_us);
  }

  faults::RuntimeFaultPlanConfig other = cfg;
  other.seed = 0x5678;
  const faults::RuntimeFaultPlan c(other);
  bool differs = false;
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    differs = differs || a.events()[i].kind != c.events()[i].kind ||
              a.events()[i].at_us != c.events()[i].at_us;
  }
  EXPECT_TRUE(differs) << "different seeds produced identical timelines";
}

TEST(RuntimeFaultPlan, EventMixGapsAndSpanHonorTheConfig) {
  faults::RuntimeFaultPlanConfig cfg;
  cfg.seed = 99;
  cfg.kills = 5;
  cfg.stalls = 2;
  cfg.corrupts = 3;
  cfg.min_gap_us = 100'000;
  cfg.max_gap_us = 200'000;
  cfg.stall_duration_us = 77'000;
  const faults::RuntimeFaultPlan plan(cfg);

  int kills = 0, stalls = 0, corrupts = 0;
  std::uint64_t prev = 0;
  for (const faults::RuntimeFaultEvent& ev : plan.events()) {
    const std::uint64_t gap = ev.at_us - prev;
    EXPECT_GE(gap, cfg.min_gap_us);
    EXPECT_LE(gap, cfg.max_gap_us);
    prev = ev.at_us;
    switch (ev.kind) {
      case faults::RuntimeFault::kKill:
        ++kills;
        EXPECT_EQ(ev.duration_us, 0u);
        break;
      case faults::RuntimeFault::kStall:
        ++stalls;
        EXPECT_EQ(ev.duration_us, cfg.stall_duration_us);
        break;
      case faults::RuntimeFault::kCorrupt:
        ++corrupts;
        break;
    }
  }
  EXPECT_EQ(kills, cfg.kills);
  EXPECT_EQ(stalls, cfg.stalls);
  EXPECT_EQ(corrupts, cfg.corrupts);
  EXPECT_EQ(plan.span_us(), plan.events().back().at_us +
                                plan.events().back().duration_us);
}

// ---- server restart + client reattach ----

TEST(Recovery, RestartRestoresJournalAndClientReattaches) {
  const std::string sock_path = unique_path("sock");
  const std::string journal_path = unique_path("journal");
  obs::MetricsRegistry metrics;
  obs::Tracer tracer(obs::TracerConfig{true, 4096});

  ServerConfig cfg;
  cfg.socket_path = sock_path;
  cfg.manager.quantum_us = 40'000;
  cfg.nprocs = 1;
  cfg.generation = 1;
  cfg.journal_path = journal_path;
  cfg.journal_period_quanta = 1;
  cfg.metrics = &metrics;
  cfg.tracer = &tracer;

  std::atomic<bool> stop{false};
  Client client;
  auto server1 = std::make_unique<ManagerServer>(cfg);
  ASSERT_TRUE(server1->start());
  EXPECT_EQ(server1->restored_feeds(), 0);  // nothing to restore: cold start

  std::thread app([&] {
    ConnectRetry retry;
    retry.attempts = 200;
    retry.backoff.initial_us = 5'000;
    retry.backoff.max_us = 50'000;
    client.set_reattach(retry);
    if (!client.connect(sock_path, "phoenix", 1, retry) || !client.ready()) {
      return;
    }
    const int slot = client.leader_counter_slot();
    while (!stop.load(std::memory_order_relaxed)) {
      client.credit(slot, 500);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.disconnect();
  });

  // Generation 1 must observe the feed and journal it at least once.
  ASSERT_TRUE(eventually([&] {
    return client.connected() && server1->elections() >= 3 &&
           metrics.counter("server.recovery.journal_appends").value() >= 1.0;
  }));
  EXPECT_EQ(client.generation(), 1u);

  server1->stop();
  server1.reset();

  ServerConfig cfg2 = cfg;
  cfg2.generation = 2;
  ManagerServer server2(cfg2);
  ASSERT_TRUE(server2.start());
  EXPECT_EQ(server2.restored_feeds(), 1);
  EXPECT_DOUBLE_EQ(metrics.counter("server.recovery.restores").value(), 1.0);

  // The client must come back under the new generation, adopting the
  // journaled feed (pending restore drains), without its thread restarting.
  EXPECT_TRUE(eventually([&] {
    return client.generation() == 2 && client.reattaches() == 1 &&
           server2.connected_apps() == 1 && server2.pending_restores() == 0;
  }));
  EXPECT_FALSE(client.unmanaged());
  EXPECT_GE(metrics.counter("server.recovery.reattaches").value(), 1.0);

  stop.store(true);
  app.join();
  server2.stop();

  // Trace: one Recovery announcing generation 2, then a Reattach adopting.
  // Audited after stop() — the tracer is single-writer, read-after-join.
  int recoveries = 0, reattaches = 0;
  bool adopted = false;
  tracer.events().for_each([&](const obs::TraceEvent& e) {
    if (e.type == obs::EventType::kRecovery) {
      ++recoveries;
      EXPECT_EQ(e.recovery.generation, 2u);
      EXPECT_EQ(e.recovery.restored_feeds, 1);
    }
    if (e.type == obs::EventType::kReattach) {
      ++reattaches;
      EXPECT_EQ(e.reattach.generation, 2u);
      adopted = adopted || e.reattach.adopted_state != 0;
    }
  });
  EXPECT_EQ(recoveries, 1);
  EXPECT_EQ(reattaches, 1);
  EXPECT_TRUE(adopted);

  ::unlink(journal_path.c_str());
}

TEST(Recovery, ReattachBudgetExhaustsIntoPermanentFreeRun) {
  const std::string sock_path = unique_path("sock");
  ServerConfig cfg;
  cfg.socket_path = sock_path;
  cfg.manager.quantum_us = 40'000;
  auto server = std::make_unique<ManagerServer>(cfg);
  ASSERT_TRUE(server->start());

  Client client;
  std::atomic<bool> ready_ok{false};
  std::thread app([&] {
    ConnectRetry retry;
    retry.attempts = 3;  // tiny budget; the manager never comes back
    retry.backoff.initial_us = 5'000;
    retry.backoff.max_us = 10'000;
    client.set_reattach(retry);
    if (client.connect(sock_path, "doomed", 1)) {
      ready_ok.store(client.ready());
    }
  });
  app.join();
  ASSERT_TRUE(ready_ok.load());

  server->stop();  // and never restart
  server.reset();

  // The client releases its gate (free-run), burns the 3-attempt budget,
  // and settles unmanaged with zero successful reattaches.
  EXPECT_TRUE(eventually([&] { return client.unmanaged(); }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // budget burn
  EXPECT_EQ(client.reattaches(), 0);
  EXPECT_TRUE(client.unmanaged());
  client.unregister_worker();
  client.disconnect();
}

TEST(Recovery, ColdStartWithUnreadableJournalStillServes) {
  const std::string sock_path = unique_path("sock");
  const std::string journal_path = unique_path("journal");
  // Garbage journal: the restore must fall back to cold start, not refuse
  // to serve (journaling is advisory, docs/ROBUSTNESS.md).
  {
    std::FILE* f = std::fopen(journal_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "this is not a journal";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }

  ServerConfig cfg;
  cfg.socket_path = sock_path;
  cfg.journal_path = journal_path;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());
  EXPECT_EQ(server.restored_feeds(), 0);

  Client client;
  EXPECT_TRUE(client.connect(sock_path, "fresh", 1));
  EXPECT_TRUE(eventually([&] { return server.connected_apps() == 1; }));
  client.unregister_worker();
  client.disconnect();
  server.stop();
  ::unlink(journal_path.c_str());
}

// The first sleeps for one seed, pinned to what the connect, reattach and
// restart loops slept before they shared Backoff (base × (1 + 0.5·(u −
// 0.5)), the base doubling up to the cap), so every seeded schedule replays
// unchanged. reset() returns to the initial base while the jitter stream
// continues.
TEST(Backoff, SeededScheduleDoublesToItsCapAndResets) {
  Backoff backoff({.initial_us = 1'000, .max_us = 6'000, .seed = 0x5eedULL});
  for (const std::uint64_t want : {1'217, 2'382, 4'692, 7'424, 6'556, 6'081}) {
    EXPECT_EQ(backoff.next_us(), want);
  }
  backoff.reset();
  EXPECT_EQ(backoff.next_us(), 902u);    // base 1,000, the 7th draw
  EXPECT_EQ(backoff.next_us(), 1'922u);  // base 2,000

  // Capped: however long the streak, each sleep stays within ±25% of
  // max_us.
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t sleep_us = backoff.next_us();
    if (i == 0) continue;  // base 4,000; every later one is capped
    EXPECT_GE(sleep_us, 4'500u);
    EXPECT_LE(sleep_us, 7'500u);
  }
}

}  // namespace
}  // namespace bbsched::runtime
