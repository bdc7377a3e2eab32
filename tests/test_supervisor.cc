// Supervisor process-management tests (docs/ROBUSTNESS.md §7): crash
// restart with generation bump, the hang watchdog SIGKILLing a SIGSTOPped
// child, the circuit breaker tripping permanently under a restart storm,
// and clean stop() never being treated as a crash. These fork real manager
// children; keep the timing parameters loose enough for a loaded 1-CPU CI
// box (assert "at least", never "exactly when").
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>

#include "faults/sysfail.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "runtime/supervisor.h"

namespace bbsched::runtime {
namespace {

std::string unique_sock(const char* tag) {
  static std::atomic<int> counter{0};
  return std::string("/tmp/bbsched-test-supervisor-") + tag + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1));
}

template <typename Pred>
bool eventually(Pred&& pred, std::uint64_t budget_ms = 15'000,
                std::uint64_t step_ms = 10) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(step_ms));
  }
  return pred();
}

SupervisorConfig fast_config(const char* tag) {
  SupervisorConfig cfg;
  cfg.server.socket_path = unique_sock(tag);
  cfg.server.manager.quantum_us = 40'000;
  cfg.server.nprocs = 1;
  cfg.backoff.initial_us = 10'000;
  cfg.backoff.max_us = 50'000;
  cfg.heartbeat_period_us = 15'000;
  cfg.heartbeat_miss_limit = 6;  // watchdog fires after ~90ms of silence
  cfg.max_restarts = 32;
  cfg.breaker_window_us = 60'000'000;
  return cfg;
}

TEST(Supervisor, RestartsKilledChildWithFreshGeneration) {
  obs::MetricsRegistry metrics;
  SupervisorConfig cfg = fast_config("sigkill");
  cfg.metrics = &metrics;
  Supervisor sup(cfg);
  ASSERT_TRUE(sup.start());
  ASSERT_TRUE(eventually([&] { return sup.child_pid() > 0; }));
  EXPECT_EQ(sup.generation(), 1u);
  const pid_t first = sup.child_pid();

  ASSERT_TRUE(sup.kill_child(SIGKILL));
  ASSERT_TRUE(eventually([&] {
    return sup.restarts() >= 1 && sup.child_pid() > 0 &&
           sup.child_pid() != first;
  }));
  EXPECT_GE(sup.generation(), 2u);
  EXPECT_FALSE(sup.gave_up());
  EXPECT_TRUE(sup.supervising());
  EXPECT_GE(
      metrics.counter("server.recovery.supervisor_restarts").value(), 1.0);

  sup.stop();
  EXPECT_FALSE(sup.supervising());
}

TEST(Supervisor, WatchdogKillsStalledChild) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer(obs::TracerConfig{true, 1024});
  SupervisorConfig cfg = fast_config("sigstop");
  cfg.metrics = &metrics;
  cfg.tracer = &tracer;
  Supervisor sup(cfg);
  ASSERT_TRUE(sup.start());
  ASSERT_TRUE(eventually([&] { return sup.child_pid() > 0; }));

  // A SIGSTOPped child is alive for waitpid but heartbeats nothing: only
  // the watchdog can notice, SIGKILL it, and take the normal restart path.
  ASSERT_TRUE(sup.kill_child(SIGSTOP));
  ASSERT_TRUE(eventually([&] { return sup.restarts() >= 1; }));
  EXPECT_GE(metrics.counter("server.recovery.watchdog_kills").value(), 1.0);

  sup.stop();

  // Every spawn is traced with the generation it started (the initial
  // start included); the watchdog restart must appear as generation >= 2,
  // carrying the jittered sleep it took: the first backoff, within ±25% of
  // initial_us and (for this seed) not equal to it.
  std::uint32_t max_generation = 0;
  std::uint64_t first_backoff_us = 0;
  tracer.events().for_each([&](const obs::TraceEvent& e) {
    if (e.type == obs::EventType::kSupervisorRestart) {
      max_generation = std::max(max_generation, e.supervisor.generation);
      EXPECT_EQ(e.supervisor.gave_up, 0);
      if (e.supervisor.generation == 2) {
        first_backoff_us = e.supervisor.backoff_us;
      }
    }
  });
  EXPECT_GE(max_generation, 2u);
  const std::uint64_t initial_us = cfg.backoff.initial_us;
  EXPECT_GE(first_backoff_us, initial_us * 3 / 4);
  EXPECT_LE(first_backoff_us, initial_us * 5 / 4);
  EXPECT_NE(first_backoff_us, initial_us)
      << "the restart event carries the base, not the jittered sleep";
}

TEST(Supervisor, BreakerTripsPermanentlyUnderRestartStorm) {
  obs::MetricsRegistry metrics;
  SupervisorConfig cfg = fast_config("storm");
  cfg.metrics = &metrics;
  cfg.max_restarts = 2;  // third crash inside the window trips the breaker
  Supervisor sup(cfg);
  ASSERT_TRUE(sup.start());

  // Kill every child the supervisor brings up until it stops bringing
  // them up. The breaker must trip after max_restarts, not keep looping.
  ASSERT_TRUE(eventually(
      [&] {
        if (sup.gave_up()) return true;
        if (sup.child_pid() > 0) sup.kill_child(SIGKILL);
        return false;
      },
      20'000));
  EXPECT_TRUE(sup.gave_up());
  EXPECT_FALSE(sup.supervising());
  EXPECT_EQ(sup.restarts(), cfg.max_restarts);
  EXPECT_EQ(sup.child_pid(), -1);
  EXPECT_DOUBLE_EQ(
      metrics.gauge("server.recovery.supervisor_gave_up").value(), 1.0);

  // Tripped is forever: stop() stays safe and idempotent afterwards.
  sup.stop();
  EXPECT_TRUE(sup.gave_up());

  // Every child died by SIGKILL, so none unlinked its socket, and no new
  // child will reclaim the path: the test removes it.
  const std::string& path = cfg.server.socket_path;
  ::unlink(path.c_str());
  struct stat st {};
  EXPECT_NE(::stat(path.c_str(), &st), 0) << path << " left behind";
}

TEST(Supervisor, CleanStopIsNotARestart) {
  SupervisorConfig cfg = fast_config("clean");
  Supervisor sup(cfg);
  ASSERT_TRUE(sup.start());
  ASSERT_TRUE(eventually([&] { return sup.child_pid() > 0; }));

  sup.stop();
  EXPECT_EQ(sup.restarts(), 0);
  EXPECT_FALSE(sup.gave_up());
  EXPECT_FALSE(sup.supervising());
  EXPECT_EQ(sup.child_pid(), -1);

  sup.stop();  // idempotent
  EXPECT_EQ(sup.restarts(), 0);
}

// ---- injected OS failures (faults/sysfail.h) ----

namespace sf = bbsched::faults;

// Satellite regression: fork() failing during a respawn must take the
// normal backoff + circuit-breaker ladder — counted, paced, retried — and
// never busy-loop or kill a stray pid. Scripted: the initial start forks
// cleanly (kFork call 0), then the first two respawn forks fail.
TEST(Supervisor, ForkFailureBacksOffAndEventuallyRespawns) {
  sf::SysFailConfig fcfg;
  fcfg.enabled = true;
  fcfg.triggers.push_back({sf::SysOp::kFork, 1, EAGAIN, 0, 0});
  fcfg.triggers.push_back({sf::SysOp::kFork, 2, EAGAIN, 0, 0});
  sf::ScopedSysFail scoped(fcfg);

  obs::MetricsRegistry metrics;
  obs::Tracer tracer(obs::TracerConfig{true, 1024});
  SupervisorConfig cfg = fast_config("forkfail");
  cfg.metrics = &metrics;
  cfg.tracer = &tracer;
  Supervisor sup(cfg);
  ASSERT_TRUE(sup.start());
  ASSERT_TRUE(eventually([&] { return sup.child_pid() > 0; }));
  const pid_t first = sup.child_pid();

  ASSERT_TRUE(sup.kill_child(SIGKILL));
  // Two fork attempts fail (each pays a full backoff step), the third
  // succeeds: the supervisor must come back with a live child.
  ASSERT_TRUE(eventually([&] {
    return sup.fork_failures() == 2 && sup.child_pid() > 0 &&
           sup.child_pid() != first;
  }));
  EXPECT_FALSE(sup.gave_up());
  EXPECT_TRUE(sup.supervising());
  // Every failed fork paid a breaker-accounted restart before the one
  // that stuck.
  EXPECT_GE(sup.restarts(), 3);
  EXPECT_GE(metrics.counter("server.recovery.fork_failures").value(), 2.0);

  sup.stop();

  // Fork failures are traced with their errno.
  int fork_faults = 0;
  tracer.events().for_each([&](const obs::TraceEvent& e) {
    if (e.type == obs::EventType::kFault &&
        e.fault.kind == obs::FaultKind::kForkFailure) {
      ++fork_faults;
      EXPECT_EQ(static_cast<int>(e.fault.value), EAGAIN);
    }
  });
  EXPECT_EQ(fork_faults, 2);
}

// Persistent fork failure trips the breaker exactly like a crash storm:
// the supervisor gives up cleanly instead of spinning on fork() forever.
TEST(Supervisor, PersistentForkFailureTripsTheBreaker) {
  sf::SysFailConfig fcfg;
  fcfg.enabled = true;
  for (std::uint64_t call = 1; call <= 4; ++call) {
    fcfg.triggers.push_back({sf::SysOp::kFork, call, EAGAIN, 0, 0});
  }
  sf::ScopedSysFail scoped(fcfg);

  obs::MetricsRegistry metrics;
  SupervisorConfig cfg = fast_config("forkstorm");
  cfg.metrics = &metrics;
  cfg.max_restarts = 2;  // the third respawn attempt trips the breaker
  Supervisor sup(cfg);
  ASSERT_TRUE(sup.start());
  ASSERT_TRUE(eventually([&] { return sup.child_pid() > 0; }));

  ASSERT_TRUE(sup.kill_child(SIGKILL));
  ASSERT_TRUE(eventually([&] { return sup.gave_up(); }, 20'000));
  EXPECT_FALSE(sup.supervising());
  EXPECT_EQ(sup.child_pid(), -1);
  EXPECT_EQ(sup.fork_failures(), 2);
  EXPECT_EQ(sup.restarts(), cfg.max_restarts);
  EXPECT_DOUBLE_EQ(
      metrics.gauge("server.recovery.supervisor_gave_up").value(), 1.0);

  sup.stop();
}

// End-to-end degrade ladder: a child whose journal writes always fail
// ENOSPC goes journal-less after journal_failure_limit streaked failures
// and tells its supervisor through the heartbeat ('d' beats).
TEST(Supervisor, ChildJournalDegradationReachesTheSupervisor) {
  sf::SysFailConfig fcfg;
  fcfg.enabled = true;
  fcfg.journal_fail_prob = 1.0;  // inherited by the forked child
  sf::ScopedSysFail scoped(fcfg);

  obs::MetricsRegistry metrics;
  SupervisorConfig cfg = fast_config("degraded");
  cfg.metrics = &metrics;
  cfg.server.journal_path = unique_sock("degraded-journal");
  cfg.server.journal_period_quanta = 1;
  cfg.server.journal_failure_limit = 2;
  Supervisor sup(cfg);
  ASSERT_TRUE(sup.start());
  ASSERT_TRUE(eventually([&] { return sup.child_pid() > 0; }));
  EXPECT_FALSE(sup.child_journal_degraded());

  ASSERT_TRUE(eventually([&] { return sup.child_journal_degraded(); }));
  EXPECT_DOUBLE_EQ(
      metrics.gauge("server.recovery.child_journal_degraded").value(), 1.0);
  // Degradation is advisory: the child stays alive and supervised.
  EXPECT_TRUE(sup.supervising());
  EXPECT_GT(sup.child_pid(), 0);
  EXPECT_EQ(sup.restarts(), 0);

  sup.stop();
  ::unlink(cfg.server.journal_path.c_str());
}

}  // namespace
}  // namespace bbsched::runtime
