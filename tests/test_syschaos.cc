// Syscall-chaos suite (docs/ROBUSTNESS.md §9, `ctest -L syschaos`): a live
// in-process ManagerServer with real clients driven under seeded
// syscall-failure schedules (faults/sysfail.h). Asserts the §9 guarantees:
//
//   * 20+ seeded schedules of EINTR storms, short transfers, EAGAIN,
//     accept EMFILE and clock jumps — no crash, elections keep advancing,
//     and the process's fd table returns to its baseline (no leak);
//   * arena creation failure (ENOMEM class) produces the *typed*
//     kResourceExhausted nack on the wire and the server stays answerable;
//   * the journal ENOSPC degrade ladder runs end to end in-process: a
//     torn append never hides the writes after it, and a streak of failed
//     writes ends in journal-less mode with the degraded gauge — never a
//     dead manager;
//   * injected clock jumps are clamped (time never runs backwards) while
//     the election loop keeps ticking, and a forward leap of many quanta
//     costs one election plus a skip count, never a burst;
//   * the election pipeline itself is untouched by injection: the same
//     drive sequence elects bit-identically with a hostile injector
//     installed (journal writes all failing) and after it ends.
//
// Deliberately fork-free: every scenario runs in this process, so the
// whole file is sanitizer-clean for the TSan leg of tools/check.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/cpu_manager.h"
#include "core/journal.h"
#include "faults/sysfail.h"
#include "obs/metrics.h"
#include "runtime/client.h"
#include "runtime/manager_server.h"
#include "runtime/protocol.h"
#include "runtime/signal_gate.h"

namespace bbsched::runtime {
namespace {

using namespace std::chrono_literals;

namespace sf = bbsched::faults;

std::string syschaos_socket(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/bbsched-syschaos-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

bool eventually(const std::function<bool()>& pred, int ms = 5000) {
  for (int i = 0; i < ms / 5; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

int count_open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n - 1;  // the fd opendir itself holds
}

class SysChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { SignalGate::instance().reset_for_tests(); }
};

/// Per-schedule fault mix: every seed blends the noise differently, the
/// way the counter-chaos suite's mix_for() does.
sf::SysFailConfig storm_mix(int i) {
  sf::SysFailConfig cfg;
  cfg.enabled = true;
  cfg.seed = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
  cfg.eintr_prob = 0.05 + 0.03 * (i % 4);
  cfg.max_eintr_burst = 4;
  cfg.short_io_prob = 0.05 + 0.05 * (i % 3);
  cfg.eagain_prob = (i % 5 == 0) ? 0.02 : 0.0;
  cfg.accept_fail_prob = (i % 4 == 0) ? 0.10 : 0.0;
  cfg.clock_jump_prob = 0.02 * (i % 3);
  cfg.clock_jump_max_us = 50'000;
  return cfg;
}

// ---- the ≥20-schedule soak: survive, keep electing, leak nothing ----

TEST_F(SysChaosTest, TwentySeededSchedulesNoCrashNoFdDrift) {
  const int fd_baseline = count_open_fds();
  ASSERT_GT(fd_baseline, 0);
  int connected_total = 0;

  for (int schedule = 0; schedule < 20; ++schedule) {
    SCOPED_TRACE("schedule " + std::to_string(schedule));
    sf::ScopedSysFail scoped(storm_mix(schedule));

    obs::MetricsRegistry metrics;
    ServerConfig cfg;
    cfg.socket_path = syschaos_socket("soak");
    cfg.manager.quantum_us = 20'000;
    cfg.nprocs = 1;
    cfg.metrics = &metrics;
    ManagerServer server(cfg);
    ASSERT_TRUE(server.start());

    // Two honest clients; under heavy injection an individual handshake
    // may be refused (accept EMFILE, EAGAIN mid-frame) — retry a little,
    // tolerate a refusal, but the *server* must stay alive throughout.
    std::atomic<bool> stop{false};
    std::atomic<int> attached{0};
    std::vector<std::thread> apps;
    for (int a = 0; a < 2; ++a) {
      apps.emplace_back([&, a] {
        Client client;
        ConnectRetry retry;
        retry.attempts = 5;
        retry.backoff.initial_us = 10'000;
        if (!client.connect(cfg.socket_path, "soak" + std::to_string(a), 1,
                            retry)) {
          return;
        }
        attached.fetch_add(1);
        if (!client.ready()) return;
        while (!stop.load()) std::this_thread::sleep_for(2ms);
        client.unregister_worker();
        client.disconnect();
      });
    }

    // The election loop must keep advancing under the storm.
    const std::uint64_t elections_before = server.elections();
    EXPECT_TRUE(eventually(
        [&] { return server.elections() >= elections_before + 4; }))
        << "election loop stalled under injection";

    stop.store(true);
    for (std::thread& t : apps) t.join();
    connected_total += attached.load();
    server.stop();
  }

  EXPECT_GT(connected_total, 0) << "no client ever attached in 20 schedules";
  // Everything the schedules opened — sockets, arenas, epoll/pipe fds —
  // must be back to baseline (cleanup may trail the joins briefly).
  EXPECT_TRUE(eventually([&] { return count_open_fds() == fd_baseline; }))
      << "fd census drifted: " << count_open_fds() << " vs baseline "
      << fd_baseline;
}

// ---- arena exhaustion: a typed, wire-visible, transient rejection ----

TEST_F(SysChaosTest, ArenaCreationFailureNacksResourceExhausted) {
  obs::MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.socket_path = syschaos_socket("arena");
  cfg.manager.quantum_us = 20'000;
  cfg.metrics = &metrics;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());

  // memfd_create (kMmap class, call 0) fails for the first admission; the
  // mmap proper (call index 2 of the class) fails for the second.
  sf::SysFailConfig fcfg;
  fcfg.enabled = true;
  fcfg.triggers.push_back({sf::SysOp::kMmap, 0, ENOMEM, 0, 0});
  sf::ScopedSysFail scoped(fcfg);

  const int sock = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(sock, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, cfg.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(sock, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  timeval tv{};
  tv.tv_sec = 3;
  ::setsockopt(sock, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  HelloMsg hello{};
  hello.pid = ::getpid();
  hello.leader_tid = static_cast<std::int32_t>(::syscall(SYS_gettid));
  hello.nthreads = 1;
  std::strncpy(hello.name, "arena-victim", sizeof(hello.name) - 1);
  ASSERT_TRUE(send_msg(sock, MsgType::kHello, 0, &hello, sizeof(hello)));

  MsgHeader hdr{};
  HelloNackMsg nack{};
  int fd = -1;
  int unexpected = 0;
  ASSERT_EQ(recv_msg(sock, hdr, &nack, sizeof(nack), &fd, &unexpected),
            RecvStatus::kOk);
  EXPECT_EQ(hdr.type, static_cast<std::uint16_t>(MsgType::kHelloNack));
  EXPECT_EQ(nack.reason,
            static_cast<std::int32_t>(HelloNackReason::kResourceExhausted));
  EXPECT_GT(nack.retry_after_ms, 0u) << "transient refusal must say retry";
  EXPECT_EQ(fd, -1);
  ::close(sock);

  EXPECT_TRUE(eventually([&] {
    return metrics.counter("server.faults.arena_exhausted").value() >= 1.0;
  }));

  // The refusal was transient: with the trigger spent, an honest client
  // is admitted and receives a working arena.
  Client client;
  ASSERT_TRUE(client.connect(cfg.socket_path, "arena-retry", 1));
  ASSERT_NE(client.arena(), nullptr);
  EXPECT_EQ(client.arena()->magic, Arena::kMagic);
  client.disconnect();
  server.stop();
}

// ---- journal ENOSPC degrade ladder, end to end in one process ----

TEST_F(SysChaosTest, JournalDegradeLadderEndsJournalLessNotDead) {
  const std::string journal =
      "/tmp/bbsched-syschaos-journal-" + std::to_string(::getpid());
  ::unlink(journal.c_str());

  sf::SysFailConfig fcfg;
  fcfg.enabled = true;
  fcfg.journal_fail_prob = 1.0;  // every append and every replacement fails
  sf::ScopedSysFail scoped(fcfg);

  obs::MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.socket_path = syschaos_socket("journal");
  cfg.manager.quantum_us = 20'000;
  cfg.metrics = &metrics;
  cfg.journal_path = journal;
  cfg.journal_period_quanta = 1;
  cfg.journal_failure_limit = 2;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());

  ASSERT_TRUE(eventually([&] { return server.journal_degraded(); }))
      << "degrade ladder never latched journal-less mode";
  EXPECT_DOUBLE_EQ(metrics.gauge("manager.journal.degraded").value(), 1.0);
  EXPECT_GE(metrics.counter("server.recovery.journal_errors").value(), 2.0);

  // Journal-less is degraded, not dead: admission and elections continue.
  Client client;
  ASSERT_TRUE(client.connect(cfg.socket_path, "post-degrade", 1));
  const std::uint64_t before = server.elections();
  EXPECT_TRUE(eventually([&] { return server.elections() > before; }));
  client.disconnect();
  server.stop();
  ::unlink(journal.c_str());
}

// One append torn after 7 bytes, and its retry as a replacement failing:
// the journal must still trail the live manager by at most one period.
// Writes appended behind the torn prefix would stay hidden from restore
// until the file was next replaced.
TEST_F(SysChaosTest, TornJournalAppendHidesNoLaterWrite) {
  const std::string journal =
      "/tmp/bbsched-syschaos-torn-" + std::to_string(::getpid());
  ::unlink(journal.c_str());

  sf::SysFailConfig fcfg;
  fcfg.enabled = true;
  fcfg.triggers.push_back({sf::SysOp::kJournalWrite, 1, ENOSPC, 7, 0});
  fcfg.triggers.push_back({sf::SysOp::kJournalWrite, 2, ENOSPC, 0, 0});
  sf::ScopedSysFail scoped(fcfg);

  obs::MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.socket_path = syschaos_socket("torn");
  cfg.manager.quantum_us = 5'000;
  cfg.metrics = &metrics;
  cfg.journal_path = journal;
  cfg.journal_period_quanta = 1;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());
  ASSERT_TRUE(eventually([&] { return server.elections() >= 60; }));
  server.stop();

  EXPECT_DOUBLE_EQ(metrics.counter("server.recovery.journal_errors").value(),
                   1.0);
  EXPECT_FALSE(server.journal_degraded());
  core::ManagerSnapshot snap;
  ASSERT_TRUE(core::load_latest_snapshot(journal, snap));
  EXPECT_GE(snap.quantum_index + cfg.journal_period_quanta,
            server.elections())
      << "restored quantum " << snap.quantum_index << " of "
      << server.elections();
  ::unlink(journal.c_str());
}

// ---- clock jumps: clamped, accounted, and survivable ----

TEST_F(SysChaosTest, ClockJumpsAreClampedWhileElectionsAdvance) {
  sf::SysFailConfig fcfg;
  fcfg.enabled = true;
  fcfg.clock_jump_prob = 0.5;
  fcfg.clock_jump_max_us = 50'000;
  sf::ScopedSysFail scoped(fcfg);

  obs::MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.socket_path = syschaos_socket("clock");
  cfg.manager.quantum_us = 20'000;
  cfg.metrics = &metrics;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());

  const std::uint64_t before = server.elections();
  ASSERT_TRUE(
      eventually([&] { return server.elections() >= before + 5; }))
      << "clock jumps stalled the election loop";

  const sf::SysFailStats stats = scoped.injector().stats();
  EXPECT_GT(stats.clock_jumps, 0u);
  EXPECT_GT(stats.clock_clamped, 0u)
      << "backwards jumps were injected but never clamped";
  // The server mirrors injector counters into gauges once per quantum.
  EXPECT_TRUE(eventually([&] {
    return metrics.gauge("server.sysfail.injected").value() > 0.0;
  }));
  server.stop();
}

// A forward leap of many quanta — what a manager suspended for that long
// also sees — yields one election and a skip count, never a burst of
// back-to-back elections replaying the missed deadlines.
TEST_F(SysChaosTest, ForwardClockLeapSkipsMissedQuantaInsteadOfBursting) {
  // Declared before the server, so the injector outlives the manager
  // thread that reads the clock through it.
  std::optional<sf::ScopedSysFail> leap;
  obs::MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.socket_path = syschaos_socket("leap");
  cfg.manager.quantum_us = 10'000;
  cfg.metrics = &metrics;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());
  ASSERT_TRUE(eventually([&] { return server.elections() >= 3; }));
  const obs::Counter& skipped = metrics.counter("server.quanta_skipped");
  const double skipped0 = skipped.value();

  sf::SysFailConfig fcfg;
  fcfg.enabled = true;
  fcfg.triggers.push_back({sf::SysOp::kClock, 0, 0, 0, 205'000});
  leap.emplace(fcfg);
  const std::uint64_t e0 = server.elections();
  // The first clock read leaps 20.5 quanta ahead. Readings never go
  // backwards, so the clock then stands at the leap until real time
  // catches up, ~205 ms later: the manager sees one huge late wake-up.
  (void)monotonic_now_us();
  ASSERT_TRUE(eventually([&] { return skipped.value() > skipped0; }, 1000));
  std::this_thread::sleep_for(50ms);
  const std::uint64_t e1 = server.elections();
  // One election for the leap, plus at most one ordinary boundary that
  // raced the trigger.
  EXPECT_GE(e1 - e0, 1u);
  EXPECT_LE(e1 - e0, 2u) << "missed deadlines were replayed as a burst";
  // 20.5 quanta, give or take the manager's own lateness at the trigger.
  EXPECT_GE(skipped.value() - skipped0, 18.0);
  EXPECT_LE(skipped.value() - skipped0, 22.0);

  // Pacing resumes on the grid once real time passes the leap.
  EXPECT_TRUE(eventually([&] { return server.elections() >= e1 + 3; }));
  server.stop();
}

// ---- injection must never perturb the election pipeline ----

const core::ElectionResult& drive(core::CpuManager& mgr, std::uint64_t& now,
                                  std::uint64_t quantum_us) {
  static const std::map<std::string, double> kRates = {
      {"a", 1.0}, {"b", 2.0}, {"c", 4.0}, {"d", 8.0}};
  for (int id : mgr.running()) {
    const double rate = kRates.at(mgr.app(id).name);
    mgr.record_sample(id, rate * static_cast<double>(quantum_us), now);
  }
  now += quantum_us;
  return mgr.schedule_quantum(2, now);
}

TEST_F(SysChaosTest, ElectionsBitIdenticalUnderAndAfterInjection) {
  core::ManagerConfig mc;
  mc.policy = core::PolicyKind::kQuantaWindow;
  mc.quantum_us = 200'000;
  mc.window_len = 3;

  // Reference: no injector anywhere, journaling succeeds every quantum.
  std::vector<std::vector<int>> reference;
  {
    const std::string path =
        "/tmp/bbsched-syschaos-det-ref-" + std::to_string(::getpid());
    ::unlink(path.c_str());
    core::CpuManager mgr(mc);
    for (const char* name : {"a", "b", "c", "d"}) mgr.connect(name, 1);
    core::JournalWriter w(path);
    std::uint64_t now = 0;
    for (int q = 0; q < 12; ++q) {
      reference.push_back(drive(mgr, now, mc.quantum_us).elected);
      core::ManagerSnapshot snap;
      mgr.snapshot(snap);
      EXPECT_TRUE(w.append(snap));
    }
    ::unlink(path.c_str());
  }

  // Same drives with a hostile injector for the first half (journal writes
  // all fail, EINTR/short noise armed) and injection ended for the second:
  // every election must match the reference bit for bit.
  {
    const std::string path =
        "/tmp/bbsched-syschaos-det-inj-" + std::to_string(::getpid());
    ::unlink(path.c_str());
    core::CpuManager mgr(mc);
    for (const char* name : {"a", "b", "c", "d"}) mgr.connect(name, 1);
    core::JournalWriter w(path);
    std::uint64_t now = 0;
    for (int q = 0; q < 12; ++q) {
      std::vector<int> elected;
      if (q < 6) {
        sf::SysFailConfig fcfg;
        fcfg.enabled = true;
        fcfg.journal_fail_prob = 1.0;
        fcfg.eintr_prob = 0.5;
        fcfg.short_io_prob = 0.5;
        sf::ScopedSysFail scoped(fcfg);
        elected = drive(mgr, now, mc.quantum_us).elected;
        core::ManagerSnapshot snap;
        mgr.snapshot(snap);
        EXPECT_FALSE(w.append(snap)) << "quantum " << q;
      } else {
        elected = drive(mgr, now, mc.quantum_us).elected;
        core::ManagerSnapshot snap;
        mgr.snapshot(snap);
        // Failed appends left a torn tail; the first write that lands
        // replaces the file, which cures it.
        EXPECT_TRUE(w.append(snap)) << "quantum " << q;
      }
      EXPECT_EQ(elected, reference[static_cast<std::size_t>(q)])
          << "election " << q << " diverged under injection";
    }
    // The journal recovered once injection ended: it restores the latest
    // post-injection snapshot cleanly.
    core::ManagerSnapshot got;
    EXPECT_TRUE(core::load_latest_snapshot(path, got));
    EXPECT_EQ(got.quantum_index, 12u);
    ::unlink(path.c_str());
  }
}

}  // namespace
}  // namespace bbsched::runtime
