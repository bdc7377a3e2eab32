// End-to-end test of the native user-level CPU manager: a real server on a
// UNIX socket, real clients with worker threads, shared arenas, and real
// SIGUSR1/SIGUSR2 gang scheduling — the complete §4 mechanism.
//
// Kept deliberately small (two 1-thread applications, 40 ms quanta, <1 s of
// wall time) so it is reliable on a single-core CI machine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <set>
#include <thread>

#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "runtime/client.h"
#include "runtime/manager_server.h"
#include "runtime/microbench.h"
#include "runtime/protocol.h"
#include "runtime/signal_gate.h"

namespace bbsched::runtime {
namespace {

using namespace std::chrono_literals;

std::string test_socket_path() {
  return "/tmp/bbsched-test-" + std::to_string(::getpid()) + ".sock";
}

class ManagerServerTest : public ::testing::Test {
 protected:
  void TearDown() override { SignalGate::instance().reset_for_tests(); }
};

/// Polls `pred` every 5 ms for up to `ms` milliseconds.
bool eventually(const std::function<bool()>& pred, int ms = 3000) {
  for (int i = 0; i < ms / 5; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

/// Connects a bare AF_UNIX stream socket to `path`; -1 on failure.
int raw_connect(const std::string& path) {
  const int sock = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (sock < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(sock);
    return -1;
  }
  return sock;
}

TEST_F(ManagerServerTest, StartStop) {
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.manager.quantum_us = 50'000;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());
  EXPECT_EQ(server.connected_apps(), 0u);
  server.stop();
}

TEST_F(ManagerServerTest, ClientConnectReceivesArena) {
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.manager.quantum_us = 50'000;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());

  std::atomic<bool> done{false};
  std::thread app([&] {
    Client client;
    ASSERT_TRUE(client.connect(cfg.socket_path, "probe", 1));
    EXPECT_TRUE(client.connected());
    EXPECT_EQ(client.update_period_us(), 25'000u);  // quantum / 2 samples
    ASSERT_NE(client.arena(), nullptr);
    EXPECT_EQ(client.arena()->magic, Arena::kMagic);
    while (!done.load()) std::this_thread::sleep_for(1ms);
    client.unregister_worker();
    client.disconnect();
  });

  // The server sees the connection (app not yet 'ready').
  EXPECT_TRUE(eventually([&] { return server.connected_apps() == 1; }));
  done.store(true);
  app.join();
  server.stop();
}

TEST_F(ManagerServerTest, GangSchedulesTwoApplications) {
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.manager.quantum_us = 40'000;  // 40 ms quanta: many elections fast
  cfg.nprocs = 1;                   // force alternation
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> work[2] = {{0}, {0}};

  auto app_main = [&](int idx, const char* name, double tps) {
    Client client;
    ASSERT_TRUE(client.connect(cfg.socket_path, name, 1));
    const int slot = client.leader_counter_slot();
    ASSERT_GE(slot, 0);
    ASSERT_TRUE(client.ready());
    // Emulated workload: credit transactions and count iterations.
    const auto t0 = std::chrono::steady_clock::now();
    auto last = t0;
    while (!stop.load(std::memory_order_relaxed)) {
      work[idx].fetch_add(1, std::memory_order_relaxed);
      const auto now = std::chrono::steady_clock::now();
      const double us =
          std::chrono::duration<double, std::micro>(now - last).count();
      last = now;
      client.credit(slot, static_cast<std::uint64_t>(us * tps));
      std::this_thread::sleep_for(200us);
    }
    client.unregister_worker();
    client.disconnect();
  };

  // NOTE: both "applications" live in this process; each has one worker
  // thread, which the manager signals directly (1-thread apps need no
  // forwarding), exercising the full socket/arena/signal path.
  std::thread a([&] { app_main(0, "hungry", 20.0); });
  // Ensure connection order (a first) without a timing-sensitive sleep.
  ASSERT_TRUE(eventually([&] { return server.connected_apps() >= 1; }));
  std::thread b([&] { app_main(1, "quiet", 0.01); });

  // Observe the manager for ~0.9 s (~22 quanta), sampling which apps it has
  // elected. The meaningful property is the alternation itself: with one
  // processor, both applications must take turns in the running set.
  std::set<std::string> seen_running;
  for (int i = 0; i < 90; ++i) {
    for (const auto& name : server.running_app_names()) {
      seen_running.insert(name);
    }
    std::this_thread::sleep_for(10ms);
  }

  EXPECT_EQ(server.connected_apps(), 2u);
  EXPECT_GE(server.elections(), 6u);
  EXPECT_TRUE(seen_running.count("hungry")) << "hungry never elected";
  EXPECT_TRUE(seen_running.count("quiet")) << "quiet never elected";

  // Both apps made progress (no starvation) despite nprocs=1. The exact
  // iteration counts depend on host load; only demand forward progress.
  EXPECT_GT(work[0].load(), 0u);
  EXPECT_GT(work[1].load(), 0u);

  // The manager observed a bandwidth difference between the two.
  const auto estimates = server.estimates();
  ASSERT_EQ(estimates.size(), 2u);
  double hungry = 0.0, quiet = 0.0;
  for (const auto& [name, est] : estimates) {
    if (name == "hungry") hungry = est;
    if (name == "quiet") quiet = est;
  }
  EXPECT_GT(hungry, quiet);

  stop.store(true);
  server.stop();  // unblocks everyone so the workers can exit
  a.join();
  b.join();
}

TEST_F(ManagerServerTest, ClientDisconnectRemovesApp) {
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.manager.quantum_us = 40'000;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());

  std::thread app([&] {
    Client client;
    ASSERT_TRUE(client.connect(cfg.socket_path, "ephemeral", 1));
    ASSERT_TRUE(client.ready());
    // Stay connected until the server has registered us, then leave.
    EXPECT_TRUE(eventually([&] { return server.connected_apps() == 1; }));
    client.unregister_worker();
    client.disconnect();
  });
  app.join();

  EXPECT_TRUE(eventually([&] { return server.connected_apps() == 0; }));
  server.stop();
}

// A deadline grid with a zero period never advances: start() refuses a
// zero quantum, and one too short to split into its sample points, before
// it binds anything.
TEST_F(ManagerServerTest, ZeroPeriodConfigIsRefused) {
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.manager.quantum_us = 0;
  EXPECT_FALSE(ManagerServer(cfg).start());
  cfg.manager.quantum_us = 1;
  cfg.manager.samples_per_quantum = 2;  // sample period 1 / 2 == 0 µs
  EXPECT_FALSE(ManagerServer(cfg).start());

  // Nothing was bound: the same path still serves a valid config.
  cfg.manager.quantum_us = 2;
  ManagerServer server(cfg);
  EXPECT_TRUE(server.start());
  server.stop();
}

// ---- quantum pacing: the absolute deadline grid (DESIGN.md §5) ----

TEST(QuantumGrid, OnTimeBoundaryAdvancesOnePeriod) {
  const GridStep s = advance_quantum_grid(1'000, 5'000, 6'000);
  EXPECT_EQ(s.start_us, 6'000u);
  EXPECT_EQ(s.skipped, 0u);
}

TEST(QuantumGrid, SlightlyLateWakeUpKeepsTheGrid) {
  // 600 µs late, within 1/8 of the 5 ms period: the next quantum still
  // starts at the missed deadline and ends on the grid, 4.4 ms from now.
  const GridStep s = advance_quantum_grid(1'000, 5'000, 6'600);
  EXPECT_EQ(s.start_us, 6'000u);
  EXPECT_EQ(s.skipped, 0u);
}

TEST(QuantumGrid, LateWakeUpSkipsADeadlineTooCloseToRunAQuantum) {
  // 4.9 ms late: the next grid deadline (11000) is 100 µs away, too close
  // for a gang to run on, so it is skipped; the next one is 5.1 ms away.
  const GridStep s = advance_quantum_grid(1'000, 5'000, 10'900);
  EXPECT_EQ(s.skipped, 1u);
  EXPECT_EQ(s.start_us, 11'000u);
}

TEST(QuantumGrid, WakeUpKQuantaLateSkipsKDeadlines) {
  for (std::uint64_t k = 1; k <= 5; ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    // Deadline 6000, woken k quanta plus 1 µs late.
    const std::uint64_t now = 6'000 + k * 5'000 + 1;
    const GridStep s = advance_quantum_grid(1'000, 5'000, now);
    EXPECT_EQ(s.skipped, k);
    EXPECT_EQ(s.start_us, 6'000 + k * 5'000);
    EXPECT_GT(s.start_us + 5'000, now) << "next deadline must be ahead";
  }
}

TEST(QuantumGrid, NextQuantumStaysOnTheGridAndLastsSevenToFifteenEighths) {
  constexpr std::uint64_t kStart = 1'000;
  constexpr std::uint64_t kPeriod = 8'000;
  const std::uint64_t deadline = kStart + kPeriod;
  for (std::uint64_t late = 0; late <= 4 * kPeriod; late += 37) {
    SCOPED_TRACE("late=" + std::to_string(late));
    const std::uint64_t now = deadline + late;
    const GridStep s = advance_quantum_grid(kStart, kPeriod, now);
    const std::uint64_t next_deadline = s.start_us + kPeriod;
    ASSERT_EQ((s.start_us - kStart) % kPeriod, 0u);
    // Every grid deadline before the next one was skipped, none replayed.
    ASSERT_EQ(next_deadline, deadline + (s.skipped + 1) * kPeriod);
    ASSERT_GE(next_deadline - now, kPeriod - kPeriod / 8);
    ASSERT_LT(next_deadline - now, 2 * kPeriod - kPeriod / 8);
  }
}

// Live pacing: every grid deadline is either elected or counted as
// skipped, so elections + server.quanta_skipped tracks elapsed / quantum
// however loaded the host is. A manager that restarted each quantum at its
// late wake-up would fall behind by its accumulated lateness; at 2 ms even
// tens of µs per wake-up add up to several quanta in 0.5 s. One that
// replayed missed deadlines could run ahead.
TEST_F(ManagerServerTest, ElectionsPlusSkipsTrackTheDeadlineGrid) {
  for (const auto& [quantum_us, run] :
       {std::pair{std::uint64_t{10'000}, 1000ms},
        std::pair{std::uint64_t{2'000}, 500ms}}) {
    SCOPED_TRACE("quantum " + std::to_string(quantum_us) + " us");
    obs::MetricsRegistry metrics;
    ServerConfig cfg;
    cfg.socket_path = test_socket_path();
    cfg.manager.quantum_us = quantum_us;
    cfg.metrics = &metrics;
    ManagerServer server(cfg);
    const std::uint64_t t_before = monotonic_now_us();
    ASSERT_TRUE(server.start());
    const std::uint64_t t_after = monotonic_now_us();
    const obs::Counter& skipped = metrics.counter("server.quanta_skipped");

    std::this_thread::sleep_for(run);
    // Take the count right after a boundary and the time from that
    // boundary: poll without sleeping (a 5 ms poll outlasts the 2 ms
    // quantum) and keep only a change that two reads less than a quarter
    // quantum apart bracket, so neither a starved server nor a starved test
    // thread leaves `t` more than that past the boundary.
    double counted = 0.0;
    std::uint64_t t = 0;
    std::uint64_t seen_from = monotonic_now_us();
    std::uint64_t seen = server.elections();
    const std::uint64_t give_up = seen_from + 1'000'000;
    for (;;) {
      const std::uint64_t read_from = monotonic_now_us();
      const std::uint64_t e = server.elections();
      counted = static_cast<double>(e) + skipped.value();
      t = monotonic_now_us();
      if (e != seen && t - seen_from < quantum_us / 4) break;
      seen = e;
      seen_from = read_from;
      ASSERT_LT(t, give_up) << "no boundary bracketed within a second";
    }
    const auto quantum = static_cast<double>(quantum_us);
    EXPECT_GE(counted, static_cast<double>(t - t_after) / quantum - 2.0);
    EXPECT_LE(counted, static_cast<double>(t - t_before) / quantum + 2.0);

    server.stop();
    // Each boundary's lateness is observed once, skipped deadlines or not.
    const obs::Histogram* late =
        metrics.find_histogram("server.quantum_late_us");
    ASSERT_NE(late, nullptr);
    EXPECT_EQ(late->count(), server.elections());
  }
}

TEST_F(ManagerServerTest, ConnectFailsWithoutServer) {
  Client client;
  EXPECT_FALSE(client.connect("/tmp/bbsched-no-such-socket.sock", "x", 1));
}

// ---- robustness (docs/ROBUSTNESS.md) ----

// A client that disappears without a Disconnect message (SIGKILL, crash)
// must be dropped, and the surviving application keeps being scheduled.
TEST_F(ManagerServerTest, AbruptClientCloseIsReaped) {
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.manager.quantum_us = 40'000;
  cfg.nprocs = 2;  // both 1-thread apps fit: nobody needs blocking
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::thread survivor_thread([&] {
    Client survivor;
    ASSERT_TRUE(survivor.connect(cfg.socket_path, "survivor", 1));
    const int slot = survivor.leader_counter_slot();
    ASSERT_TRUE(survivor.ready());
    while (!stop.load(std::memory_order_relaxed)) {
      survivor.credit(slot, 100);
      std::this_thread::sleep_for(1ms);
    }
    survivor.unregister_worker();
    survivor.disconnect();
  });
  ASSERT_TRUE(eventually([&] { return server.connected_apps() == 1; }));

  // The victim speaks the raw protocol (Hello/ack/Ready) and then its
  // socket closes with no Disconnect — the wire view of a SIGKILLed app.
  std::thread victim_thread([&] {
    SignalGate::instance().install();
    SignalGate::instance().register_current_thread();
    const int sock = raw_connect(cfg.socket_path);
    ASSERT_GE(sock, 0);
    HelloMsg hello{};
    hello.pid = ::getpid();
    hello.leader_tid = static_cast<std::int32_t>(::syscall(SYS_gettid));
    hello.nthreads = 1;
    std::strncpy(hello.name, "victim", sizeof(hello.name) - 1);
    ASSERT_TRUE(send_msg(sock, MsgType::kHello, 0, &hello, sizeof(hello)));
    MsgHeader hdr{};
    HelloAck ack{};
    int arena_fd = -1;
    ASSERT_EQ(recv_msg(sock, hdr, &ack, sizeof(ack), &arena_fd),
              RecvStatus::kOk);
    if (arena_fd >= 0) ::close(arena_fd);
    ReadyMsg ready{};
    ASSERT_TRUE(
        send_msg(sock, MsgType::kReady, hdr.generation, &ready, sizeof(ready)));
    // Stay visible long enough for the manager to elect us at least once.
    ASSERT_TRUE(eventually([&] { return server.connected_apps() == 2; }));
    const std::uint64_t before = server.elections();
    ASSERT_TRUE(eventually([&] { return server.elections() > before; }));
    ::close(sock);  // abrupt death: no Disconnect message
    SignalGate::instance().unregister_current_thread();
  });
  victim_thread.join();

  // The server notices the hangup, reaps the victim, and keeps going.
  EXPECT_TRUE(eventually([&] { return server.connected_apps() == 1; }));
  const std::uint64_t elections_before = server.elections();
  EXPECT_TRUE(eventually(
      [&] { return server.elections() > elections_before + 2; }));
  auto running = server.running_app_names();
  EXPECT_EQ(running.size(), 1u);
  if (!running.empty()) {
    EXPECT_EQ(running[0], "survivor");
  }

  stop.store(true);
  server.stop();
  survivor_thread.join();
}

// A socket file left behind by a crashed manager must not require manual
// cleanup: start() probe-connects, detects nothing is accepting, unlinks
// and rebinds.
TEST_F(ManagerServerTest, StaleSocketFileIsRecovered) {
  const std::string path = test_socket_path();
  // Fake the crash leftovers: bind a socket, then close the fd without
  // unlinking — the filesystem entry stays but nothing accepts on it.
  const int orphan = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(orphan, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  ASSERT_EQ(::bind(orphan, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(orphan);

  obs::MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.socket_path = path;
  cfg.metrics = &metrics;
  ManagerServer server(cfg);
  EXPECT_TRUE(server.start());
  EXPECT_EQ(metrics.counter("server.faults.stale_sockets").value(), 1u);
  server.stop();
}

// ...but a *live* manager on the same path must not be displaced.
TEST_F(ManagerServerTest, LiveSocketIsNotStolen) {
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  ManagerServer first(cfg);
  ASSERT_TRUE(first.start());

  ManagerServer second(cfg);
  EXPECT_FALSE(second.start());

  // The incumbent still serves clients after the failed takeover.
  Client client;
  EXPECT_TRUE(client.connect(cfg.socket_path, "still-served", 1));
  client.unregister_worker();
  client.disconnect();
  first.stop();
}

// A client that dials in and never completes the handshake must not freeze
// the manager loop (SO_RCVTIMEO bound), and later clients are still served.
TEST_F(ManagerServerTest, HandshakeTimeoutDropsSlowClient) {
  obs::MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.metrics = &metrics;
  cfg.handshake_timeout_ms = 100;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());

  const int mute = raw_connect(cfg.socket_path);  // never sends HelloMsg
  ASSERT_GE(mute, 0);
  EXPECT_TRUE(eventually([&] {
    return metrics.counter("server.faults.handshake_timeouts").value() >= 1;
  }));
  EXPECT_EQ(server.connected_apps(), 0u);

  Client client;
  EXPECT_TRUE(client.connect(cfg.socket_path, "patient", 1));
  EXPECT_TRUE(eventually([&] { return server.connected_apps() == 1; }));
  client.unregister_worker();
  client.disconnect();
  ::close(mute);
  server.stop();
}

// An application whose leader thread died (tgkill -> ESRCH) while its
// socket — owned by the process, not the thread — stayed open must be
// reaped via the heartbeat-stall probe.
TEST_F(ManagerServerTest, DeadLeaderIsReaped) {
  obs::MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.manager.quantum_us = 40'000;
  cfg.metrics = &metrics;
  cfg.heartbeat_stall_intervals = 2;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());

  // Raw-protocol app whose leader thread exits right after Ready without
  // closing the socket and without any updater: its tid becomes invalid
  // while the connection (held by the process) lives on.
  int sock = -1;
  std::thread ghost([&] {
    SignalGate::instance().install();
    SignalGate::instance().register_current_thread();
    sock = raw_connect(cfg.socket_path);
    ASSERT_GE(sock, 0);
    HelloMsg hello{};
    hello.pid = ::getpid();
    hello.leader_tid = static_cast<std::int32_t>(::syscall(SYS_gettid));
    hello.nthreads = 1;
    std::strncpy(hello.name, "ghost", sizeof(hello.name) - 1);
    ASSERT_TRUE(send_msg(sock, MsgType::kHello, 0, &hello, sizeof(hello)));
    MsgHeader hdr{};
    HelloAck ack{};
    int arena_fd = -1;
    ASSERT_EQ(recv_msg(sock, hdr, &ack, sizeof(ack), &arena_fd),
              RecvStatus::kOk);
    if (arena_fd >= 0) ::close(arena_fd);
    ReadyMsg ready{};
    ASSERT_TRUE(
        send_msg(sock, MsgType::kReady, hdr.generation, &ready, sizeof(ready)));
    SignalGate::instance().unregister_current_thread();
  });
  ghost.join();  // the leader tid is now gone; `sock` is still open

  EXPECT_TRUE(eventually([&] {
    return metrics.counter("server.faults.dead_leaders").value() >= 1;
  }));
  EXPECT_TRUE(eventually([&] { return server.connected_apps() == 0; }));
  if (sock >= 0) ::close(sock);
  server.stop();
}

// Manager death must not leave application threads suspended forever: the
// updater notices the socket EOF, releases the signal gate, and the app
// reports itself unmanaged (free-running under the kernel scheduler).
TEST_F(ManagerServerTest, ManagerDeathReleasesApplication) {
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.manager.quantum_us = 40'000;
  auto server = std::make_unique<ManagerServer>(cfg);
  ASSERT_TRUE(server->start());

  Client client;
  ASSERT_TRUE(client.connect(cfg.socket_path, "orphaned", 1));
  ASSERT_TRUE(client.ready());
  EXPECT_FALSE(client.unmanaged());

  server->stop();  // the "crash": every app socket closes
  server.reset();
  EXPECT_TRUE(eventually([&] { return client.unmanaged(); }));
  EXPECT_TRUE(SignalGate::instance().released());

  client.unregister_worker();
  client.disconnect();
}

// Client::connect with a retry budget rides out a manager restart window.
TEST_F(ManagerServerTest, ConnectRetryRidesOutLateServerStart) {
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  ManagerServer server(cfg);

  std::thread late_start([&] {
    std::this_thread::sleep_for(120ms);
    ASSERT_TRUE(server.start());
  });

  ConnectRetry retry;
  retry.attempts = 20;
  retry.initial_backoff_us = 20'000;
  retry.max_backoff_us = 100'000;
  Client client;
  EXPECT_TRUE(client.connect(cfg.socket_path, "early-bird", 1, retry));
  EXPECT_GT(client.last_connect_retries(), 0);
  late_start.join();
  client.unregister_worker();
  client.disconnect();
  server.stop();
}

TEST_F(ManagerServerTest, ConnectRetryBudgetExhausts) {
  ConnectRetry retry;
  retry.attempts = 3;
  retry.initial_backoff_us = 1'000;
  retry.max_backoff_us = 2'000;
  Client client;
  EXPECT_FALSE(client.connect("/tmp/bbsched-no-such-socket.sock", "x", 1,
                              retry));
}

// A corrupt frame (wrong magic) on the handshake is counted as a bad
// message and dropped; the server keeps serving well-formed clients.
TEST_F(ManagerServerTest, CorruptHandshakeFrameIsCountedAndDropped) {
  obs::MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.metrics = &metrics;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());

  const int garbler = raw_connect(cfg.socket_path);
  ASSERT_GE(garbler, 0);
  MsgHeader bad{};
  bad.magic = 0x41414141;
  bad.type = static_cast<std::uint16_t>(MsgType::kHello);
  bad.payload_len = sizeof(HelloMsg);
  HelloMsg payload{};
  ASSERT_TRUE(send_all(garbler, &bad, sizeof(bad)));
  ASSERT_TRUE(send_all(garbler, &payload, sizeof(payload)));

  EXPECT_TRUE(eventually([&] {
    return metrics.counter("server.faults.bad_message").value() >= 1;
  }));
  EXPECT_EQ(server.connected_apps(), 0u);

  Client client;
  EXPECT_TRUE(client.connect(cfg.socket_path, "wellformed", 1));
  EXPECT_TRUE(eventually([&] { return server.connected_apps() == 1; }));
  client.unregister_worker();
  client.disconnect();
  ::close(garbler);
  server.stop();
}

// A Ready stamped with a stale generation (a pipeline from before a
// restart) must be rejected, not acted upon.
TEST_F(ManagerServerTest, CrossGenerationReadyIsRejected) {
  obs::MetricsRegistry metrics;
  ServerConfig cfg;
  cfg.socket_path = test_socket_path();
  cfg.metrics = &metrics;
  cfg.generation = 5;
  ManagerServer server(cfg);
  ASSERT_TRUE(server.start());

  const int sock = raw_connect(cfg.socket_path);
  ASSERT_GE(sock, 0);
  HelloMsg hello{};
  hello.pid = ::getpid();
  hello.leader_tid = static_cast<std::int32_t>(::syscall(SYS_gettid));
  hello.nthreads = 1;
  std::strncpy(hello.name, "time-traveler", sizeof(hello.name) - 1);
  ASSERT_TRUE(send_msg(sock, MsgType::kHello, 0, &hello, sizeof(hello)));
  MsgHeader hdr{};
  HelloAck ack{};
  int arena_fd = -1;
  ASSERT_EQ(recv_msg(sock, hdr, &ack, sizeof(ack), &arena_fd),
            RecvStatus::kOk);
  EXPECT_EQ(hdr.generation, 5u);
  if (arena_fd >= 0) ::close(arena_fd);

  // Ready from generation 4: the previous manager's epoch.
  ReadyMsg ready{};
  ASSERT_TRUE(send_msg(sock, MsgType::kReady, 4, &ready, sizeof(ready)));
  EXPECT_TRUE(eventually([&] {
    return metrics.counter("server.faults.bad_message").value() >= 1;
  }));
  // Rejected => the app never reached the manager's applications list.
  EXPECT_EQ(server.connected_apps(), 0u);
  ::close(sock);
  server.stop();
}

}  // namespace
}  // namespace bbsched::runtime
