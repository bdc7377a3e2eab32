// Tests for the block/unblock signal machinery (paper §4): suspension via
// SIGUSR1/SIGUSR2 while the arena's run-state word says blocked, which
// tolerates signal inversion and coalescing, and each client's leader
// fanning signals out to its own sibling threads.
//
// These tests use real signals against real threads; assertions poll with
// generous deadlines so they stay robust on a loaded single-core CI box.
// Every worker obeys an arena word, as a runtime::Client's threads do.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include "runtime/signal_gate.h"

namespace bbsched::runtime {
namespace {

using namespace std::chrono_literals;

/// Spins until `pred` holds or ~2 s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

/// Busy-polls `pred` until it holds or `limit` passes. It never sleeps: the
/// race the caller probes is microseconds wide.
template <typename Pred>
bool poll_until(Pred pred, std::chrono::steady_clock::duration limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
  return true;
}

/// One client's side of the run state: its arena and the pointer the gate
/// reads it through, as runtime::Client holds them.
struct Intent {
  Arena arena;
  std::atomic<Arena*> ptr{&arena};

  void set(std::uint32_t state) {
    arena.run_state.store(state, std::memory_order_release);
  }

  /// Writes `state`, then signals the thread in `slot` to read it, as
  /// ManagerServer::set_blocked does.
  void send(int slot, std::uint32_t state) {
    set(state);
    SignalGate::instance().signal_slot(
        slot, state == Arena::kBlocked ? kBlockSignal : kUnblockSignal);
  }
};

struct Worker {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> work{0};
  std::atomic<pid_t> tid{0};
  std::atomic<int> slot{-1};
  std::thread thread;

  /// The worker obeys `intent`.
  void start(Intent& intent) {
    thread = std::thread([this, &intent] {
      tid.store(static_cast<pid_t>(::syscall(SYS_gettid)));
      slot.store(SignalGate::instance().register_current_thread(&intent.ptr));
      while (!stop.load(std::memory_order_relaxed)) {
        work.fetch_add(1, std::memory_order_relaxed);
      }
      SignalGate::instance().unregister_current_thread();
    });
    while (slot.load() < 0) std::this_thread::sleep_for(1ms);
  }

  void join() {
    stop.store(true);
    thread.join();
  }
};

/// True while a block or unblock signal waits for thread `tid` of this
/// process: its SigPnd mask in /proc/self/task/<tid>/status. A signal
/// leaves the mask when its handler starts.
bool gate_signal_pending(pid_t tid) {
  std::ifstream status("/proc/self/task/" + std::to_string(tid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("SigPnd:", 0) != 0) continue;
    const unsigned long long mask = std::stoull(line.substr(7), nullptr, 16);
    return ((mask >> (kBlockSignal - 1)) & 1) != 0 ||
           ((mask >> (kUnblockSignal - 1)) & 1) != 0;
  }
  return true;  // unreadable: never reads as delivered
}

class SignalGateTest : public ::testing::Test {
 protected:
  void SetUp() override { SignalGate::instance().install(); }
  void TearDown() override { SignalGate::instance().reset_for_tests(); }

  /// Asserts that every signal sent to `w` has reached its handler, and
  /// that `w` then keeps working: a handler that suspended it would
  /// freeze the count for good.
  static void expect_keeps_running(const Worker& w) {
    ASSERT_TRUE(eventually([&] { return !gate_signal_pending(w.tid); }));
    const std::uint64_t before = w.work.load();
    ASSERT_TRUE(eventually([&] { return w.work.load() > before; }));
    EXPECT_FALSE(SignalGate::instance().is_suspended(w.slot));
  }
};

TEST_F(SignalGateTest, BlockSuspendsUnblockResumes) {
  Intent intent;
  Worker w;
  w.start(intent);
  auto& gate = SignalGate::instance();
  const int slot = w.slot.load();

  intent.send(slot, Arena::kBlocked);
  ASSERT_TRUE(eventually([&] { return gate.is_suspended(slot); }));

  const std::uint64_t frozen = w.work.load();
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(w.work.load(), frozen) << "suspended thread kept working";

  intent.send(slot, Arena::kRun);
  ASSERT_TRUE(eventually([&] { return !gate.is_suspended(slot); }));
  ASSERT_TRUE(eventually([&] { return w.work.load() > frozen; }));

  w.join();
}

TEST_F(SignalGateTest, InvertedUnblockBeforeBlockDoesNotSuspend) {
  // The manager blocked and then unblocked the client, but the unblock
  // signal arrives first. The late block finds the word at "run" and must
  // not suspend the thread, or it would sleep until the next flip.
  Intent intent;
  Worker w;
  w.start(intent);
  auto& gate = SignalGate::instance();
  const int slot = w.slot.load();

  intent.set(Arena::kBlocked);
  intent.set(Arena::kRun);
  gate.signal_slot(slot, kUnblockSignal);
  gate.signal_slot(slot, kBlockSignal);
  expect_keeps_running(w);

  w.join();
}

TEST_F(SignalGateTest, RepeatedBlockUnblockCycles) {
  Intent intent;
  Worker w;
  w.start(intent);
  auto& gate = SignalGate::instance();
  const int slot = w.slot.load();

  for (int cycle = 0; cycle < 10; ++cycle) {
    intent.send(slot, Arena::kBlocked);
    ASSERT_TRUE(eventually([&] { return gate.is_suspended(slot); }))
        << "cycle " << cycle;
    intent.send(slot, Arena::kRun);
    ASSERT_TRUE(eventually([&] { return !gate.is_suspended(slot); }))
        << "cycle " << cycle;
  }
  const std::uint64_t before = w.work.load();
  ASSERT_TRUE(eventually([&] { return w.work.load() > before; }));
  w.join();
}

TEST_F(SignalGateTest, UnblockRacingSuspensionIsNeverLost) {
  // The suspended flag rises just before sigsuspend, so an unblock sent the
  // instant it flips can land between the gate's loop check and the
  // sigsuspend call. That unblock must stay pending until sigsuspend
  // unmasks it; a lost one leaves the thread asleep until the next signal.
  Intent intent;
  Worker w;
  w.start(intent);
  auto& gate = SignalGate::instance();
  const int slot = w.slot.load();

  std::string failure;
  for (int pair = 0; pair < 10'000 && failure.empty(); ++pair) {
    intent.send(slot, Arena::kBlocked);
    if (!poll_until([&] { return gate.is_suspended(slot); }, 2s)) {
      failure = "pair " + std::to_string(pair) + " never suspended";
      break;
    }
    intent.send(slot, Arena::kRun);
    if (!poll_until([&] { return !gate.is_suspended(slot); }, 2s)) {
      failure = "pair " + std::to_string(pair) + " lost its unblock";
    }
  }
  // A failed pair leaves the worker suspended; one more unblock frees it.
  if (!failure.empty()) intent.send(slot, Arena::kRun);
  w.join();
  EXPECT_TRUE(failure.empty()) << failure;
}

TEST_F(SignalGateTest, LeaderForwardsBlockToSiblings) {
  // The manager signals one thread; that thread forwards to the rest
  // ("The CPU manager sends a signal to an application thread which, in
  //  turn, is responsible to forward the signal to the rest").
  Intent intent;
  Worker leader, sibling;
  leader.start(intent);  // the client's first registered thread
  sibling.start(intent);
  auto& gate = SignalGate::instance();

  intent.send(leader.slot, Arena::kBlocked);
  ASSERT_TRUE(eventually([&] {
    return gate.is_suspended(leader.slot) && gate.is_suspended(sibling.slot);
  }));

  intent.send(leader.slot, Arena::kRun);
  ASSERT_TRUE(eventually([&] {
    return !gate.is_suspended(leader.slot) && !gate.is_suspended(sibling.slot);
  }));

  leader.join();
  sibling.join();
}

TEST_F(SignalGateTest, SiblingThatRanOnAPassingRunIsBlockedAgain) {
  // With both threads suspended, the manager writes run and then blocked
  // again. The sibling woke in between and ran; the leader wakes only
  // after the second write and stays in its handler, where the manager's
  // block to it stays masked. The leader itself must block the sibling
  // again, or the sibling runs through a quantum the client lost.
  Intent intent;
  Worker leader, sibling;
  leader.start(intent);
  sibling.start(intent);
  auto& gate = SignalGate::instance();

  intent.send(leader.slot, Arena::kBlocked);
  ASSERT_TRUE(eventually([&] {
    return gate.is_suspended(leader.slot) && gate.is_suspended(sibling.slot);
  }));
  intent.send(sibling.slot, Arena::kRun);  // the sibling sees the run
  const std::uint64_t before = sibling.work.load();
  ASSERT_TRUE(eventually([&] { return sibling.work.load() > before; }));
  intent.send(leader.slot, Arena::kBlocked);
  gate.signal_slot(leader.slot, kUnblockSignal);  // the leader wakes late
  EXPECT_TRUE(eventually([&] { return gate.is_suspended(sibling.slot); }))
      << "the sibling kept running while its client was blocked";

  intent.send(leader.slot, Arena::kRun);
  gate.signal_slot(sibling.slot, kUnblockSignal);
  ASSERT_TRUE(eventually([&] {
    return !gate.is_suspended(leader.slot) && !gate.is_suspended(sibling.slot);
  }));
  leader.join();
  sibling.join();
}

TEST_F(SignalGateTest, BlockingOneClientLeavesAnotherClientsWorkerRunning) {
  // Two clients in one process: the first client's leader forwards its
  // block to its own sibling only, never to the second client's worker.
  Intent first_intent, second_intent;
  Worker leader, sibling, other;
  leader.start(first_intent);
  sibling.start(first_intent);
  other.start(second_intent);
  auto& gate = SignalGate::instance();

  first_intent.send(leader.slot, Arena::kBlocked);
  ASSERT_TRUE(eventually([&] {
    return gate.is_suspended(leader.slot) && gate.is_suspended(sibling.slot);
  }));
  const std::uint64_t before = other.work.load();
  ASSERT_TRUE(eventually([&] { return other.work.load() > before; }));
  EXPECT_FALSE(gate.is_suspended(other.slot));

  first_intent.send(leader.slot, Arena::kRun);
  ASSERT_TRUE(eventually([&] {
    return !gate.is_suspended(leader.slot) && !gate.is_suspended(sibling.slot);
  }));
  EXPECT_FALSE(gate.is_suspended(other.slot));

  leader.join();
  sibling.join();
  other.join();
}

TEST_F(SignalGateTest, UnregisteredThreadIgnoresSignals) {
  // The arena-updater thread is deliberately unregistered; stray signals
  // must not suspend it. We simulate by sending the *test* thread (also
  // unregistered) a block signal through a registered worker's handler
  // path being absent — i.e. raise() on ourselves.
  Intent intent;
  Worker w;  // occupy slot 0 so the gate is active
  w.start(intent);
  ::raise(kBlockSignal);  // our own t_slot is -1: handler returns at once
  SUCCEED();
  w.join();
}

TEST_F(SignalGateTest, ReleaseFreesSuspendedThreadsAndRearmRestores) {
  // Manager-death path (docs/ROBUSTNESS.md): release_all() wakes every
  // suspended thread and neutralises further block signals, so an orphaned
  // application free-runs; rearm() restores normal gating for reconnect.
  Intent intent;
  Worker w;
  w.start(intent);
  auto& gate = SignalGate::instance();
  const int slot = w.slot.load();

  intent.send(slot, Arena::kBlocked);
  ASSERT_TRUE(eventually([&] { return gate.is_suspended(slot); }));

  gate.release_all();
  EXPECT_TRUE(gate.released());
  ASSERT_TRUE(eventually([&] { return !gate.is_suspended(slot); }));
  const std::uint64_t before = w.work.load();
  ASSERT_TRUE(eventually([&] { return w.work.load() > before; }));

  // While released, block signals are no-ops: the thread keeps running.
  intent.send(slot, Arena::kBlocked);
  expect_keeps_running(w);

  // Rearm: gating works again as if freshly connected.
  gate.rearm();
  EXPECT_FALSE(gate.released());
  intent.send(slot, Arena::kBlocked);
  ASSERT_TRUE(eventually([&] { return gate.is_suspended(slot); }));
  intent.send(slot, Arena::kRun);
  ASSERT_TRUE(eventually([&] { return !gate.is_suspended(slot); }));

  w.join();
}

/// True when thread `tid` of process `pid` sleeps interruptibly ('S' in
/// /proc/<pid>/task/<tid>/stat). A gate worker sleeps only in sigsuspend.
bool thread_sleeping(pid_t pid, pid_t tid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/task/" +
                           std::to_string(tid) + "/stat";
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  char buf[512];
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return false;
  buf[n] = '\0';
  // The state follows the ')' that closes the command name.
  const char* p = std::strrchr(buf, ')');
  return p != nullptr && p[1] == ' ' && p[2] == 'S';
}

/// What the test and its forked client share: the client's arena, the
/// worker's tid and the count the worker bumps while it runs.
struct SharedClient {
  Arena arena;
  std::atomic<pid_t> tid{0};
  std::atomic<std::uint64_t> work{0};
};

/// A client process with one running worker that obeys `shared.arena`;
/// killed and reaped on destruction.
struct ForkedClient {
  pid_t pid = -1;

  explicit ForkedClient(SharedClient& shared) {
    shared.arena.run_state.store(Arena::kRun);
    shared.tid.store(0);
    std::fflush(stdout);
    pid = ::fork();
    if (pid != 0) return;
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    SignalGate::instance().reset_for_tests();
    // The child never returns from here: the test kills it.
    std::atomic<Arena*> arena{&shared.arena};
    std::thread worker([&shared, &arena] {
      SignalGate::instance().register_current_thread(&arena);
      shared.tid.store(static_cast<pid_t>(::syscall(SYS_gettid)));
      for (;;) shared.work.fetch_add(1, std::memory_order_relaxed);
    });
    for (;;) ::pause();
  }
  ~ForkedClient() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  ForkedClient(const ForkedClient&) = delete;
  ForkedClient& operator=(const ForkedClient&) = delete;
};

TEST_F(SignalGateTest, EveryFlipSequenceEndsInItsLastIntent) {
  // The manager writes each intent and then signals the client's worker.
  // With the client stopped, every flip sequence of length 1-4 arrives at
  // once, its repeated signals coalesced and B (SIGUSR1) delivered before
  // U. Whatever arrives, the worker must end suspended exactly when the
  // last intent was B, from either start state. Each case gets a fresh
  // client, so a failed one cannot skew the next.
  void* mem = ::mmap(nullptr, sizeof(SharedClient), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  SharedClient& shared = *new (mem) SharedClient();

  std::vector<std::string> failed;
  int cases = 0;
  for (const bool start_blocked : {false, true}) {
    for (int len = 1; len <= 4; ++len) {
      for (int bits = 0; bits < (1 << len); ++bits) {
        std::string name = start_blocked ? "blocked:" : "running:";
        for (int i = 0; i < len; ++i) name += (bits >> i) & 1 ? 'B' : 'U';
        ++cases;
        ForkedClient client(shared);
        ASSERT_GT(client.pid, 0);
        ASSERT_TRUE(eventually([&] { return shared.tid.load() != 0; }));
        const pid_t tid = shared.tid.load();

        auto send = [&](std::uint32_t state) {
          shared.arena.run_state.store(state, std::memory_order_release);
          ::syscall(SYS_tgkill, client.pid, tid,
                    state == Arena::kBlocked ? kBlockSignal : kUnblockSignal);
        };
        // Running: the count moves. Suspended: asleep, the count frozen.
        auto settles = [&](bool blocked) {
          if (!blocked) {
            const std::uint64_t before = shared.work.load();
            return eventually([&] { return shared.work.load() > before; });
          }
          return eventually([&] {
            const std::uint64_t before = shared.work.load();
            if (!thread_sleeping(client.pid, tid)) return false;
            std::this_thread::sleep_for(2ms);
            return thread_sleeping(client.pid, tid) &&
                   shared.work.load() == before;
          });
        };

        if (start_blocked) send(Arena::kBlocked);
        ASSERT_TRUE(settles(start_blocked)) << name << " start state";
        int status = 0;
        ASSERT_EQ(::kill(client.pid, SIGSTOP), 0);
        ASSERT_EQ(::waitpid(client.pid, &status, WUNTRACED), client.pid);
        ASSERT_TRUE(WIFSTOPPED(status));
        for (int i = 0; i < len; ++i) {
          send((bits >> i) & 1 ? Arena::kBlocked : Arena::kRun);
        }
        ASSERT_EQ(::kill(client.pid, SIGCONT), 0);
        if (!settles((bits >> (len - 1)) & 1)) failed.push_back(name);
      }
    }
  }
  ::munmap(mem, sizeof(SharedClient));
  EXPECT_EQ(cases, 60);
  std::string list;
  for (const auto& name : failed) list += " " + name;
  EXPECT_TRUE(failed.empty()) << failed.size() << " of " << cases
                              << " sequences ended against their last "
                                 "intent:"
                              << list;
}

}  // namespace
}  // namespace bbsched::runtime
