// Tests for the block/unblock signal machinery (paper §4): suspension via
// SIGUSR1/SIGUSR2, the block-minus-unblock counting rule that tolerates
// signal inversion, and leader fan-out to sibling threads.
//
// These tests use real signals against real threads; assertions poll with
// generous deadlines so they stay robust on a loaded single-core CI box.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

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

struct Worker {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> work{0};
  std::atomic<int> slot{-1};
  std::thread thread;

  void start() {
    thread = std::thread([this] {
      slot.store(SignalGate::instance().register_current_thread());
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

class SignalGateTest : public ::testing::Test {
 protected:
  void SetUp() override { SignalGate::instance().install(); }
  void TearDown() override { SignalGate::instance().reset_for_tests(); }
};

TEST_F(SignalGateTest, BlockSuspendsUnblockResumes) {
  Worker w;
  w.start();
  auto& gate = SignalGate::instance();
  const int slot = w.slot.load();

  gate.signal_slot(slot, kBlockSignal);
  ASSERT_TRUE(eventually([&] { return gate.is_suspended(slot); }));

  const std::uint64_t frozen = w.work.load();
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(w.work.load(), frozen) << "suspended thread kept working";

  gate.signal_slot(slot, kUnblockSignal);
  ASSERT_TRUE(eventually([&] { return !gate.is_suspended(slot); }));
  ASSERT_TRUE(eventually([&] { return w.work.load() > frozen; }));
  EXPECT_EQ(gate.pending_blocks(slot), 0);

  w.join();
}

TEST_F(SignalGateTest, InvertedUnblockBeforeBlockDoesNotSuspend) {
  // The paper's rule: a thread blocks only when received blocks exceed
  // received unblocks — so an unblock arriving first cancels the pending
  // block instead of deadlocking the thread.
  Worker w;
  w.start();
  auto& gate = SignalGate::instance();
  const int slot = w.slot.load();

  gate.signal_slot(slot, kUnblockSignal);
  ASSERT_TRUE(eventually([&] { return gate.pending_blocks(slot) == -1; }));
  gate.signal_slot(slot, kBlockSignal);
  ASSERT_TRUE(eventually([&] { return gate.pending_blocks(slot) == 0; }));

  // The thread must keep making progress throughout.
  const std::uint64_t before = w.work.load();
  ASSERT_TRUE(eventually([&] { return w.work.load() > before; }));
  EXPECT_FALSE(gate.is_suspended(slot));

  w.join();
}

TEST_F(SignalGateTest, RepeatedBlockUnblockCycles) {
  Worker w;
  w.start();
  auto& gate = SignalGate::instance();
  const int slot = w.slot.load();

  for (int cycle = 0; cycle < 10; ++cycle) {
    gate.signal_slot(slot, kBlockSignal);
    ASSERT_TRUE(eventually([&] { return gate.is_suspended(slot); }))
        << "cycle " << cycle;
    gate.signal_slot(slot, kUnblockSignal);
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
  Worker w;
  w.start();
  auto& gate = SignalGate::instance();
  const int slot = w.slot.load();

  std::string failure;
  for (int pair = 0; pair < 10'000 && failure.empty(); ++pair) {
    gate.signal_slot(slot, kBlockSignal);
    if (!poll_until([&] { return gate.is_suspended(slot); }, 2s)) {
      failure = "pair " + std::to_string(pair) + " never suspended";
      break;
    }
    gate.signal_slot(slot, kUnblockSignal);
    if (!poll_until([&] { return !gate.is_suspended(slot); }, 2s)) {
      failure = "pair " + std::to_string(pair) + " lost its unblock";
    }
  }
  // A failed pair leaves the worker suspended; one more unblock frees it.
  if (!failure.empty()) gate.signal_slot(slot, kUnblockSignal);
  w.join();
  EXPECT_TRUE(failure.empty()) << failure;
}

TEST_F(SignalGateTest, LeaderForwardsBlockToSiblings) {
  // The manager signals one thread; that thread forwards to the rest
  // ("The CPU manager sends a signal to an application thread which, in
  //  turn, is responsible to forward the signal to the rest").
  Worker leader;
  leader.start();  // slot 0 = leader
  Worker sibling;
  sibling.start();
  auto& gate = SignalGate::instance();
  ASSERT_EQ(leader.slot.load(), 0);

  gate.signal_slot(0, kBlockSignal);
  ASSERT_TRUE(eventually([&] {
    return gate.is_suspended(0) && gate.is_suspended(sibling.slot.load());
  }));

  gate.signal_slot(0, kUnblockSignal);
  ASSERT_TRUE(eventually([&] {
    return !gate.is_suspended(0) && !gate.is_suspended(sibling.slot.load());
  }));

  leader.join();
  sibling.join();
}

TEST_F(SignalGateTest, UnregisteredThreadIgnoresSignals) {
  // The arena-updater thread is deliberately unregistered; stray signals
  // must not suspend it. We simulate by sending the *test* thread (also
  // unregistered) a block signal through a registered worker's handler
  // path being absent — i.e. raise() on ourselves.
  Worker w;  // occupy slot 0 so the gate is active
  w.start();
  ::raise(kBlockSignal);  // our own t_slot is -1: handler returns at once
  SUCCEED();
  w.join();
}

TEST_F(SignalGateTest, ReleaseFreesSuspendedThreadsAndRearmRestores) {
  // Manager-death path (docs/ROBUSTNESS.md): release_all() wakes every
  // suspended thread and neutralises further block signals, so an orphaned
  // application free-runs; rearm() restores normal gating for reconnect.
  Worker w;
  w.start();
  auto& gate = SignalGate::instance();
  const int slot = w.slot.load();

  gate.signal_slot(slot, kBlockSignal);
  ASSERT_TRUE(eventually([&] { return gate.is_suspended(slot); }));

  gate.release_all();
  EXPECT_TRUE(gate.released());
  ASSERT_TRUE(eventually([&] { return !gate.is_suspended(slot); }));
  const std::uint64_t before = w.work.load();
  ASSERT_TRUE(eventually([&] { return w.work.load() > before; }));

  // While released, block signals are no-ops: the thread keeps running.
  gate.signal_slot(slot, kBlockSignal);
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(gate.is_suspended(slot));
  const std::uint64_t mid = w.work.load();
  ASSERT_TRUE(eventually([&] { return w.work.load() > mid; }));

  // Rearm: gating works again as if freshly connected.
  gate.rearm();
  EXPECT_FALSE(gate.released());
  gate.signal_slot(slot, kBlockSignal);
  ASSERT_TRUE(eventually([&] { return gate.is_suspended(slot); }));
  gate.signal_slot(slot, kUnblockSignal);
  ASSERT_TRUE(eventually([&] { return !gate.is_suspended(slot); }));

  w.join();
}

TEST_F(SignalGateTest, LeaderTidRecorded) {
  Worker w;
  w.start();
  EXPECT_GT(SignalGate::instance().leader_tid(), 0);
  EXPECT_EQ(SignalGate::instance().registered(), 1);
  w.join();
}

}  // namespace
}  // namespace bbsched::runtime
