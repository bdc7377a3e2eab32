// Block / unblock of application threads via standard UNIX signals, exactly
// as the paper's CPU manager does it (§4):
//
//  * the manager sends SIGUSR1 (block) or SIGUSR2 (unblock) to ONE
//    application thread (the leader); the leader's handler forwards the
//    signal to the rest of the registered threads;
//  * a thread suspends only while (received blocks) > (received unblocks) —
//    the paper's counting rule that tolerates inversion of block/unblock
//    delivery when quanta are short;
//  * suspension happens inside the signal handler via sigsuspend, which
//    atomically unmasks the unblock signal (masked while the condition is
//    checked), so an unblock always wakes the thread and the condition is
//    re-checked.
//
// Everything touched from handlers is a lock-free atomic or an
// async-signal-safe call (pthread_kill, sigsuspend).
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <pthread.h>

namespace bbsched::runtime {

inline constexpr int kBlockSignal = SIGUSR1;
inline constexpr int kUnblockSignal = SIGUSR2;

/// Process-wide gate. Intended use: SignalGate::instance().install() once,
/// then each worker thread calls register_current_thread(); the first
/// registered thread is the leader.
class SignalGate {
 public:
  static constexpr int kMaxThreads = 128;

  static SignalGate& instance();

  /// Installs the SIGUSR1/SIGUSR2 handlers (idempotent).
  void install();

  /// Registers the calling thread; returns its slot. The first registered
  /// thread becomes the leader (signal forwarding fan-out point).
  int register_current_thread();

  /// Removes the calling thread from forwarding (on worker exit).
  void unregister_current_thread();

  /// Blocks received minus unblocks received for `slot` (tests/diagnostics).
  [[nodiscard]] int pending_blocks(int slot) const {
    return blocks_[slot].load(std::memory_order_relaxed) -
           unblocks_[slot].load(std::memory_order_relaxed);
  }

  /// True while the thread owning `slot` is suspended in the handler.
  [[nodiscard]] bool is_suspended(int slot) const {
    return suspended_[slot].load(std::memory_order_relaxed);
  }

  [[nodiscard]] int registered() const {
    return nthreads_.load(std::memory_order_relaxed);
  }

  /// Kernel tid of the leader (what the manager should signal), or 0.
  [[nodiscard]] pid_t leader_tid() const {
    return leader_tid_.load(std::memory_order_relaxed);
  }

  /// Sends a block/unblock intent to a thread of THIS process by slot
  /// (used by in-process tests; the real manager uses tgkill on the leader).
  void signal_slot(int slot, int signo);

  /// Disengages the gate: wakes every suspended thread and makes further
  /// block intents no-ops, so the application free-runs under the kernel
  /// scheduler. The client library calls this when it detects the manager
  /// died (docs/ROBUSTNESS.md) — a crashed manager must never leave an
  /// application suspended forever. Signal-count state is untouched; call
  /// rearm() when a (new) manager takes over.
  void release_all();

  /// Re-engages a released gate (e.g. after reconnecting to a restarted
  /// manager). Squares each slot's block/unblock counts so stale history
  /// cannot re-suspend a thread. Only call while no manager is signaling.
  void rearm();

  /// True while the gate is disengaged (application free-running).
  [[nodiscard]] bool released() const {
    return released_.load(std::memory_order_relaxed);
  }

  /// Testing hook: clears all registration state. Only safe when no thread
  /// is suspended.
  void reset_for_tests();

 private:
  SignalGate() = default;

  static void handle_block(int signo);
  static void handle_unblock(int signo);
  void on_block();
  void on_unblock();
  void forward(int signo);
  [[nodiscard]] int slot_of_self() const;

  std::atomic<int> nthreads_{0};
  std::atomic<pid_t> leader_tid_{0};
  pthread_t handles_[kMaxThreads] = {};
  std::atomic<bool> active_[kMaxThreads] = {};
  std::atomic<int> blocks_[kMaxThreads] = {};
  std::atomic<int> unblocks_[kMaxThreads] = {};
  std::atomic<bool> suspended_[kMaxThreads] = {};
  std::atomic<bool> installed_{false};
  std::atomic<bool> released_{false};  ///< gate disengaged (free-run mode)
};

}  // namespace bbsched::runtime
