// Block / unblock of application threads via standard UNIX signals (paper
// §4), with the run state held in the shared arena:
//
//  * the manager writes the application's intent (Arena::run_state) and
//    then sends SIGUSR1 (block) or SIGUSR2 (unblock) to ONE application
//    thread, the client's first registered thread; its handler forwards
//    the signal to the client's other registered threads, and repeats the
//    block each time it wakes to find the client still blocked;
//  * a signal only tells a thread to re-read the intent: the thread stays
//    suspended while its client's arena says blocked. Standard signals
//    coalesce, so the paper's rule of counting blocks against unblocks can
//    lose a flip; the intent cannot, and a block delivered after a later
//    unblock still finds "run" and does not suspend;
//  * suspension happens inside the signal handler via sigsuspend, which
//    atomically unmasks the unblock signal (masked while the intent is
//    checked), so an unblock always wakes the thread and the intent is
//    re-checked.
//
// A thread registered without a client obeys a word the gate owns, which
// each signal the thread receives sets to that signal's intent.
//
// Everything touched from handlers is a lock-free atomic or an
// async-signal-safe call (pthread_kill, sigsuspend).
#pragma once

#include <atomic>
#include <csignal>
#include <cstdint>
#include <pthread.h>

#include "runtime/arena.h"

namespace bbsched::runtime {

inline constexpr int kBlockSignal = SIGUSR1;
inline constexpr int kUnblockSignal = SIGUSR2;

/// Process-wide gate. Intended use: SignalGate::instance().install() once,
/// then each worker thread calls register_current_thread().
class SignalGate {
 public:
  static constexpr int kMaxThreads = 128;

  static SignalGate& instance();

  /// Installs the SIGUSR1/SIGUSR2 handlers (idempotent).
  void install();

  /// Registers the calling thread (moving it if it already held a slot);
  /// returns its slot. The thread obeys the run state of the arena that
  /// `*arena` points to when the signal arrives, so a client that swaps in
  /// a fresh arena needs no re-registration; a null `*arena` reads as run.
  /// The first registered thread of an `arena` forwards each signal to the
  /// others. Without `arena` the thread obeys the gate's own word.
  int register_current_thread(const std::atomic<Arena*>* arena = nullptr);

  /// Removes the calling thread from forwarding (on worker exit).
  void unregister_current_thread();

  /// True while the thread owning `slot` is suspended in the handler.
  [[nodiscard]] bool is_suspended(int slot) const {
    return suspended_[slot].load(std::memory_order_relaxed);
  }

  /// Sends a block/unblock signal to a thread of THIS process by slot
  /// (used by in-process tests; the real manager uses tgkill on the leader).
  void signal_slot(int slot, int signo);

  /// Disengages the gate: wakes every suspended thread and makes further
  /// block intents no-ops, so the application free-runs under the kernel
  /// scheduler. The client library calls this when it detects the manager
  /// died (docs/ROBUSTNESS.md) — a crashed manager must never leave an
  /// application suspended forever. Call rearm() when a (new) manager
  /// takes over.
  void release_all();

  /// Re-engages a released gate (e.g. after reconnecting to a restarted
  /// manager). A thread suspends again only at its next signal.
  void rearm() { released_.store(false, std::memory_order_release); }

  /// True while the gate is disengaged (application free-running).
  [[nodiscard]] bool released() const {
    return released_.load(std::memory_order_relaxed);
  }

  /// Testing hook: clears all registration state. Only safe when no thread
  /// is suspended.
  void reset_for_tests();

 private:
  SignalGate() = default;

  static void handle(int signo);
  void on_signal(int slot, int signo);
  void forward(int slot, const std::atomic<Arena*>* arena, int signo);
  [[nodiscard]] bool blocked(const std::atomic<Arena*>* arena) const;

  std::atomic<int> nthreads_{0};
  pthread_t handles_[kMaxThreads] = {};
  std::atomic<bool> active_[kMaxThreads] = {};
  /// Per slot, the client's arena pointer the thread obeys (null: the
  /// gate's own word).
  std::atomic<const std::atomic<Arena*>*> arenas_[kMaxThreads] = {};
  std::atomic<bool> suspended_[kMaxThreads] = {};
  /// Run state of the threads registered without an arena.
  std::atomic<std::uint32_t> own_state_{Arena::kRun};
  std::atomic<bool> installed_{false};
  std::atomic<bool> released_{false};  ///< gate disengaged (free-run mode)
};

}  // namespace bbsched::runtime
