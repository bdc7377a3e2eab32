// Supervised manager restart (docs/ROBUSTNESS.md §7).
//
// The CPU manager is a single point of failure: when it dies, every gated
// application free-runs (the client releases its signal gate on socket
// EOF) but nobody runs elections anymore. The Supervisor closes that gap:
// it forks the manager into a child process, babysits it, and restarts it
// when it crashes or hangs —
//
//   * crash  — the child exits abnormally (SIGKILL, abort, nonzero exit);
//     waitpid() reports it and the supervisor restarts after a jittered
//     exponential backoff.
//   * hang   — the child heartbeats the supervisor over a pipe once per
//     heartbeat_period_us; a SIGSTOPped or livelocked child misses
//     heartbeats, and after heartbeat_miss_limit misses the watchdog
//     SIGKILLs it and takes the crash path.
//   * storm  — a circuit breaker counts restarts inside a sliding window;
//     exceeding max_restarts trips it permanently (gave_up()): the manager
//     stays down and the applications keep free-running under the kernel
//     scheduler, which is the documented degraded mode.
//
// Each (re)start gets a fresh generation number, stamped into the child's
// ServerConfig and therefore into every protocol frame — reattaching
// clients learn it from HelloAck, and stale messages from a previous
// generation are rejected. With `server.journal_path` set, each generation
// restores its predecessor's learned state from the journal.
//
// Clean shutdown: stop() SIGTERMs the child, which stops its ManagerServer
// and exits 0; a zero exit status is never restarted.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>

#include "runtime/backoff.h"
#include "runtime/manager_server.h"

namespace bbsched::runtime {

struct SupervisorConfig {
  /// Configuration for every managed child. `generation` is overwritten
  /// per restart; set `journal_path` to carry state across generations.
  ServerConfig server{};

  /// Restart backoff (runtime/backoff.h); it returns to `initial_us` once
  /// a restarted child heartbeats.
  BackoffConfig backoff{50'000, 2'000'000, 0xba5eba11ULL};

  // ---- circuit breaker ----
  /// Restarts tolerated inside `breaker_window_us` before the supervisor
  /// gives up permanently (free-run forever). <= 0 disables the breaker.
  int max_restarts = 8;
  std::uint64_t breaker_window_us = 30'000'000;

  // ---- hang watchdog ----
  /// Child heartbeat period; the child writes one byte per period.
  std::uint64_t heartbeat_period_us = 50'000;
  /// Consecutive missed heartbeat periods before the child is declared
  /// hung and SIGKILLed. <= 0 disables the watchdog.
  int heartbeat_miss_limit = 20;

  /// Parent-side observability (non-owning). The monitor thread is the
  /// only writer of this tracer — do not share it with an in-process
  /// ManagerServer.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

class Supervisor {
 public:
  explicit Supervisor(const SupervisorConfig& cfg);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Forks generation 1 and starts the monitor thread. False if the first
  /// child could not be spawned.
  bool start();

  /// SIGTERMs the child (clean exit, no restart) and joins the monitor.
  /// Idempotent.
  void stop();

  // ---- introspection ----
  /// Generation of the most recently spawned child (1-based; 0 = never).
  [[nodiscard]] std::uint32_t generation() const noexcept {
    return generation_.load(std::memory_order_relaxed);
  }
  /// Restarts performed so far (first start excluded).
  [[nodiscard]] int restarts() const noexcept {
    return restarts_.load(std::memory_order_relaxed);
  }
  /// True once the circuit breaker tripped: the manager stays down.
  [[nodiscard]] bool gave_up() const noexcept {
    return gave_up_.load(std::memory_order_relaxed);
  }
  /// Pid of the current child; -1 when none is running.
  [[nodiscard]] pid_t child_pid() const noexcept {
    return child_pid_.load(std::memory_order_relaxed);
  }
  /// Failed fork() attempts during respawns. Each one pays a full backoff
  /// step and counts toward the circuit breaker, exactly like a crashed
  /// child — the respawn path never busy-loops on a fork that keeps
  /// failing (docs/ROBUSTNESS.md §9).
  [[nodiscard]] int fork_failures() const noexcept {
    return fork_failures_.load(std::memory_order_relaxed);
  }
  /// True while the current child reports journal-less operation via its
  /// heartbeat ('d' beats): the next restart will cold-start.
  [[nodiscard]] bool child_journal_degraded() const noexcept {
    return child_degraded_.load(std::memory_order_relaxed);
  }
  /// True while the monitor thread is running (manager alive or between
  /// restarts); false after stop() or after the breaker tripped.
  [[nodiscard]] bool supervising() const noexcept {
    return supervising_.load(std::memory_order_relaxed);
  }

  /// Sends `sig` to the current child (chaos hook: SIGKILL, SIGSTOP,
  /// SIGCONT). False when no child is running or kill() failed.
  bool kill_child(int sig) const;

 private:
  /// Forks one manager child; fills child_pid_ / heartbeat fd. False if
  /// fork failed.
  bool spawn_child();
  void monitor_loop();
  /// True when one more restart stays within the breaker budget.
  bool breaker_allows(std::uint64_t now_us);
  void close_heartbeat();

  SupervisorConfig cfg_;
  Backoff backoff_;

  std::thread monitor_;
  std::atomic<pid_t> child_pid_{-1};
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<int> restarts_{0};
  std::atomic<bool> gave_up_{false};
  std::atomic<bool> supervising_{false};
  std::atomic<int> fork_failures_{0};      ///< failed respawn fork() calls
  std::atomic<bool> child_degraded_{false}; ///< child heartbeats 'd'
  int heartbeat_fd_ = -1;  ///< read end; child owns the write end

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::deque<std::uint64_t> restart_times_us_;  ///< breaker window

  obs::Counter* m_restarts_ = nullptr;
  obs::Counter* m_watchdog_kills_ = nullptr;
  obs::Gauge* m_gave_up_ = nullptr;
  obs::Counter* m_fork_failures_ = nullptr;  ///< .recovery.fork_failures
  obs::Gauge* m_child_degraded_ = nullptr;   ///< .child_journal_degraded
};

}  // namespace bbsched::runtime
