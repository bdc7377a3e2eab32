// Application-side runtime library (paper §4):
//
// "A run-time library which accompanies the CPU manager offers all the
//  necessary functionality for the cooperation between the CPU manager and
//  applications. The modifications required to the source code of
//  applications are limited to the addition of calls for connection and
//  disconnection and to the interception of thread creation and
//  destruction."
//
// Usage from an application:
//   Client client;
//   client.connect(socket_path, "myapp", nthreads);   // leader thread
//   ... each worker thread: client.register_worker(); ...
//   client.ready();                                    // all registered
//   ... workers call client.credit(slot, n) as they issue memory traffic ...
//   client.disconnect();
//
// The client starts an updater thread that publishes the accumulated
// transaction counts to the shared arena at the period the manager
// requested (twice per scheduling quantum). The updater thread is not
// registered with the signal gate, so it keeps publishing even while the
// workers are blocked — matching the paper's arena semantics.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfctr/software_counters.h"
#include "runtime/arena.h"
#include "runtime/backoff.h"

namespace bbsched::runtime {

/// Retry budget for Client::connect: `attempts` tries (1 = single shot)
/// with the runtime's jittered backoff between them.
struct ConnectRetry {
  int attempts = 1;
  BackoffConfig backoff{};
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to the manager. Must be called by the application's leader
  /// thread (the thread the manager will signal); it is registered as
  /// worker 0 automatically. Returns false if the manager is unreachable.
  bool connect(const std::string& socket_path, const std::string& name,
               int nthreads);

  /// connect() with a retry budget: failed attempts back off exponentially
  /// (jittered) until one succeeds or the budget is spent. Use when racing
  /// a manager restart instead of hand-rolled sleep loops.
  bool connect(const std::string& socket_path, const std::string& name,
               int nthreads, const ConnectRetry& retry);

  /// Registers the calling thread as a worker (signal gate + counter slot):
  /// it then obeys the run state the manager writes into this client's
  /// arena. Returns the thread's counter slot. Call once per worker thread,
  /// and unregister it before the Client is destroyed.
  int register_worker();

  /// Removes the calling thread from signal forwarding. Call from the
  /// worker thread right before it exits (the paper's "interception of
  /// thread destruction").
  void unregister_worker();

  /// Credits `n` bus transactions to worker `slot`.
  void credit(int slot, std::uint64_t n) {
    perfctr::global_counters().add(slot, n);
  }

  /// Announces that all `nthreads` workers are registered; the manager may
  /// start blocking/unblocking this application.
  bool ready();

  /// Stops the updater and closes the connection.
  void disconnect();

  /// Arms automatic reattach: when the updater detects the manager's death
  /// it releases the signal gate (free-run), then retries the connection
  /// under `retry`'s jittered-backoff budget, sending kReattach so the new
  /// manager generation adopts this application's journaled feed state.
  /// On success the gate is re-armed and the workers come back under gang
  /// gating — no thread restarts. Budget exhausted => permanent free-run.
  /// Call before ready(). attempts <= 0 disables (the default).
  void set_reattach(const ConnectRetry& retry) { reattach_ = retry; }

  /// Manager generation this client is attached to (learned from HelloAck;
  /// bumps after every successful reattach).
  [[nodiscard]] std::uint32_t generation() const noexcept {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Successful reattaches to a restarted manager so far.
  [[nodiscard]] int reattaches() const noexcept {
    return reattaches_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool connected() const noexcept {
    return sock_.load(std::memory_order_relaxed) >= 0;
  }

  /// True once the updater detected the manager's death (socket EOF). The
  /// signal gate has then been released: the application free-runs under
  /// the kernel scheduler instead of staying suspended forever.
  [[nodiscard]] bool unmanaged() const noexcept {
    return unmanaged_.load(std::memory_order_relaxed);
  }

  /// Failed attempts before the last successful connect() (0 = first try).
  [[nodiscard]] int last_connect_retries() const noexcept {
    return last_connect_retries_;
  }

  /// HelloNackReason (as int) from the manager's most recent typed
  /// rejection of this client; 0 = never refused. Lets a refused client
  /// distinguish "server full / rate limited, retry later" from "my hello
  /// is broken" (see protocol.h).
  [[nodiscard]] std::int32_t last_nack_reason() const noexcept {
    return last_nack_reason_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t update_period_us() const noexcept {
    return update_period_us_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const Arena* arena() const noexcept {
    return arena_.load(std::memory_order_relaxed);
  }

  /// Sum of all registered workers' counters (what the updater publishes).
  [[nodiscard]] std::uint64_t total_transactions() const;

  /// Counter slot of the leader (the thread that called connect()); -1
  /// before connecting.
  [[nodiscard]] int leader_counter_slot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return counter_slots_.empty() ? -1 : counter_slots_.front();
  }

 private:
  void updater_loop();
  /// One reattach attempt from the updater thread: reconnect, kReattach
  /// handshake, arena remap, kReady, gate re-arm. False leaves the client
  /// free-running with its previous state intact.
  bool try_reattach();
  /// Sleeps `us` in small slices, aborting early when disconnect() asked
  /// the updater to stop. Returns false on stop.
  bool interruptible_sleep_us(std::uint64_t us);

  // sock_ / arena_ / update_period_us_ are atomics because the updater
  // thread swaps them during a reattach while other threads read them
  // through the accessors above.
  std::atomic<int> sock_{-1};
  std::atomic<Arena*> arena_{nullptr};
  /// Every arena this client mapped. Only the destructor unmaps them: a
  /// worker's signal handler may still be reading one that a reattach or
  /// disconnect() swapped out. Written by connect() and the updater, never
  /// both at once.
  std::vector<Arena*> mapped_;
  std::atomic<std::uint64_t> update_period_us_{0};
  int nthreads_ = 0;

  // Connection identity, kept for reattach (the manager must keep
  // signalling the original leader tid — the workers never restart).
  std::string socket_path_;
  std::string name_;
  std::int32_t leader_tid_ = 0;
  std::atomic<std::uint32_t> generation_{0};
  ConnectRetry reattach_{.attempts = 0};
  std::atomic<int> reattaches_{0};

  mutable std::mutex mu_;
  std::vector<int> counter_slots_;

  std::thread updater_;
  std::atomic<bool> stop_updater_{false};
  std::atomic<bool> unmanaged_{false};
  int last_connect_retries_ = 0;
  std::atomic<std::int32_t> last_nack_reason_{0};
};

}  // namespace bbsched::runtime
