// The user-level CPU manager as a real server (paper §4).
//
// "The user-level CPU manager runs as a server process on the target
//  system. Each application that wishes to use the new scheduling policies
//  sends a 'connection' message to the CPU manager (through a standard
//  UNIX-socket). The CPU manager responds ... by creating a shared arena
//  ... It also informs the application how often the bus transaction rate
//  information on the shared-arena is expected to be updated."
//
// This class implements exactly that: a UNIX-domain socket server that hands
// each application a shared-memory arena (memfd over SCM_RIGHTS), samples
// the arenas twice per scheduling quantum, feeds core::CpuManager, and
// enforces its elections by sending SIGUSR1/SIGUSR2 to application leader
// threads (which forward to their siblings — see signal_gate.h).
//
// It can manage any process that links the client library; the examples run
// it in-process against worker threads, which exercises the identical code
// path (signals, arenas and sockets behave the same within one process).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>

#include "core/cpu_manager.h"
#include "obs/tracer.h"
#include "runtime/arena.h"
#include "runtime/protocol.h"

namespace bbsched::runtime {

struct ServerConfig {
  core::ManagerConfig manager{};
  std::string socket_path = "/tmp/bbsched-manager.sock";
  /// Processors to allocate (defaults to the host's online CPUs).
  int nprocs = 0;
  /// Optional structured event tracer (non-owning). The manager thread is
  /// the only writer; export the trace after stop(). Timestamps are
  /// monotonic wall-clock microseconds (monotonic_now_us()).
  obs::Tracer* tracer = nullptr;
  /// Optional metrics registry (non-owning): server fault counters plus the
  /// embedded CpuManager's staleness instruments (docs/OBSERVABILITY.md).
  obs::MetricsRegistry* metrics = nullptr;

  /// Bound on every handshake receive (SO_RCVTIMEO): a client that dials in
  /// and then stalls mid-HelloMsg — or leaves a ReadyMsg half-written —
  /// cannot freeze the manager loop. <= 0 disables (pre-hardening blocking
  /// behaviour, for tests only).
  int handshake_timeout_ms = 2000;

  /// Arena update periods with no heartbeat progress before the app's
  /// leader is probed (tgkill signal 0). A dead leader (ESRCH) is reaped;
  /// a live one with a frozen updater is reported as kStaleArena and left
  /// to the staleness policy. >= 2 tolerates sampling/updater phase drift.
  int heartbeat_stall_intervals = 3;

  // ---- overload-safe admission / adversary tolerance (ROBUSTNESS.md §8) --

  /// Connected-application cap. A hello beyond the cap is answered with a
  /// typed HelloNack(kServerFull) — unless a sheddable feed exists
  /// (adversarial > quarantined > never-ready, oldest first), which is
  /// evicted in favour of the newcomer. 0 = unlimited (legacy behaviour).
  int max_clients = 0;

  /// Per-peer handshake-attempt rate limit: more than this many accepted
  /// connections from one peer process (SO_PEERCRED pid) inside one window
  /// are answered with HelloNack(kRateLimited) before any frame is read.
  /// 0 disables. Keyed by pid, so an in-process test fleet sharing one pid
  /// must either disable it or stay under the budget.
  int handshake_attempts_per_peer = 0;
  int handshake_window_ms = 1000;

  /// Hostile arena samples (backwards / bus-impossible deltas) from one
  /// feed before it is classified adversarial: its samples are withheld
  /// from the CpuManager for good, its feed is force-quarantined (the
  /// election treats it as written off), and it becomes the preferred
  /// load-shedding victim. <= 0 disables classification (every hostile
  /// value is still clamped away from the estimator, merely unattributed).
  int adversarial_strikes = 3;

  // ---- crash recovery (docs/ROBUSTNESS.md §7) ----

  /// Manager restart epoch, stamped into every outgoing protocol frame.
  /// The supervisor increments it per restart; clients learn it from
  /// HelloAck and messages from an older epoch are rejected.
  std::uint32_t generation = 0;

  /// State journal path; empty disables journaling. On start() the newest
  /// intact snapshot is restored (feeds parked for adoption by reattaching
  /// clients); every `journal_period_quanta` elections the manager state is
  /// appended. Journal I/O failure is advisory — it never takes the control
  /// plane down.
  std::string journal_path;

  /// Elections between journal appends (>= 1). The journal trails live
  /// state by at most this many quanta — the recovery staleness bound.
  int journal_period_quanta = 4;

  /// Journal appends before compaction to a single record.
  int journal_max_records = 64;

  /// Consecutive journal-append failures (ENOSPC class) tolerated before
  /// the manager degrades to journal-less operation. Each failure first
  /// attempts the bounded rotation (compact the journal to its newest
  /// record, reclaiming every byte it can); only a streak of failures that
  /// rotation cannot cure trips the degrade. Degrading emits a
  /// kJournalDegraded event, raises manager.journal.degraded, and flips
  /// journal_degraded() so the supervised child can tell its supervisor
  /// that recovery fidelity is reduced. Elections continue unaffected —
  /// losing the journal never takes the control plane down. <= 0 degrades
  /// on the first failed rotation.
  int journal_failure_limit = 3;
};

class ManagerServer {
 public:
  explicit ManagerServer(const ServerConfig& cfg);
  ~ManagerServer();

  ManagerServer(const ManagerServer&) = delete;
  ManagerServer& operator=(const ManagerServer&) = delete;

  /// Binds the socket and starts the manager thread. False on bind failure,
  /// when another live manager already serves `socket_path`, or when
  /// `manager.quantum_us` is 0 or smaller than `manager.samples_per_quantum`
  /// (a zero-length quantum or sample period never advances the deadline
  /// grid). A *stale* socket file (left by a crashed manager: nothing
  /// accepts on it) is detected by a probe connect, unlinked, and rebound —
  /// a crash never needs manual cleanup before restart.
  bool start();

  /// Unblocks every application, stops the manager thread, unlinks the
  /// socket. Idempotent.
  void stop();

  // ---- introspection (thread-safe snapshots, used by tests/examples) ----
  [[nodiscard]] std::uint64_t elections() const;
  [[nodiscard]] std::size_t connected_apps() const;
  [[nodiscard]] std::vector<std::string> running_app_names() const;
  /// Latest policy estimate (BBW/thread, transactions/µs) per app name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> estimates() const;
  /// Feeds restored from the journal at start() and still awaiting a
  /// reattaching client to adopt them.
  [[nodiscard]] std::size_t pending_restores() const;
  /// Feeds parked by the journal restore at start() (0 = cold start).
  [[nodiscard]] int restored_feeds() const noexcept {
    return restored_feeds_;
  }
  /// True once the journal ENOSPC ladder gave up and the manager runs
  /// journal-less (docs/ROBUSTNESS.md §9). Thread-safe: polled by the
  /// supervised child's heartbeat writer to tell the supervisor that
  /// recovery fidelity is reduced.
  [[nodiscard]] bool journal_degraded() const noexcept {
    return journal_degraded_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const ServerConfig& config() const noexcept { return cfg_; }

 private:
  struct AppConn {
    int sock = -1;
    int manager_id = -1;  ///< id inside core::CpuManager; -1 until Ready
    pid_t pid = 0;
    pid_t leader_tid = 0;
    int nthreads = 1;
    std::string name;
    Arena* arena = nullptr;
    int arena_fd = -1;
    std::uint64_t last_read = 0;
    bool ready = false;
    bool blocked = false;
    // ---- liveness (docs/ROBUSTNESS.md) ----
    std::uint64_t last_heartbeat = 0;  ///< arena heartbeat at last sample
    int stall_intervals = 0;           ///< consecutive no-progress samples
    bool dead = false;                 ///< leader gone (ESRCH); reap pending
    bool reattached = false;           ///< joined via kReattach (recovery)
    // ---- adversary tolerance (docs/ROBUSTNESS.md §8) ----
    std::uint64_t connected_at_us = 0; ///< admission time (shedding order)
    int strikes = 0;                   ///< hostile arena samples observed
    bool adversarial = false;          ///< strikes exceeded; feed distrusted
  };

  /// Per-peer handshake-attempt window (rate limiting). Fixed-size table,
  /// oldest-window slot recycled — a deliberate cap so a pid-spraying
  /// adversary cannot grow manager memory.
  struct PeerWindow {
    pid_t pid = 0;
    std::uint64_t window_start_us = 0;
    int attempts = 0;
  };

  void loop();
  void accept_connection();
  /// True when the per-peer handshake budget still admits `pid` now.
  /// Updates the window table. Caller holds no lock (manager thread only).
  bool admit_peer(pid_t pid, std::uint64_t now_us);
  /// Sends a typed rejection and closes the socket (best-effort: a peer
  /// that already vanished just loses the explanation).
  void nack_and_close(int sock, HelloNackReason reason,
                      std::uint32_t retry_after_ms, std::uint64_t now_us);
  /// Picks and evicts one sheddable app (adversarial > quarantined feed >
  /// never-ready, oldest first) to admit a newcomer. Caller must hold mu_.
  /// Returns false when every connected app is healthy — nothing is shed.
  bool shed_victim_locked(std::uint64_t now_us);
  bool handle_client(std::size_t idx);  ///< false => disconnect
  void drop_client(std::size_t idx);
  /// Body of drop_client for callers already holding mu_.
  void drop_client_locked(std::size_t idx);
  void sample_running(std::uint64_t now_us);
  /// Elects at a boundary reached at `now_us` and advances the deadline
  /// grid past it.
  void quantum_boundary(std::uint64_t now_us);
  /// Signals the leader; returns false when the leader is gone (ESRCH),
  /// which marks the app dead for reaping.
  bool set_blocked(AppConn& app, bool blocked);
  /// Reaps every app marked dead. Caller must hold mu_.
  void reap_dead_locked(std::uint64_t now_us);
  /// Emits one server-side fault: metrics counter + trace event.
  void count_fault(obs::FaultKind kind, int app_id, double value,
                   std::uint64_t now_us);

  ServerConfig cfg_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::thread thread_;
  bool started_ = false;

  // ---- accept backoff state (manager thread only) ----
  std::uint64_t accept_retry_at_us_ = 0;  ///< listen fd parked until then
  int accept_backoff_ms_ = 0;             ///< current backoff (0 = healthy)
  std::vector<PeerWindow> peer_windows_;  ///< bounded rate-limit table

  mutable std::mutex mu_;
  core::CpuManager manager_;
  std::vector<std::unique_ptr<AppConn>> apps_;
  std::uint64_t elections_ = 0;
  /// Grid start of the current quantum: its sample points and boundary are
  /// absolute deadlines measured from here (advance_quantum_grid).
  std::uint64_t quantum_start_us_ = 0;
  int samples_taken_ = 0;  ///< sample points of this quantum already passed
  bool stopping_ = false;
  /// poll set: listen fd, wake pipe, then one entry per apps_ slot. Sized
  /// with apps_, so it only grows on admission (manager thread only).
  std::vector<pollfd> pollfds_;

  // ---- crash recovery ----
  std::unique_ptr<core::JournalWriter> journal_;
  core::ManagerSnapshot journal_snapshot_;  ///< overwritten per append
  int quanta_since_journal_ = 0;
  int restored_feeds_ = 0;
  int journal_fail_streak_ = 0;  ///< consecutive failed appends+rotations
  std::atomic<bool> journal_degraded_{false};  ///< journal-less mode latched

  // ---- server fault counters (non-owning; null = off) ----
  obs::Counter* m_dead_leaders_ = nullptr;
  obs::Counter* m_stale_arenas_ = nullptr;
  obs::Counter* m_handshake_timeouts_ = nullptr;
  obs::Counter* m_stale_sockets_ = nullptr;
  obs::Counter* m_bad_messages_ = nullptr;
  obs::Counter* m_reattaches_ = nullptr;
  obs::Counter* m_restores_ = nullptr;
  obs::Counter* m_journal_appends_ = nullptr;
  obs::Counter* m_journal_errors_ = nullptr;

  // ---- adversary / overload instruments (docs/ROBUSTNESS.md §8) ----
  obs::Counter* m_unexpected_fd_ = nullptr;    ///< server.faults.unexpected_fd
  obs::Counter* m_invalid_hello_ = nullptr;    ///< server.faults.invalid_hello
  obs::Counter* m_scribbles_ = nullptr;        ///< server.adversarial.scribbles
  obs::Counter* m_adv_quarantines_ = nullptr;  ///< .adversarial.quarantines
  obs::Counter* m_accept_backoffs_ = nullptr;  ///< .overload.accept_backoffs
  obs::Counter* m_rejected_full_ = nullptr;    ///< .overload.rejected_full
  obs::Counter* m_rate_limited_ = nullptr;     ///< .overload.rate_limited
  obs::Counter* m_load_sheds_ = nullptr;       ///< .overload.load_sheds
  obs::Histogram* m_election_us_ = nullptr;    ///< server.election_us

  // ---- quantum pacing (DESIGN.md §5) ----
  obs::Counter* m_quanta_skipped_ = nullptr;     ///< server.quanta_skipped
  obs::Histogram* m_quantum_late_us_ = nullptr;  ///< server.quantum_late_us

  // ---- OS-failure hardening instruments (docs/ROBUSTNESS.md §9) ----
  obs::Counter* m_journal_rotations_ = nullptr; ///< .recovery.journal_rotations
  obs::Gauge* m_journal_degraded_g_ = nullptr;  ///< manager.journal.degraded
  obs::Counter* m_arena_failures_ = nullptr;    ///< server.faults.arena_exhausted
  obs::Gauge* m_sysfail_injected_ = nullptr;    ///< server.sysfail.injected
  obs::Gauge* m_sysfail_clock_clamped_ = nullptr; ///< server.sysfail.clock_clamped
};

/// Monotonic clock in microseconds.
[[nodiscard]] std::uint64_t monotonic_now_us();

/// Where the deadline grid stands after one quantum boundary.
struct GridStep {
  std::uint64_t start_us = 0;  ///< grid start of the next quantum
  std::uint64_t skipped = 0;   ///< grid deadlines passed over, never elected
};

/// Advances the quantum grid past the boundary of the quantum that began at
/// `start_us`, reached at `now_us`. The next deadline stays on the grid of
/// `start_us + k * period_us`, not a period after the wake-up, so lateness
/// never accumulates. It is the first grid point at least 7/8 of a period
/// after `now_us`: a wake-up up to 1/8 period late keeps the next deadline,
/// a later one also skips it, and one k periods late skips k. Skipped
/// deadlines are counted, never replayed. The next quantum therefore lasts
/// between 7/8 and 15/8 of a period (DESIGN.md §5 gives the reason for the
/// floor). An early call counts as on time. `period_us` > 0.
[[nodiscard]] constexpr GridStep advance_quantum_grid(
    std::uint64_t start_us, std::uint64_t period_us,
    std::uint64_t now_us) noexcept {
  const std::uint64_t deadline = start_us + period_us;
  const std::uint64_t slack = period_us / 8;
  const std::uint64_t skipped =
      now_us > deadline + slack
          ? (now_us - deadline - slack + period_us - 1) / period_us
          : 0;
  return {deadline + skipped * period_us, skipped};
}

}  // namespace bbsched::runtime
