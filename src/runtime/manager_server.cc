#include "runtime/manager_server.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <ctime>

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <unistd.h>

#include "faults/sysfail.h"
#include "runtime/protocol.h"
#include "runtime/signal_gate.h"

namespace bbsched::runtime {

namespace {

int tgkill_portable(pid_t tgid, pid_t tid, int sig) {
  return static_cast<int>(::syscall(SYS_tgkill, tgid, tid, sig));
}

/// SO_PEERCRED credential layout. glibc's `struct ucred` is hidden behind
/// _GNU_SOURCE, which the strict -std=c++20 build does not define; the wire
/// layout is kernel-ABI-fixed, so declaring it locally is safe.
struct PeerCred {
  pid_t pid;
  uid_t uid;
  gid_t gid;
};

#ifndef SO_PEERCRED
#define SO_PEERCRED 17
#endif

/// Kernel pid of the connecting peer, or 0 when unavailable.
pid_t peer_pid(int sock) {
  PeerCred cred{};
  socklen_t len = sizeof(cred);
  if (::getsockopt(sock, SOL_SOCKET, SO_PEERCRED, &cred, &len) != 0) return 0;
  return cred.pid;
}

/// Upper bound on worker threads one hello may declare. Far above any real
/// gang (the paper's machines have tens of processors), far below the
/// "nthreads = INT_MAX" resource-exhaustion probe.
constexpr int kMaxNthreads = 4096;

/// Bounded size of the per-peer handshake-rate table: a pid-spraying
/// adversary recycles the oldest window instead of growing manager memory.
constexpr std::size_t kPeerWindowSlots = 64;

/// accept() failure backoff (EMFILE/ENFILE under fd exhaustion, or any other
/// hard accept error): the listen socket is parked for the current backoff
/// instead of hot re-polling a permanently-readable fd. The backoff doubles
/// per consecutive failure up to the max and resets on the next successful
/// accept.
constexpr int kAcceptBackoffInitialMs = 5;
constexpr int kAcceptBackoffMaxMs = 1000;

/// Largest client->manager payload: reused as the receive buffer so an
/// unexpected-but-well-formed frame type is classified (bad-message fault)
/// instead of being conflated with a truncated read.
constexpr std::size_t kMaxClientPayload =
    sizeof(HelloMsg) > sizeof(ReadyMsg) ? sizeof(HelloMsg) : sizeof(ReadyMsg);

}  // namespace

std::uint64_t monotonic_now_us() {
  // Routed through the sysfail shim: readings are clamped non-decreasing
  // process-wide, so timeout deltas computed from this clock are never
  // negative even when the clock (or the injector) leaps backwards.
  return faults::sys::clock_monotonic_us();
}

ManagerServer::ManagerServer(const ServerConfig& cfg)
    : cfg_(cfg), manager_(cfg.manager) {
  if (cfg_.nprocs <= 0) {
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    cfg_.nprocs = n > 0 ? static_cast<int>(n) : 1;
  }
  manager_.set_tracer(cfg_.tracer);
  manager_.set_metrics(cfg_.metrics);
  if (cfg_.metrics != nullptr) {
    m_dead_leaders_ = &cfg_.metrics->counter("server.faults.dead_leaders");
    m_stale_arenas_ = &cfg_.metrics->counter("server.faults.stale_arenas");
    m_handshake_timeouts_ =
        &cfg_.metrics->counter("server.faults.handshake_timeouts");
    m_stale_sockets_ = &cfg_.metrics->counter("server.faults.stale_sockets");
    m_bad_messages_ = &cfg_.metrics->counter("server.faults.bad_message");
    m_reattaches_ = &cfg_.metrics->counter("server.recovery.reattaches");
    m_restores_ = &cfg_.metrics->counter("server.recovery.restores");
    m_journal_appends_ =
        &cfg_.metrics->counter("server.recovery.journal_appends");
    m_journal_errors_ =
        &cfg_.metrics->counter("server.recovery.journal_errors");
    m_unexpected_fd_ = &cfg_.metrics->counter("server.faults.unexpected_fd");
    m_invalid_hello_ = &cfg_.metrics->counter("server.faults.invalid_hello");
    m_scribbles_ = &cfg_.metrics->counter("server.adversarial.scribbles");
    m_adv_quarantines_ =
        &cfg_.metrics->counter("server.adversarial.quarantines");
    m_accept_backoffs_ =
        &cfg_.metrics->counter("server.overload.accept_backoffs");
    m_rejected_full_ = &cfg_.metrics->counter("server.overload.rejected_full");
    m_rate_limited_ = &cfg_.metrics->counter("server.overload.rate_limited");
    m_load_sheds_ = &cfg_.metrics->counter("server.overload.load_sheds");
    m_election_us_ = &cfg_.metrics->histogram(
        "server.election_us",
        {5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
         10000.0});
    m_journal_degraded_g_ = &cfg_.metrics->gauge("manager.journal.degraded");
    m_arena_failures_ =
        &cfg_.metrics->counter("server.faults.arena_exhausted");
    m_sysfail_injected_ = &cfg_.metrics->gauge("server.sysfail.injected");
    m_sysfail_clock_clamped_ =
        &cfg_.metrics->gauge("server.sysfail.clock_clamped");
    m_quanta_skipped_ = &cfg_.metrics->counter("server.quanta_skipped");
    m_quantum_late_us_ = &cfg_.metrics->histogram(
        "server.quantum_late_us",
        {10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
         10000.0});
  }
  peer_windows_.reserve(kPeerWindowSlots);
}

ManagerServer::~ManagerServer() { stop(); }

void ManagerServer::count_fault(obs::FaultKind kind, int app_id, double value,
                                std::uint64_t now_us) {
  switch (kind) {
    case obs::FaultKind::kDeadLeader:
      if (m_dead_leaders_ != nullptr) m_dead_leaders_->inc();
      break;
    case obs::FaultKind::kStaleArena:
      if (m_stale_arenas_ != nullptr) m_stale_arenas_->inc();
      break;
    case obs::FaultKind::kHandshakeTimeout:
      if (m_handshake_timeouts_ != nullptr) m_handshake_timeouts_->inc();
      break;
    case obs::FaultKind::kStaleSocket:
      if (m_stale_sockets_ != nullptr) m_stale_sockets_->inc();
      break;
    case obs::FaultKind::kBadMessage:
      if (m_bad_messages_ != nullptr) m_bad_messages_->inc();
      break;
    case obs::FaultKind::kUnexpectedFd:
      if (m_unexpected_fd_ != nullptr) m_unexpected_fd_->inc(value);
      break;
    case obs::FaultKind::kInvalidHello:
      if (m_invalid_hello_ != nullptr) m_invalid_hello_->inc();
      break;
    case obs::FaultKind::kAdversarialFeed:
      if (m_scribbles_ != nullptr) m_scribbles_->inc();
      break;
    case obs::FaultKind::kAcceptBackoff:
      if (m_accept_backoffs_ != nullptr) m_accept_backoffs_->inc();
      break;
    case obs::FaultKind::kAdmissionRejected:
      // value carries the HelloNackReason: split into the overload metrics.
      // Each reason maps to exactly one counter — kInvalidHello nacks are
      // already accounted as server.faults.invalid_hello and must not
      // inflate the server-full figure.
      switch (static_cast<HelloNackReason>(static_cast<std::int32_t>(value))) {
        case HelloNackReason::kRateLimited:
          if (m_rate_limited_ != nullptr) m_rate_limited_->inc();
          break;
        case HelloNackReason::kServerFull:
          if (m_rejected_full_ != nullptr) m_rejected_full_->inc();
          break;
        case HelloNackReason::kInvalidHello:
          break;  // counted at the validation site (invalid_hello)
        case HelloNackReason::kResourceExhausted:
          break;  // counted at the arena-creation site (arena_exhausted)
      }
      break;
    case obs::FaultKind::kArenaExhausted:
      if (m_arena_failures_ != nullptr) m_arena_failures_->inc();
      break;
    case obs::FaultKind::kJournalDegraded:
      if (m_journal_degraded_g_ != nullptr) m_journal_degraded_g_->set(1.0);
      break;
    default:
      break;
  }
  if (cfg_.tracer != nullptr && cfg_.tracer->enabled()) {
    cfg_.tracer->fault(now_us, {app_id, kind, value});
  }
}

bool ManagerServer::start() {
  assert(!started_);
  // The sample period is quantum / samples_per_quantum; either being zero
  // would leave the deadline grid standing still and the loop spinning.
  if (cfg_.manager.quantum_us <
      static_cast<std::uint64_t>(
          std::max(1, cfg_.manager.samples_per_quantum))) {
    return false;
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.socket_path.size() >= sizeof(addr.sun_path)) return false;
  std::strncpy(addr.sun_path, cfg_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  // Crash recovery: the socket file may have been left behind by a dead
  // manager. Probe it — if something accepts, a live manager owns the path
  // and we must not steal it; if the connect is refused, the file is stale
  // and safe to unlink. (No file at all: plain first start.)
  const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (probe >= 0) {
    if (::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      ::close(probe);
      ::close(listen_fd_);
      listen_fd_ = -1;
      return false;  // a live manager already serves this path
    }
    const bool stale = errno != ENOENT;
    ::close(probe);
    if (stale) {
      ::unlink(cfg_.socket_path.c_str());
      count_fault(obs::FaultKind::kStaleSocket, -1, 0.0, monotonic_now_us());
    }
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::pipe2(wake_pipe_, O_CLOEXEC) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  // Crash recovery: adopt the newest intact journal snapshot before the
  // manager loop starts. Restored feeds are parked inside the CpuManager
  // until their applications reattach; a missing/corrupt journal simply
  // cold-starts (load_latest_snapshot never crashes on garbage).
  restored_feeds_ = 0;
  if (!cfg_.journal_path.empty()) {
    core::ManagerSnapshot snap;
    if (core::load_latest_snapshot(cfg_.journal_path, snap)) {
      restored_feeds_ = manager_.restore(snap);
      if (m_restores_ != nullptr) m_restores_->inc();
      if (cfg_.tracer != nullptr && cfg_.tracer->enabled()) {
        cfg_.tracer->recovery(
            monotonic_now_us(),
            {cfg_.generation, snap.quantum_index, restored_feeds_,
             static_cast<std::uint8_t>(snap.degraded ? 1 : 0)});
      }
    }
    journal_ = std::make_unique<core::JournalWriter>(cfg_.journal_path);
    quanta_since_journal_ = 0;
  }

  stopping_ = false;
  started_ = true;
  quantum_start_us_ = last_election_us_ = monotonic_now_us();
  samples_taken_ = 0;
  thread_ = std::thread([this] { loop(); });
  return true;
}

void ManagerServer::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  // The wake byte MUST land: a write lost to EINTR would leave the manager
  // thread parked in poll() and this join hanging. The pipe is empty except
  // for this one byte, so a short write cannot actually occur — but retry
  // anyway; the loop costs nothing when the first attempt succeeds.
  const char byte = 'x';
  for (;;) {
    const ssize_t n = faults::sys::write(wake_pipe_[1], &byte, 1);
    if (n == 1) break;
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    break;  // unwritable pipe: nothing more we can do
  }
  thread_.join();
  started_ = false;

  // Leave no application suspended behind us.
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& app : apps_) {
      if (app->blocked) set_blocked(*app, false);
      if (app->arena != nullptr) ::munmap(app->arena, sizeof(Arena));
      if (app->arena_fd >= 0) ::close(app->arena_fd);
      if (app->sock >= 0) ::close(app->sock);
    }
    apps_.clear();
  }
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(cfg_.socket_path.c_str());
}

bool ManagerServer::set_blocked(AppConn& app, bool blocked) {
  if (app.blocked == blocked) return true;
  app.blocked = blocked;
  // The arena holds the intent; one signal tells the leader thread to read
  // it, and the application runtime forwards it to the siblings
  // (signal_gate.h). The word is never read back: a client that overwrites
  // it can only disobey, as it could by masking the signals.
  app.arena->run_state.store(blocked ? Arena::kBlocked : Arena::kRun,
                             std::memory_order_release);
  const int rc = tgkill_portable(app.pid, app.leader_tid,
                                 blocked ? kBlockSignal : kUnblockSignal);
  if (rc < 0 && errno == ESRCH) {
    // The leader thread no longer exists (SIGKILL, crash): this application
    // cannot be scheduled or unblocked, only reaped.
    app.dead = true;
    return false;
  }
  return true;
}

bool ManagerServer::admit_peer(pid_t pid, std::uint64_t now_us) {
  if (cfg_.handshake_attempts_per_peer <= 0 || pid == 0) return true;
  const std::uint64_t window_us =
      static_cast<std::uint64_t>(std::max(1, cfg_.handshake_window_ms)) *
      1000ULL;
  PeerWindow* slot = nullptr;
  PeerWindow* oldest = nullptr;
  for (auto& w : peer_windows_) {
    if (w.pid == pid) {
      slot = &w;
      break;
    }
    if (oldest == nullptr || w.window_start_us < oldest->window_start_us) {
      oldest = &w;
    }
  }
  if (slot == nullptr) {
    if (peer_windows_.size() < kPeerWindowSlots) {
      peer_windows_.push_back({});
      slot = &peer_windows_.back();
    } else {
      slot = oldest;  // recycle: the table never grows past its cap
    }
    slot->pid = pid;
    slot->window_start_us = now_us;
    slot->attempts = 0;
  } else if (now_us - slot->window_start_us >= window_us) {
    slot->window_start_us = now_us;
    slot->attempts = 0;
  }
  return ++slot->attempts <= cfg_.handshake_attempts_per_peer;
}

void ManagerServer::nack_and_close(int sock, HelloNackReason reason,
                                   std::uint32_t retry_after_ms,
                                   std::uint64_t now_us) {
  HelloNackMsg msg{};
  msg.reason = static_cast<std::int32_t>(reason);
  msg.retry_after_ms = retry_after_ms;
  // Account for the rejection before the nack hits the wire: once the peer
  // can read it, a metrics observer must already see the rejection counted.
  count_fault(obs::FaultKind::kAdmissionRejected, -1,
              static_cast<double>(static_cast<std::int32_t>(reason)), now_us);
  // Best-effort: a peer that already vanished just loses the explanation.
  send_msg(sock, MsgType::kHelloNack, cfg_.generation, &msg, sizeof(msg));
  ::close(sock);
}

bool ManagerServer::shed_victim_locked(std::uint64_t now_us) {
  // Shedding order: a classified-adversarial feed first, then a feed the
  // staleness ladder already quarantined (its estimate is written off
  // anyway), then a connection that never reached kReady (a slow-loris
  // squatter holds a socket but no schedulable job). Oldest first within a
  // class. A healthy ready feed is never shed for a newcomer.
  std::size_t victim = apps_.size();
  int best_class = 0;
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    const AppConn& app = *apps_[i];
    int cls = 0;
    if (app.adversarial) {
      cls = 3;
    } else if (app.manager_id >= 0 &&
               manager_.feed_state(app.manager_id) ==
                   obs::DegradationState::kQuarantined) {
      cls = 2;
    } else if (!app.ready) {
      cls = 1;
    }
    if (cls > best_class ||
        (cls == best_class && cls > 0 && victim < apps_.size() &&
         app.connected_at_us < apps_[victim]->connected_at_us)) {
      best_class = cls;
      victim = i;
    }
  }
  if (victim >= apps_.size()) return false;
  if (cfg_.tracer != nullptr && cfg_.tracer->enabled()) {
    cfg_.tracer->job_state_change(
        now_us, {apps_[victim]->manager_id, -1, obs::JobState::kConnected,
                 obs::JobState::kDisconnected});
  }
  drop_client_locked(victim);
  if (m_load_sheds_ != nullptr) m_load_sheds_->inc();
  return true;
}

void ManagerServer::accept_connection() {
  const std::uint64_t now = monotonic_now_us();
  const int sock =
      faults::sys::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (sock < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      return;  // transient; the next poll round retries at full speed
    }
    // Hard accept failure — EMFILE/ENFILE fd exhaustion, ENOBUFS/ENOMEM —
    // leaves the listen fd permanently readable. Without backoff the loop
    // would spin at 100% CPU re-polling it; instead the listen socket is
    // parked (loop() masks it) for an exponentially growing interval.
    accept_backoff_ms_ =
        accept_backoff_ms_ == 0
            ? kAcceptBackoffInitialMs
            : std::min(accept_backoff_ms_ * 2, kAcceptBackoffMaxMs);
    accept_retry_at_us_ =
        now + static_cast<std::uint64_t>(accept_backoff_ms_) * 1000ULL;
    count_fault(obs::FaultKind::kAcceptBackoff, -1,
                static_cast<double>(accept_backoff_ms_), now);
    return;
  }
  accept_backoff_ms_ = 0;  // healthy again; next failure restarts small
  accept_retry_at_us_ = 0;

  // Bound every receive on this connection: a client that stalls mid-
  // handshake (or later leaves a half-written ReadyMsg) must not be able to
  // freeze the manager loop with it.
  if (cfg_.handshake_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = cfg_.handshake_timeout_ms / 1000;
    tv.tv_usec = (cfg_.handshake_timeout_ms % 1000) * 1000;
    ::setsockopt(sock, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  // Per-peer handshake rate limit, checked before a single frame is read:
  // a reattach storm from one process is turned away at the door instead of
  // consuming a receive timeout each.
  const pid_t cred_pid = peer_pid(sock);
  if (!admit_peer(cred_pid, now)) {
    nack_and_close(sock, HelloNackReason::kRateLimited,
                   static_cast<std::uint32_t>(
                       std::max(1, cfg_.handshake_window_ms)),
                   now);
    return;
  }

  MsgHeader hdr{};
  HelloMsg hello{};
  int stray_fd = -1;
  int unexpected = 0;
  const RecvStatus st =
      recv_msg(sock, hdr, &hello, sizeof(hello), &stray_fd, &unexpected);
  // Clients never legitimately attach descriptors; one delivered into
  // fd_out is as unexpected as the drained extras.
  if (stray_fd >= 0) {
    ::close(stray_fd);
    ++unexpected;
  }
  if (unexpected > 0) {
    count_fault(obs::FaultKind::kUnexpectedFd, -1,
                static_cast<double>(unexpected), now);
  }
  const bool is_hello =
      st == RecvStatus::kOk &&
      (hdr.type == static_cast<std::uint16_t>(MsgType::kHello) ||
       hdr.type == static_cast<std::uint16_t>(MsgType::kReattach));
  if (!is_hello) {
    // A clean close or a receive timeout mid-handshake is a handshake
    // failure; a structurally broken frame — or a well-formed frame of a
    // type that cannot open a handshake (e.g. kReady first) — is a
    // protocol violation, not a timeout.
    count_fault(st == RecvStatus::kTimeout || st == RecvStatus::kClosed
                    ? obs::FaultKind::kHandshakeTimeout
                    : obs::FaultKind::kBadMessage,
                -1, 0.0, now);
    ::close(sock);
    return;
  }

  // Trust boundary (docs/ROBUSTNESS.md §8): every HelloMsg field is hostile
  // until validated. nthreads bounds an allocation loop; the name must be
  // NUL-terminable inside its buffer; a pid that contradicts the kernel's
  // SO_PEERCRED is a spoof (0 = credentials unavailable: tolerated).
  const bool name_ok = ::memchr(hello.name, '\0', sizeof(hello.name)) !=
                       nullptr;
  const bool pid_ok =
      hello.pid > 0 && (cred_pid == 0 || hello.pid == cred_pid);
  if (hello.nthreads < 1 || hello.nthreads > kMaxNthreads || !name_ok ||
      !pid_ok) {
    count_fault(obs::FaultKind::kInvalidHello, -1,
                static_cast<double>(hello.nthreads), now);
    nack_and_close(sock, HelloNackReason::kInvalidHello, 0, now);
    return;
  }
  const bool reattach =
      hdr.type == static_cast<std::uint16_t>(MsgType::kReattach);

  // Admission cap. Prefer shedding a distrusted or never-ready connection
  // over refusing a presumably honest newcomer.
  if (cfg_.max_clients > 0) {
    std::lock_guard<std::mutex> lk(mu_);
    if (apps_.size() >= static_cast<std::size_t>(cfg_.max_clients) &&
        !shed_victim_locked(now)) {
      nack_and_close(sock, HelloNackReason::kServerFull,
                     static_cast<std::uint32_t>(
                         cfg_.manager.quantum_us / 1000ULL),
                     now);
      return;
    }
  }

  // Create the shared arena as an anonymous memfd and hand it over.
  // Creation or mapping can fail under memory pressure (ENOMEM/ENFILE
  // class): that is the *manager's* resource problem, not the client's —
  // refuse admission gracefully with a typed nack carrying a retry hint
  // instead of silently dropping (or worse, crashing on) an honest client.
  const int arena_fd = arena_create_fd();
  if (arena_fd < 0) {
    count_fault(obs::FaultKind::kArenaExhausted, -1,
                static_cast<double>(errno), now);
    nack_and_close(sock, HelloNackReason::kResourceExhausted,
                   static_cast<std::uint32_t>(
                       cfg_.manager.quantum_us / 1000ULL),
                   now);
    return;
  }
  Arena* mapped = arena_map(arena_fd);
  if (mapped == nullptr) {
    count_fault(obs::FaultKind::kArenaExhausted, -1,
                static_cast<double>(errno), now);
    ::close(arena_fd);
    nack_and_close(sock, HelloNackReason::kResourceExhausted,
                   static_cast<std::uint32_t>(
                       cfg_.manager.quantum_us / 1000ULL),
                   now);
    return;
  }
  auto* arena = new (mapped) Arena();
  const std::uint64_t period =
      cfg_.manager.quantum_us /
      static_cast<std::uint64_t>(std::max(1, cfg_.manager.samples_per_quantum));
  arena->update_period_us.store(period, std::memory_order_relaxed);

  auto app = std::make_unique<AppConn>();
  app->sock = sock;
  app->pid = hello.pid;
  app->leader_tid = hello.leader_tid;
  app->nthreads = hello.nthreads;
  app->name.assign(hello.name,
                   strnlen(hello.name, sizeof(hello.name)));
  app->arena = arena;
  app->arena_fd = arena_fd;
  app->reattached = reattach;
  app->connected_at_us = now;

  HelloAck ack{};
  ack.update_period_us = period;
  ack.app_id = static_cast<int>(apps_.size());
  if (!send_msg(sock, MsgType::kHelloAck, cfg_.generation, &ack, sizeof(ack),
                arena_fd)) {
    arena_unmap(arena);
    ::close(arena_fd);
    ::close(sock);
    return;
  }

  std::lock_guard<std::mutex> lk(mu_);
  apps_.push_back(std::move(app));
}

bool ManagerServer::handle_client(std::size_t idx) {
  AppConn& app = *apps_[idx];
  MsgHeader hdr{};
  // Sized for the largest client payload so a well-formed frame of the
  // wrong *type* (e.g. a second kHello on an established connection) is
  // classified as a bad message rather than a truncated read.
  alignas(HelloMsg) unsigned char buf[kMaxClientPayload] = {};
  int stray_fd = -1;
  int unexpected = 0;
  const RecvStatus st =
      recv_msg(app.sock, hdr, buf, sizeof(buf), &stray_fd, &unexpected);
  if (stray_fd >= 0) {
    ::close(stray_fd);
    ++unexpected;
  }
  if (unexpected > 0) {
    count_fault(obs::FaultKind::kUnexpectedFd, app.manager_id,
                static_cast<double>(unexpected), monotonic_now_us());
  }
  if (st != RecvStatus::kOk ||
      hdr.type != static_cast<std::uint16_t>(MsgType::kReady) ||
      hdr.generation != cfg_.generation) {
    // EOF => plain disconnect. A corrupt frame, a frame started and then
    // stalled past SO_RCVTIMEO, a well-formed frame of an unexpected type,
    // or a Ready stamped with a previous manager generation (stale
    // pipeline from before a restart) is a protocol fault worth counting
    // before the drop.
    if (st == RecvStatus::kBad || st == RecvStatus::kTimeout ||
        (st == RecvStatus::kOk &&
         (hdr.type != static_cast<std::uint16_t>(MsgType::kReady) ||
          hdr.generation != cfg_.generation))) {
      count_fault(obs::FaultKind::kBadMessage, app.manager_id, 0.0,
                  monotonic_now_us());
    }
    return false;
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (!app.ready) {
    app.ready = true;
    const std::size_t pending_before = manager_.pending_restores();
    app.manager_id = manager_.connect(app.name, app.nthreads);
    const bool adopted = manager_.pending_restores() < pending_before;
    app.last_read = app.arena->transactions.load(std::memory_order_relaxed);
    // The app keeps running until the first election decides otherwise.
    if (app.reattached) {
      if (m_reattaches_ != nullptr) m_reattaches_->inc();
      if (cfg_.tracer != nullptr && cfg_.tracer->enabled()) {
        cfg_.tracer->reattach(
            monotonic_now_us(),
            {app.manager_id, cfg_.generation,
             static_cast<std::uint8_t>(adopted ? 1 : 0)});
      }
    }
  }
  return true;
}

void ManagerServer::drop_client(std::size_t idx) {
  std::lock_guard<std::mutex> lk(mu_);
  drop_client_locked(idx);
}

void ManagerServer::drop_client_locked(std::size_t idx) {
  AppConn& app = *apps_[idx];
  // Defensive: if the process is still alive but blocked (e.g. it closed
  // the socket from an unmanaged thread), leave it runnable — a removed
  // application would otherwise stay suspended forever.
  if (app.blocked) set_blocked(app, false);
  if (app.manager_id >= 0) manager_.disconnect(app.manager_id);
  if (app.arena != nullptr) ::munmap(app.arena, sizeof(Arena));
  if (app.arena_fd >= 0) ::close(app.arena_fd);
  ::close(app.sock);
  apps_.erase(apps_.begin() + static_cast<std::ptrdiff_t>(idx));
}

void ManagerServer::reap_dead_locked(std::uint64_t now_us) {
  for (std::size_t i = apps_.size(); i-- > 0;) {
    if (!apps_[i]->dead) continue;
    count_fault(obs::FaultKind::kDeadLeader, apps_[i]->manager_id, 0.0,
                now_us);
    if (cfg_.tracer != nullptr && cfg_.tracer->enabled()) {
      cfg_.tracer->job_state_change(
          now_us, {apps_[i]->manager_id, -1, obs::JobState::kManagerBlocked,
                   obs::JobState::kDisconnected});
    }
    drop_client_locked(i);
  }
}

void ManagerServer::sample_running(std::uint64_t now_us) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto& running = manager_.running();
  bool any_dead = false;
  for (auto& app : apps_) {
    if (app->manager_id < 0 || app->dead) continue;

    // Liveness: the client's updater bumps arena->heartbeats once per
    // update period — the same period that paces this sampler — and is not
    // signal-gated, so a healthy client makes progress between samples even
    // while blocked. No progress for several samples means the updater is
    // hung or the process is gone; probe the leader to tell which.
    const std::uint64_t hb =
        app->arena->heartbeats.load(std::memory_order_relaxed);
    if (hb != app->last_heartbeat) {
      app->last_heartbeat = hb;
      app->stall_intervals = 0;
    } else if (cfg_.heartbeat_stall_intervals > 0 &&
               ++app->stall_intervals >= cfg_.heartbeat_stall_intervals) {
      if (tgkill_portable(app->pid, app->leader_tid, 0) < 0 &&
          errno == ESRCH) {
        app->dead = true;
        any_dead = true;
        continue;
      }
      // Alive but silent: a hung updater. Report once per stall episode;
      // the manager's staleness policy owns the estimate from here.
      if (app->stall_intervals == cfg_.heartbeat_stall_intervals) {
        count_fault(obs::FaultKind::kStaleArena, app->manager_id,
                    static_cast<double>(app->stall_intervals), now_us);
      }
    }

    if (cfg_.heartbeat_stall_intervals > 0 &&
        app->stall_intervals >= cfg_.heartbeat_stall_intervals) {
      // A known-stale arena would post zero-deltas — a silent lie. Withhold
      // the sample instead, so the CpuManager's miss-streak ladder (hold →
      // decay → quarantine) takes over the estimate.
      continue;
    }

    if (std::find(running.begin(), running.end(), app->manager_id) ==
        running.end()) {
      continue;  // stats are only updated for running jobs
    }
    const std::uint64_t cum =
        app->arena->transactions.load(std::memory_order_relaxed);
    // Unsigned modular math: cum - last_read is the exact elapsed count
    // even across a legitimate u64 wrap of a long-lived counter (double
    // subtraction loses precision above 2^53 and would read a wrap as a
    // colossal negative delta, striking an honest app toward quarantine).
    // A scribbled-backwards counter instead lands in the top half of the
    // u64 range — a wrapped distance no physical bus could have carried.
    const std::uint64_t raw_delta = cum - app->last_read;
    const bool backwards = raw_delta > (std::uint64_t{1} << 63);
    const double delta = static_cast<double>(raw_delta);
    app->last_read = cum;

    // Feed validation at the trust boundary (docs/ROBUSTNESS.md §8): the
    // arena is writable by the application, so every value is hostile
    // until checked. Backwards counters and deltas no physical bus could
    // have carried are withheld from the estimator; repeat offenders are
    // classified adversarial, force-quarantined, and ignored for good.
    const double hostile_cap =
        cfg_.manager.staleness.max_sample_factor > 0
            ? cfg_.manager.staleness.max_sample_factor *
                  cfg_.manager.total_bus_bw_tps *
                  static_cast<double>(cfg_.manager.quantum_us)
            : 0.0;
    const bool hostile =
        backwards || (hostile_cap > 0.0 && delta > hostile_cap);
    if (app->adversarial) continue;  // feed written off; liveness only
    if (hostile) {
      count_fault(obs::FaultKind::kAdversarialFeed, app->manager_id, delta,
                  now_us);
      if (cfg_.adversarial_strikes > 0 &&
          ++app->strikes >= cfg_.adversarial_strikes) {
        app->adversarial = true;
        if (m_adv_quarantines_ != nullptr) m_adv_quarantines_->inc();
        manager_.quarantine(app->manager_id, now_us);
      }
      continue;  // never feed a hostile value into the estimator
    }

    manager_.record_sample(app->manager_id, delta, now_us);
    if (cfg_.tracer != nullptr && cfg_.tracer->enabled()) {
      cfg_.tracer->counter_sample(
          now_us, {app->manager_id, delta,
                   manager_.policy_estimate(app->manager_id)});
    }
  }
  if (any_dead) reap_dead_locked(now_us);
}

void ManagerServer::quantum_boundary(std::uint64_t now_us) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t election_t0 = monotonic_now_us();
  // Every boundary closes a whole grid quantum; a late wake-up stretches it
  // and shortens the next, so the samples fold over the time each ran.
  const core::ElectionResult& result = manager_.schedule_quantum(
      cfg_.nprocs, now_us, now_us - last_election_us_);
  last_election_us_ = now_us;
  if (m_election_us_ != nullptr) {
    m_election_us_->observe(
        static_cast<double>(monotonic_now_us() - election_t0));
  }
  ++elections_;
  // The next quantum starts on the grid, not at this (late) wake-up. The
  // deadlines a stalled manager slept through are counted, not replayed as
  // back-to-back elections.
  const std::uint64_t deadline = quantum_start_us_ + cfg_.manager.quantum_us;
  const GridStep step = advance_quantum_grid(
      quantum_start_us_, cfg_.manager.quantum_us, now_us);
  if (m_quantum_late_us_ != nullptr) {
    m_quantum_late_us_->observe(static_cast<double>(now_us - deadline));
  }
  if (step.skipped > 0 && m_quanta_skipped_ != nullptr) {
    m_quanta_skipped_->inc(static_cast<double>(step.skipped));
  }
  quantum_start_us_ = step.start_us;
  samples_taken_ = 0;

  bool any_dead = false;
  for (auto& app : apps_) {
    if (app->manager_id < 0 || app->dead) continue;
    const bool elected =
        std::find(result.elected.begin(), result.elected.end(),
                  app->manager_id) != result.elected.end();
    if (cfg_.tracer != nullptr && cfg_.tracer->enabled() &&
        app->blocked == elected) {  // state is about to flip
      cfg_.tracer->job_state_change(
          now_us,
          {app->manager_id, -1,
           elected ? obs::JobState::kManagerBlocked : obs::JobState::kReady,
           elected ? obs::JobState::kReady : obs::JobState::kManagerBlocked});
    }
    if (!set_blocked(*app, !elected)) {
      // ESRCH: the leader died since the last boundary. Reap below so the
      // next election redistributes its processors immediately.
      any_dead = true;
      continue;
    }
    if (elected) {
      // Fresh baseline so the first sample excludes older quanta.
      app->last_read =
          app->arena->transactions.load(std::memory_order_relaxed);
    }
  }
  if (any_dead) reap_dead_locked(now_us);

  // Journal on a bounded cadence: the snapshot trails live state by at most
  // journal_period_quanta elections. A failed write (the writer already
  // retried it as a whole-file replacement, docs/ROBUSTNESS.md §9.3) is
  // advisory; a streak of them trips journal-less mode — one typed event,
  // the degraded gauge, and no further quantum paying for doomed I/O.
  // Elections continue unaffected either way.
  if (journal_ != nullptr &&
      ++quanta_since_journal_ >= std::max(1, cfg_.journal_period_quanta)) {
    quanta_since_journal_ = 0;
    core::ManagerSnapshot& snap = journal_snapshot_;
    manager_.snapshot(snap);
    if (journal_->append(snap)) {
      journal_fail_streak_ = 0;
      if (m_journal_appends_ != nullptr) m_journal_appends_->inc();
    } else {
      if (m_journal_errors_ != nullptr) m_journal_errors_->inc();
      if (++journal_fail_streak_ >= std::max(1, cfg_.journal_failure_limit)) {
        journal_.reset();
        journal_degraded_.store(true, std::memory_order_relaxed);
        count_fault(obs::FaultKind::kJournalDegraded, -1,
                    static_cast<double>(journal_fail_streak_), now_us);
      }
    }
  }

  // Mirror the installed injector's counters into gauges once per quantum,
  // so soaks read injection totals from the same registry as every other
  // instrument. No injector (the production state) leaves them at zero.
  if (m_sysfail_injected_ != nullptr) {
    if (const faults::SysFailInjector* inj = faults::sysfail()) {
      const faults::SysFailStats s = inj->stats();
      m_sysfail_injected_->set(static_cast<double>(s.injected));
      if (m_sysfail_clock_clamped_ != nullptr) {
        m_sysfail_clock_clamped_->set(static_cast<double>(s.clock_clamped));
      }
    }
  }
}

void ManagerServer::loop() {
  const std::uint64_t quantum = cfg_.manager.quantum_us;
  const int per_quantum = std::max(1, cfg_.manager.samples_per_quantum);
  const std::uint64_t sample_interval =
      quantum / static_cast<std::uint64_t>(per_quantum);
  // Deadline of the current quantum's next sample point.
  const auto next_sample_us = [&] {
    return quantum_start_us_ +
           sample_interval * static_cast<std::uint64_t>(samples_taken_ + 1);
  };

  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) return;
      pollfds_.resize(2 + apps_.size());
      for (std::size_t i = 0; i < apps_.size(); ++i) {
        pollfds_[i + 2] = {apps_[i]->sock, POLLIN, 0};
      }
    }

    // Sleep until the next absolute deadline on the quantum grid: the
    // next sample point, or the boundary once this quantum's sample points
    // have passed. The wait is computed from the shim clock, in µs, so an
    // injected clock leap moves it exactly as it moves the grid.
    const std::uint64_t now = monotonic_now_us();
    std::uint64_t wake_at = samples_taken_ + 1 < per_quantum
                                ? next_sample_us()
                                : quantum_start_us_ + quantum;
    pollfds_[0] = {listen_fd_, POLLIN, 0};
    if (accept_retry_at_us_ > now) {
      // Accept backoff: a hard accept() failure (EMFILE/ENFILE) leaves the
      // listen fd permanently readable. Park it — poll ignores negative
      // fds — until the backoff expires, but wake no later than expiry so
      // a freed descriptor is picked up promptly.
      pollfds_[0].fd = -1;
      wake_at = std::min(wake_at, accept_retry_at_us_);
    }
    pollfds_[1] = {wake_pipe_[0], POLLIN, 0};
    const std::uint64_t wait_us = wake_at > now ? wake_at - now : 0;
    const timespec timeout{static_cast<time_t>(wait_us / 1'000'000),
                           static_cast<long>(wait_us % 1'000'000 * 1000)};

    const int rc =
        ::ppoll(pollfds_.data(), pollfds_.size(), &timeout, nullptr);
    if (rc < 0 && errno != EINTR) return;

    if (rc > 0) {
      if ((pollfds_[1].revents & POLLIN) != 0) return;  // stop requested
      // Client messages / disconnects. pollfds_[i+2] corresponds to
      // apps_[i] at poll time; handle back-to-front so erasures keep
      // indices valid. This runs *before* accept_connection(): admission
      // may load-shed an arbitrary apps_ entry and push a newcomer, which
      // would shift every index above the victim and re-point the old last
      // slot at the new socket — the poll-time mapping would then read (or
      // drop) the wrong app. The fd identity check guards the same
      // invariant against any future mid-round mutation.
      for (std::size_t i = pollfds_.size(); i-- > 2;) {
        const pollfd& pfd = pollfds_[i];
        const std::size_t app_idx = i - 2;
        if (app_idx >= apps_.size() || apps_[app_idx]->sock != pfd.fd) {
          continue;  // apps_ mutated since poll time; stale pollfd
        }
        if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        if ((pfd.revents & POLLIN) != 0 && handle_client(app_idx)) {
          continue;
        }
        drop_client(app_idx);
      }
      if ((pollfds_[0].revents & POLLIN) != 0) accept_connection();
    }

    const std::uint64_t after = monotonic_now_us();
    if (after >= quantum_start_us_ + quantum) {
      sample_running(after);
      quantum_boundary(after);
    } else if (samples_taken_ + 1 < per_quantum && after >= next_sample_us()) {
      sample_running(after);
      // One sample covers every sample point this wake-up passed.
      samples_taken_ = static_cast<int>(
          std::min<std::uint64_t>((after - quantum_start_us_) / sample_interval,
                                  static_cast<std::uint64_t>(per_quantum - 1)));
    }
  }
}

std::uint64_t ManagerServer::elections() const {
  std::lock_guard<std::mutex> lk(mu_);
  return elections_;
}

std::size_t ManagerServer::connected_apps() const {
  std::lock_guard<std::mutex> lk(mu_);
  return apps_.size();
}

std::size_t ManagerServer::pending_restores() const {
  std::lock_guard<std::mutex> lk(mu_);
  return manager_.pending_restores();
}

std::vector<std::string> ManagerServer::running_app_names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> names;
  for (const auto& app : apps_) {
    if (app->manager_id < 0) continue;
    const auto& running = manager_.running();
    if (std::find(running.begin(), running.end(), app->manager_id) !=
        running.end()) {
      names.push_back(app->name);
    }
  }
  return names;
}

std::vector<std::pair<std::string, double>> ManagerServer::estimates() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<std::string, double>> out;
  for (const auto& app : apps_) {
    if (app->manager_id < 0) continue;
    out.emplace_back(app->name, manager_.policy_estimate(app->manager_id));
  }
  return out;
}

}  // namespace bbsched::runtime
