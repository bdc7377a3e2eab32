#include "runtime/client.h"

#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <unistd.h>

#include "faults/sysfail.h"
#include "runtime/protocol.h"
#include "runtime/signal_gate.h"

namespace bbsched::runtime {

Client::~Client() {
  disconnect();
  for (Arena* arena : mapped_) arena_unmap(arena);
}

bool Client::connect(const std::string& socket_path, const std::string& name,
                     int nthreads, const ConnectRetry& retry) {
  Backoff backoff(retry.backoff);
  for (int attempt = 0;; ++attempt) {
    if (connect(socket_path, name, nthreads)) {
      last_connect_retries_ = attempt;
      return true;
    }
    if (attempt + 1 >= retry.attempts) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(backoff.next_us()));
  }
}

namespace {

/// Dials the manager's UNIX socket; -1 on failure.
int dial(const std::string& socket_path) {
  const int sock = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (sock < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    ::close(sock);
    return -1;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(sock);
    return -1;
  }
  // Bound the handshake: a manager that accepts but never answers (e.g.
  // SIGSTOPped mid-restart) must not hang the caller forever.
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(sock, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return sock;
}

/// Hello/Reattach handshake on an already-dialed socket: sends the request,
/// receives HelloAck + arena fd, maps and validates the arena. On success
/// fills *arena_out / *ack_out / *generation_out and returns true; on any
/// failure closes nothing but the resources it created itself. A typed
/// manager rejection (kHelloNack) stores its HelloNackReason in *nack_out.
bool handshake(int sock, MsgType type, std::uint32_t generation,
               std::int32_t pid, std::int32_t leader_tid, int nthreads,
               const std::string& name, Arena** arena_out, HelloAck* ack_out,
               std::uint32_t* generation_out, std::int32_t* nack_out) {
  HelloMsg hello{};
  hello.pid = pid;
  hello.leader_tid = leader_tid;
  hello.nthreads = nthreads;
  std::strncpy(hello.name, name.c_str(), sizeof(hello.name) - 1);
  if (!send_msg(sock, type, generation, &hello, sizeof(hello))) return false;

  MsgHeader hdr{};
  HelloAck ack{};
  int arena_fd = -1;
  const RecvStatus st = recv_msg(sock, hdr, &ack, sizeof(ack), &arena_fd);
  if (st == RecvStatus::kOk &&
      hdr.type == static_cast<std::uint16_t>(MsgType::kHelloNack)) {
    // The manager refused admission and said why (overload, rate limit,
    // invalid hello). The raw bytes arrived in `ack`'s buffer.
    HelloNackMsg nack{};
    static_assert(sizeof(nack) <= sizeof(ack), "nack reuses the ack buffer");
    std::memcpy(static_cast<void*>(&nack), static_cast<const void*>(&ack),
                sizeof(nack));
    if (nack_out != nullptr) *nack_out = nack.reason;
    if (arena_fd >= 0) ::close(arena_fd);
    return false;
  }
  if (st != RecvStatus::kOk ||
      hdr.type != static_cast<std::uint16_t>(MsgType::kHelloAck) ||
      arena_fd < 0) {
    if (arena_fd >= 0) ::close(arena_fd);
    return false;
  }

  // Mapping can fail under memory pressure (ENOMEM): a false return here
  // feeds the caller's normal connect-retry path — transient exhaustion
  // costs a retry, not the process.
  Arena* arena = arena_map(arena_fd);
  ::close(arena_fd);  // the mapping keeps the memory alive
  if (arena == nullptr) return false;
  if (arena->magic != Arena::kMagic) {
    arena_unmap(arena);
    return false;
  }
  *arena_out = arena;
  *ack_out = ack;
  *generation_out = hdr.generation;
  return true;
}

}  // namespace

bool Client::connect(const std::string& socket_path, const std::string& name,
                     int nthreads) {
  assert(sock_.load(std::memory_order_relaxed) < 0 && "already connected");
  assert(nthreads >= 1);

  SignalGate::instance().install();

  const int sock = dial(socket_path);
  if (sock < 0) return false;

  // The connecting (leader) thread receives the manager's signals. Use the
  // caller's own tid — several clients can coexist in one process (each a
  // logical "application"), so the gate-wide leader is not necessarily us.
  const auto leader_tid =
      static_cast<std::int32_t>(::syscall(SYS_gettid));

  Arena* arena = nullptr;
  HelloAck ack{};
  std::uint32_t gen = 0;
  std::int32_t nack = 0;
  last_nack_reason_.store(0, std::memory_order_relaxed);
  if (!handshake(sock, MsgType::kHello, 0, ::getpid(), leader_tid, nthreads,
                 name, &arena, &ack, &gen, &nack)) {
    last_nack_reason_.store(nack, std::memory_order_relaxed);
    ::close(sock);
    return false;
  }

  socket_path_ = socket_path;
  name_ = name;
  leader_tid_ = leader_tid;
  generation_.store(gen, std::memory_order_relaxed);
  update_period_us_.store(ack.update_period_us, std::memory_order_relaxed);
  nthreads_ = nthreads;
  mapped_.push_back(arena);
  arena_.store(arena, std::memory_order_release);
  sock_.store(sock, std::memory_order_release);
  unmanaged_.store(false, std::memory_order_relaxed);
  // Re-engage the gate in case a previous manager died and released it.
  if (SignalGate::instance().released()) SignalGate::instance().rearm();

  // The connecting thread is the leader worker: the manager signals it and
  // it forwards to siblings registered later.
  register_worker();
  return true;
}

int Client::register_worker() {
  SignalGate::instance().register_current_thread(&arena_);
  const int slot = perfctr::global_counters().register_thread();
  {
    std::lock_guard<std::mutex> lk(mu_);
    counter_slots_.push_back(slot);
  }
  Arena* arena = arena_.load(std::memory_order_relaxed);
  if (arena != nullptr) {
    arena->threads_registered.fetch_add(1, std::memory_order_relaxed);
  }
  return slot;
}

void Client::unregister_worker() {
  SignalGate::instance().unregister_current_thread();
}

std::uint64_t Client::total_transactions() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = 0;
  for (int slot : counter_slots_) {
    total += perfctr::global_counters().read(slot);
  }
  return total;
}

bool Client::ready() {
  const int sock = sock_.load(std::memory_order_relaxed);
  if (sock < 0) return false;
  ReadyMsg msg{};
  if (!send_msg(sock, MsgType::kReady,
                generation_.load(std::memory_order_relaxed), &msg,
                sizeof(msg))) {
    return false;
  }

  stop_updater_.store(false, std::memory_order_relaxed);
  updater_ = std::thread([this] { updater_loop(); });
  return true;
}

bool Client::interruptible_sleep_us(std::uint64_t us) {
  // Sleep in short slices so disconnect() never waits out a whole backoff.
  constexpr std::uint64_t kSliceUs = 10'000;
  while (us > 0) {
    if (stop_updater_.load(std::memory_order_relaxed)) return false;
    const std::uint64_t slice = us < kSliceUs ? us : kSliceUs;
    std::this_thread::sleep_for(std::chrono::microseconds(slice));
    us -= slice;
  }
  return !stop_updater_.load(std::memory_order_relaxed);
}

bool Client::try_reattach() {
  const int sock = dial(socket_path_);
  if (sock < 0) return false;

  Arena* arena = nullptr;
  HelloAck ack{};
  std::uint32_t gen = 0;
  std::int32_t nack = 0;
  // A reattach announces the same identity the dead manager knew — above
  // all the original leader tid, so the new generation signals the same
  // thread and the workers never restart.
  if (!handshake(sock, MsgType::kReattach,
                 generation_.load(std::memory_order_relaxed), ::getpid(),
                 leader_tid_, nthreads_, name_, &arena, &ack, &gen, &nack)) {
    if (nack != 0) last_nack_reason_.store(nack, std::memory_order_relaxed);
    ::close(sock);
    return false;
  }

  // The workers are already registered; tell the fresh arena directly.
  arena->threads_registered.store(
      static_cast<std::uint32_t>(nthreads_), std::memory_order_relaxed);

  ReadyMsg msg{};
  if (!send_msg(sock, MsgType::kReady, gen, &msg, sizeof(msg))) {
    arena_unmap(arena);
    ::close(sock);
    return false;
  }

  // The old arena stays mapped: a signal handler may still be reading it.
  mapped_.push_back(arena);
  arena_.store(arena, std::memory_order_release);
  const int old_sock = sock_.exchange(sock, std::memory_order_acq_rel);
  if (old_sock >= 0) ::close(old_sock);
  update_period_us_.store(ack.update_period_us, std::memory_order_relaxed);
  generation_.store(gen, std::memory_order_relaxed);

  // Back under gang gating: re-arm the gate the death path released.
  if (SignalGate::instance().released()) SignalGate::instance().rearm();
  unmanaged_.store(false, std::memory_order_relaxed);
  reattaches_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void Client::updater_loop() {
  // Publishes the accumulated transaction count at the manager-requested
  // period. Deliberately NOT registered with the signal gate: the paper's
  // arena must stay fresh so the manager can always read a consistent
  // cumulative value.
  Backoff backoff(reattach_.backoff);
  while (!stop_updater_.load(std::memory_order_relaxed)) {
    Arena* arena = arena_.load(std::memory_order_relaxed);
    arena->transactions.store(total_transactions(),
                              std::memory_order_relaxed);
    arena->heartbeats.fetch_add(1, std::memory_order_relaxed);

    // Manager liveness: an EOF (or hard error) on the socket means the
    // manager is gone. Release the signal gate so no worker stays suspended
    // forever — the application free-runs under the kernel scheduler
    // (docs/ROBUSTNESS.md) and, with a reattach budget, retries the
    // connection against the manager's next generation.
    char probe = 0;
    const ssize_t n =
        faults::sys::recv(sock_.load(std::memory_order_relaxed), &probe, 1,
                          MSG_PEEK | MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR)) {
      unmanaged_.store(true, std::memory_order_relaxed);
      SignalGate::instance().release_all();
      if (reattach_.attempts <= 0) return;  // permanent free-run

      // Reattach under the backoff: the supervisor needs time to restart
      // the manager, and the jitter keeps a herd of clients out of lockstep.
      bool back = false;
      backoff.reset();
      for (int attempt = 0; attempt < reattach_.attempts; ++attempt) {
        if (try_reattach()) {
          back = true;
          break;
        }
        if (!interruptible_sleep_us(backoff.next_us())) return;
      }
      if (!back) return;  // budget spent: permanent free-run
      continue;           // reattached — resume publishing immediately
    }
    const std::uint64_t period_us =
        update_period_us_.load(std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::microseconds(period_us > 0 ? period_us : 100000));
  }
}

void Client::disconnect() {
  if (updater_.joinable()) {
    stop_updater_.store(true, std::memory_order_relaxed);
    updater_.join();
  }
  const int sock = sock_.exchange(-1, std::memory_order_acq_rel);
  if (sock >= 0) ::close(sock);
  // The workers now read "run"; the arena stays mapped until destruction.
  arena_.store(nullptr, std::memory_order_release);
}

}  // namespace bbsched::runtime
