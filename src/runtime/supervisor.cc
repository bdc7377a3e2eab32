#include "runtime/supervisor.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "faults/sysfail.h"

namespace bbsched::runtime {

namespace {

// SIGTERM can be delivered on any of the child's threads (the manager
// spawns its own loop thread), so handler→main-loop visibility needs a
// lock-free atomic — volatile sig_atomic_t only covers a handler
// interrupting the same thread. Lock-free atomics are async-signal-safe.
std::atomic<int> g_child_term{0};

// bbsched:signal SIGTERM handler installed by the supervised child
void child_term_handler(int) {
  g_child_term.store(1, std::memory_order_relaxed);
}

/// Child-process body: run the manager, heartbeat the parent, exit 0 on
/// SIGTERM. Never returns. Uses _exit so the parent's atexit handlers and
/// static destructors (inherited by fork) run exactly once — in the parent.
[[noreturn]] void run_manager_child(const ServerConfig& server_cfg,
                                    std::uint64_t heartbeat_period_us,
                                    int heartbeat_wr) {
  g_child_term.store(0, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = child_term_handler;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  // Parent-side observability pointers are copies of parent memory here:
  // writable but invisible to the parent. Detach them — the child's own
  // story is told through the journal and the protocol.
  ServerConfig cfg = server_cfg;
  cfg.tracer = nullptr;
  cfg.metrics = nullptr;

  ManagerServer server(cfg);
  if (!server.start()) {
    ::close(heartbeat_wr);
    ::_exit(3);  // bind failed / live manager on the path: crash-restart
  }

  timespec period{};
  period.tv_sec = static_cast<time_t>(heartbeat_period_us / 1000000ULL);
  period.tv_nsec =
      static_cast<long>((heartbeat_period_us % 1000000ULL) * 1000ULL);
  while (g_child_term.load(std::memory_order_relaxed) == 0) {
    // 'h' = healthy; 'd' = alive but journal-less (the ENOSPC ladder gave
    // up) — the supervisor learns that the *next* restart will cold-start,
    // i.e. recovery fidelity is reduced, without a second channel.
    const char beat = server.journal_degraded() ? 'd' : 'h';
    const ssize_t n = faults::sys::write(heartbeat_wr, &beat, 1);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      break;  // parent is gone; no point outliving it
    }
    ::nanosleep(&period, nullptr);  // EINTR (SIGTERM) re-checks the flag
  }
  server.stop();
  ::close(heartbeat_wr);
  ::_exit(0);
}

}  // namespace

Supervisor::Supervisor(const SupervisorConfig& cfg)
    : cfg_(cfg), backoff_(cfg.backoff) {
  if (cfg_.metrics != nullptr) {
    m_restarts_ =
        &cfg_.metrics->counter("server.recovery.supervisor_restarts");
    m_watchdog_kills_ =
        &cfg_.metrics->counter("server.recovery.watchdog_kills");
    m_gave_up_ = &cfg_.metrics->gauge("server.recovery.supervisor_gave_up");
    m_fork_failures_ =
        &cfg_.metrics->counter("server.recovery.fork_failures");
    m_child_degraded_ =
        &cfg_.metrics->gauge("server.recovery.child_journal_degraded");
  }
}

Supervisor::~Supervisor() { stop(); }

bool Supervisor::kill_child(int sig) const {
  const pid_t pid = child_pid_.load(std::memory_order_relaxed);
  return pid > 0 && ::kill(pid, sig) == 0;
}

void Supervisor::close_heartbeat() {
  if (heartbeat_fd_ >= 0) {
    ::close(heartbeat_fd_);
    heartbeat_fd_ = -1;
  }
}

bool Supervisor::spawn_child() {
  int fds[2] = {-1, -1};
  // Both ends non-blocking: the parent drains without blocking, and a
  // full pipe (parent briefly behind) costs the child one heartbeat, not a
  // stall.
  if (::pipe2(fds, O_CLOEXEC | O_NONBLOCK) < 0) return false;

  ServerConfig child_cfg = cfg_.server;
  child_cfg.generation = generation_.load(std::memory_order_relaxed) + 1;

  const pid_t pid = faults::sys::fork();
  if (pid < 0) {
    const int saved = errno;
    ::close(fds[0]);
    ::close(fds[1]);
    errno = saved;  // the caller reports *fork's* errno, not close's
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    run_manager_child(child_cfg, cfg_.heartbeat_period_us, fds[1]);
  }
  ::close(fds[1]);
  heartbeat_fd_ = fds[0];
  generation_.store(child_cfg.generation, std::memory_order_relaxed);
  child_pid_.store(pid, std::memory_order_relaxed);
  // Each child reports its own journal health; a fresh one may journal
  // fine again once the disk recovers.
  child_degraded_.store(false, std::memory_order_relaxed);
  if (m_child_degraded_ != nullptr) m_child_degraded_->set(0.0);
  return true;
}

bool Supervisor::start() {
  if (monitor_.joinable()) return false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = false;
  }
  gave_up_.store(false, std::memory_order_relaxed);
  if (m_gave_up_ != nullptr) m_gave_up_->set(0.0);
  if (!spawn_child()) return false;
  if (cfg_.tracer != nullptr && cfg_.tracer->enabled()) {
    cfg_.tracer->supervisor_restart(monotonic_now_us(),
                                    {generation(), 0, 0, 0});
  }
  supervising_.store(true, std::memory_order_relaxed);
  monitor_ = std::thread([this] { monitor_loop(); });
  return true;
}

void Supervisor::stop() {
  if (!monitor_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // SIGCONT first: a SIGSTOPped child (chaos) cannot handle SIGTERM.
  const pid_t pid = child_pid_.load(std::memory_order_relaxed);
  if (pid > 0) {
    ::kill(pid, SIGCONT);
    ::kill(pid, SIGTERM);
  }
  monitor_.join();
}

bool Supervisor::breaker_allows(std::uint64_t now_us) {
  if (cfg_.max_restarts <= 0) return true;
  while (!restart_times_us_.empty() &&
         now_us - restart_times_us_.front() > cfg_.breaker_window_us) {
    restart_times_us_.pop_front();
  }
  return static_cast<int>(restart_times_us_.size()) < cfg_.max_restarts;
}

void Supervisor::monitor_loop() {
  int status = 0;
  for (;;) {
    const pid_t pid = child_pid_.load(std::memory_order_relaxed);
    bool exited = false;
    bool stop_requested = false;
    int misses = 0;

    while (!exited && !stop_requested) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        stop_requested = stopping_;
      }
      if (stop_requested) break;

      pollfd pfd{heartbeat_fd_, POLLIN, 0};
      const int timeout_ms =
          static_cast<int>(cfg_.heartbeat_period_us / 1000ULL) + 1;
      const int rc = ::poll(&pfd, 1, timeout_ms);
      if (rc < 0 && errno != EINTR) break;

      if (rc > 0) {
        char buf[64];
        ssize_t n;
        while ((n = faults::sys::read(heartbeat_fd_, buf, sizeof(buf))) > 0) {
          misses = 0;
          // A live heartbeat proves the restart took: reset the backoff so
          // the *next* crash starts from the minimum again.
          backoff_.reset();
          for (ssize_t i = 0; i < n; ++i) {
            if (buf[i] == 'd' && !child_degraded_.exchange(
                                     true, std::memory_order_relaxed)) {
              // The child runs journal-less: its successor cold-starts.
              if (m_child_degraded_ != nullptr) m_child_degraded_->set(1.0);
            }
          }
        }
        if (n == 0) {
          // EOF: the child closed its write end — it exited. Reap it.
          while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
          }
          exited = true;
        }
      } else if (rc == 0 && cfg_.heartbeat_miss_limit > 0 &&
                 ++misses >= cfg_.heartbeat_miss_limit && pid > 0) {
        // Hang watchdog: no heartbeat for the whole budget. A SIGSTOPped,
        // livelocked or deadlocked manager is operationally dead — kill it
        // (SIGKILL terminates stopped processes too) and restart. The
        // pid > 0 guard is structural: this loop is only entered with a
        // live child, but kill(-1) would signal every process we can reach
        // — worth a belt-and-braces check forever.
        ::kill(pid, SIGKILL);
        if (m_watchdog_kills_ != nullptr) m_watchdog_kills_->inc();
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        exited = true;
      }
    }

    if (stop_requested) {
      if (!exited && pid > 0) {
        // stop() already sent SIGCONT+SIGTERM. Give the child a bounded
        // grace period, then escalate.
        for (int i = 0; i < 200 && !exited; ++i) {
          if (::waitpid(pid, &status, WNOHANG) == pid) {
            exited = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (!exited) {
          ::kill(pid, SIGKILL);
          while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
          }
        }
      }
      close_heartbeat();
      child_pid_.store(-1, std::memory_order_relaxed);
      supervising_.store(false, std::memory_order_relaxed);
      return;
    }

    close_heartbeat();
    child_pid_.store(-1, std::memory_order_relaxed);

    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      // Clean shutdown is never restarted.
      supervising_.store(false, std::memory_order_relaxed);
      return;
    }

    // Respawn ladder: stay here until a child is actually running again.
    // fork() itself fails under pressure (EAGAIN/ENOMEM) — each failed
    // attempt counts toward the same circuit breaker and pays the same
    // jittered exponential backoff as a crashed child. The pre-ladder code
    // instead synthesized a crash status and re-entered the wait loop with
    // child_pid_ == -1, where the watchdog's kill() would have targeted
    // pid -1 (every reachable process) — and with the watchdog disabled it
    // polled a closed pipe forever.
    for (;;) {
      const std::uint64_t now = monotonic_now_us();
      if (!breaker_allows(now)) {
        // Restart (or fork-failure) storm: give up permanently. Clients
        // exhaust their reattach budgets and free-run — the documented
        // degraded mode.
        gave_up_.store(true, std::memory_order_relaxed);
        if (m_gave_up_ != nullptr) m_gave_up_->set(1.0);
        if (cfg_.tracer != nullptr && cfg_.tracer->enabled()) {
          cfg_.tracer->supervisor_restart(
              now, {generation() + 1,
                    restarts_.load(std::memory_order_relaxed), 0, 1});
        }
        supervising_.store(false, std::memory_order_relaxed);
        return;
      }

      const std::uint64_t backoff_taken = backoff_.next_us();
      if (std::unique_lock<std::mutex> lk(mu_);
          cv_.wait_for(lk, std::chrono::microseconds(backoff_taken),
                       [this] { return stopping_; })) {
        supervising_.store(false, std::memory_order_relaxed);
        return;  // stop() during the backoff; the child is already gone
      }
      restart_times_us_.push_back(monotonic_now_us());
      restarts_.fetch_add(1, std::memory_order_relaxed);
      if (m_restarts_ != nullptr) m_restarts_->inc();

      if (spawn_child()) {
        if (cfg_.tracer != nullptr && cfg_.tracer->enabled()) {
          cfg_.tracer->supervisor_restart(
              monotonic_now_us(),
              {generation(), restarts_.load(std::memory_order_relaxed),
               backoff_taken, 0});
        }
        break;  // a live child again; back to the wait loop
      }
      const int fork_errno = errno;
      fork_failures_.fetch_add(1, std::memory_order_relaxed);
      if (m_fork_failures_ != nullptr) m_fork_failures_->inc();
      if (cfg_.tracer != nullptr && cfg_.tracer->enabled()) {
        cfg_.tracer->fault(monotonic_now_us(),
                           {-1, obs::FaultKind::kForkFailure,
                            static_cast<double>(fork_errno)});
      }
    }
  }
}

}  // namespace bbsched::runtime
