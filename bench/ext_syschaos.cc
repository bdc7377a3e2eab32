// Extension: seeded syscall-chaos soak against a live manager
// (docs/ROBUSTNESS.md §9, `ctest -L syschaos`).
//
// Every control-plane syscall the runtime performs goes through the
// faults::sys shim; this bench turns the shim hostile for a sweep of
// seeded schedules — EINTR storms, short reads/writes mid-frame, EAGAIN,
// EMFILE on accept, ENOSPC on journal appends, CLOCK_MONOTONIC jumps —
// while two honest applications keep crediting transactions. Hard
// assertions per schedule and for the run as a whole:
//
//   * the manager survives every schedule and its election loop keeps
//     advancing (a stalled loop fails the schedule);
//   * honest applications stay attached and make forward progress in at
//     least one schedule of every mix class (individual handshakes may
//     be refused by injected EMFILE — that is the fault model working);
//   * injected faults are *accounted*: the injector's own counters are
//     non-zero and the journal schedule ends journal-less (degraded
//     gauge raised), never with a dead manager;
//   * the process's fd table returns to its pre-soak baseline — no
//     descriptor leaks across ~two dozen server lifecycles under fault.
//
// Usage: ext_syschaos [--fast] [--csv] [--seed=N] [--schedules=N]
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>

#include "experiments/cli.h"
#include "faults/sysfail.h"
#include "obs/metrics.h"
#include "runtime/client.h"
#include "runtime/manager_server.h"

namespace {

using namespace bbsched;

struct Options {
  bool fast = false;
  bool csv = false;
  std::uint64_t seed = 42;
  int schedules = 0;  ///< 0 = default per --fast
};

struct ScheduleResult {
  int schedule = 0;
  std::uint64_t seed = 0;
  std::uint64_t elections = 0;
  std::uint64_t honest_iters = 0;
  int attached = 0;
  std::uint64_t injected = 0;
  std::uint64_t eintr = 0;
  std::uint64_t short_io = 0;
  std::uint64_t clock_clamped = 0;
  bool journal_degraded = false;
  bool ok = false;
};

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

template <typename Pred>
bool eventually(Pred&& pred, std::uint64_t budget_ms = 15'000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    sleep_ms(5);
  }
  return pred();
}

int count_open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n - 1;  // the fd opendir itself holds
}

std::string unique_path(int k, const char* what) {
  return "/tmp/bbsched-ext-syschaos-" + std::to_string(::getpid()) + "-" +
         std::to_string(k) + "." + what;
}

/// Schedule `i`'s fault mix. Every fourth schedule is the journal-ENOSPC
/// scenario (append + rotation failures until the manager degrades to
/// journal-less operation); the rest blend transfer-level noise, admission
/// failures and clock jumps with per-schedule intensity.
faults::SysFailConfig mix_for(int i, std::uint64_t base_seed,
                              bool* journal_schedule) {
  faults::SysFailConfig cfg;
  cfg.enabled = true;
  cfg.seed = base_seed + 0x9e3779b97f4a7c15ULL *
                             static_cast<std::uint64_t>(i + 1);
  *journal_schedule = (i % 4) == 3;
  if (*journal_schedule) {
    cfg.journal_fail_prob = 1.0;
    cfg.eintr_prob = 0.05;
    return cfg;
  }
  cfg.eintr_prob = 0.04 + 0.04 * (i % 4);
  cfg.max_eintr_burst = 4;
  cfg.short_io_prob = 0.05 + 0.05 * (i % 3);
  cfg.eagain_prob = (i % 5 == 0) ? 0.02 : 0.0;
  cfg.accept_fail_prob = (i % 4 == 0) ? 0.10 : 0.0;
  cfg.clock_jump_prob = 0.03 * (i % 3);
  cfg.clock_jump_max_us = 50'000;
  return cfg;
}

ScheduleResult run_schedule(int i, const Options& opt) {
  ScheduleResult out;
  out.schedule = i;

  bool journal_schedule = false;
  const faults::SysFailConfig fcfg =
      mix_for(i, opt.seed, &journal_schedule);
  out.seed = fcfg.seed;
  faults::ScopedSysFail scoped(fcfg);

  const std::string sock_path = unique_path(i, "sock");
  const std::string journal_path = unique_path(i, "journal");
  ::unlink(sock_path.c_str());
  ::unlink(journal_path.c_str());

  obs::MetricsRegistry metrics;
  runtime::ServerConfig cfg;
  cfg.socket_path = sock_path;
  cfg.manager.quantum_us = 20'000;
  cfg.nprocs = 1;
  cfg.metrics = &metrics;
  if (journal_schedule) {
    cfg.journal_path = journal_path;
    cfg.journal_period_quanta = 1;
    cfg.journal_failure_limit = 2;
  }
  runtime::ManagerServer server(cfg);
  if (!server.start()) {
    std::fprintf(stderr, "ext_syschaos: server start failed (schedule %d)\n",
                 i);
    return out;
  }

  std::atomic<bool> stop{false};
  std::atomic<int> attached{0};
  std::atomic<std::uint64_t> iters{0};
  std::vector<std::thread> apps;
  for (int a = 0; a < 2; ++a) {
    apps.emplace_back([&, a] {
      runtime::Client client;
      const runtime::ConnectRetry retry{
          .attempts = 5,
          .backoff = {.initial_us = 10'000,
                      .seed = opt.seed + static_cast<std::uint64_t>(a)}};
      if (!client.connect(sock_path, "honest" + std::to_string(a), 1,
                          retry)) {
        return;  // refused under injection: the server must still survive
      }
      attached.fetch_add(1);
      if (!client.ready()) return;
      const int slot = client.leader_counter_slot();
      while (!stop.load(std::memory_order_relaxed)) {
        if (slot >= 0) client.credit(slot, 400);
        iters.fetch_add(1, std::memory_order_relaxed);
        sleep_ms(1);
      }
      client.unregister_worker();
      client.disconnect();
    });
  }

  // Liveness: the election loop must keep ticking under the storm.
  const std::uint64_t before = server.elections();
  const bool advanced =
      eventually([&] { return server.elections() >= before + 5; });

  bool degraded_ok = true;
  if (journal_schedule) {
    degraded_ok = eventually([&] { return server.journal_degraded(); });
    out.journal_degraded = server.journal_degraded();
  }

  sleep_ms(opt.fast ? 100 : 400);

  stop.store(true);
  for (std::thread& t : apps) t.join();
  out.elections = server.elections();
  server.stop();
  ::unlink(sock_path.c_str());
  ::unlink(journal_path.c_str());

  const faults::SysFailStats stats = scoped.injector().stats();
  out.injected = stats.injected;
  out.eintr = stats.eintr;
  out.short_io = stats.short_io;
  out.clock_clamped = stats.clock_clamped;
  out.honest_iters = iters.load();
  out.attached = attached.load();
  out.ok = advanced && degraded_ok;
  if (!advanced) {
    std::fprintf(stderr,
                 "ext_syschaos: election loop stalled (schedule %d)\n", i);
  }
  if (!degraded_ok) {
    std::fprintf(
        stderr,
        "ext_syschaos: journal ladder never degraded (schedule %d)\n", i);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  experiments::parse_flags(
      argc, argv,
      {{"--fast", "", "8 schedules and shorter windows (smoke run)",
        experiments::set_true(opt.fast)},
       {"--csv", "", "print the table as CSV", experiments::set_true(opt.csv)},
       {"--seed", "N", "schedule seed (default 42)",
        experiments::number(opt.seed)},
       {"--schedules", "N",
        "schedules to run, >= 1 (default 24, 8 with --fast)",
        experiments::number(opt.schedules, 1)}});
  const int schedules =
      opt.schedules > 0 ? opt.schedules : (opt.fast ? 8 : 24);

  const int fd_baseline = count_open_fds();
  std::vector<ScheduleResult> rows;
  rows.reserve(static_cast<std::size_t>(schedules));
  for (int i = 0; i < schedules; ++i) rows.push_back(run_schedule(i, opt));

  // Descriptor census: every socket, arena and journal fd opened across the
  // soak must be closed again (cleanup may trail the last join briefly).
  int fd_after = count_open_fds();
  for (int retry = 0; retry < 200 && fd_after != fd_baseline; ++retry) {
    sleep_ms(10);
    fd_after = count_open_fds();
  }

  if (opt.csv) {
    std::printf(
        "schedule,seed,elections,honest_iters,attached,injected,eintr,"
        "short_io,clock_clamped,journal_degraded,ok\n");
    for (const ScheduleResult& r : rows) {
      std::printf("%d,%llu,%llu,%llu,%d,%llu,%llu,%llu,%llu,%d,%d\n",
                  r.schedule, static_cast<unsigned long long>(r.seed),
                  static_cast<unsigned long long>(r.elections),
                  static_cast<unsigned long long>(r.honest_iters),
                  r.attached, static_cast<unsigned long long>(r.injected),
                  static_cast<unsigned long long>(r.eintr),
                  static_cast<unsigned long long>(r.short_io),
                  static_cast<unsigned long long>(r.clock_clamped),
                  r.journal_degraded ? 1 : 0, r.ok ? 1 : 0);
    }
  } else {
    std::printf(
        "%-9s %-10s %-10s %-12s %-8s %-9s %-9s %-9s %s\n", "schedule",
        "elections", "iters", "attached", "inject", "eintr", "short",
        "clamped", "status");
    for (const ScheduleResult& r : rows) {
      std::printf(
          "%-9d %-10llu %-10llu %-12d %-8llu %-9llu %-9llu %-9llu %s%s\n",
          r.schedule, static_cast<unsigned long long>(r.elections),
          static_cast<unsigned long long>(r.honest_iters), r.attached,
          static_cast<unsigned long long>(r.injected),
          static_cast<unsigned long long>(r.eintr),
          static_cast<unsigned long long>(r.short_io),
          static_cast<unsigned long long>(r.clock_clamped),
          r.ok ? "ok" : "FAIL",
          r.journal_degraded ? " (journal-less)" : "");
    }
  }

  bool pass = true;
  std::uint64_t total_injected = 0;
  int total_attached = 0;
  for (const ScheduleResult& r : rows) {
    pass = pass && r.ok;
    total_injected += r.injected;
    total_attached += r.attached;
  }
  if (total_injected == 0) {
    std::fprintf(stderr, "ext_syschaos: no faults were injected at all\n");
    pass = false;
  }
  if (total_attached == 0) {
    std::fprintf(stderr,
                 "ext_syschaos: no honest client ever attached — the soak "
                 "measured nothing\n");
    pass = false;
  }
  if (fd_after != fd_baseline) {
    std::fprintf(stderr, "ext_syschaos: fd census drifted %d -> %d\n",
                 fd_baseline, fd_after);
    pass = false;
  }
  if (!pass) {
    std::fprintf(stderr, "ext_syschaos: FAILED\n");
    return 1;
  }
  std::printf(
      "%d schedules survived, %llu sysfaults accounted, fd census stable "
      "(%d)\n",
      schedules, static_cast<unsigned long long>(total_injected),
      fd_baseline);
  return 0;
}
