// Extension: manager crash recovery soak (docs/ROBUSTNESS.md §7).
//
// The paper's CPU manager is a single point of failure: §4 runs it as one
// server process and never discusses what happens when it dies. This bench
// measures exactly that, in two phases:
//
//   1. Deterministic reattach — an in-process manager (generation 1) learns
//      bandwidth estimates, journals them, and is cleanly torn down; a
//      second generation restores the journal and the client reattaches
//      without restarting its threads. This phase emits the Recovery /
//      Reattach trace events that tools/trace_validate pairs up.
//
//   2. Process-level chaos — the manager runs as a supervised child while a
//      seeded RuntimeFaultPlan SIGKILLs it, SIGSTOPs it past the watchdog
//      budget, and feeds the socket corrupt frames. Liveness invariants are
//      asserted hard: every application reattaches to every new generation
//      within its backoff budget, the supervisor never trips its breaker,
//      and the workload keeps making progress after recovery.
//
// Throughput comparison (post-recovery vs crash-free window) is always
// *reported*; the 5% gate is only *enforced* under --strict, because on a
// single-CPU CI container wall-clock throughput is noisy in ways that have
// nothing to do with recovery.
//
// Usage: ext_recovery [--fast] [--strict] [--seed=N]
//                     [--json-out=FILE] [--trace-out=FILE]
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <vector>

#include "experiments/cli.h"
#include "faults/runtime_fault_plan.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "runtime/client.h"
#include "runtime/manager_server.h"
#include "runtime/protocol.h"
#include "runtime/supervisor.h"
#include "stats/rng.h"

namespace {

using namespace bbsched;

struct Options {
  bool fast = false;
  bool strict = false;
  std::uint64_t seed = 42;
  std::string json_out;
  std::string trace_out;
};

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string unique_path(const char* stem) {
  return std::string("/tmp/bbsched-") + stem + "-" +
         std::to_string(::getpid());
}

/// Bounded poll-until-predicate (same idiom as the tests): no fixed sleeps.
template <typename Pred>
bool eventually(Pred&& pred, std::uint64_t budget_ms = 20'000,
                std::uint64_t step_ms = 10) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    sleep_ms(step_ms);
  }
  return pred();
}

int raw_connect(const std::string& path) {
  const int sock = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (sock < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(sock);
    return -1;
  }
  return sock;
}

// ---------------------------------------------------------------------------
// Phase 1: deterministic in-process restart + reattach.
// ---------------------------------------------------------------------------

struct ReattachResult {
  bool ok = false;
  int restored_feeds = 0;
  int client_reattaches = 0;
  std::uint32_t client_generation = 0;
  double adopted_estimate_tps = 0.0;
};

ReattachResult run_inprocess_reattach(obs::Tracer& tracer,
                                      obs::MetricsRegistry& metrics) {
  ReattachResult out;
  const std::string sock_path = unique_path("recovery-inproc.sock");
  const std::string journal_path = unique_path("recovery-inproc.journal");
  ::unlink(sock_path.c_str());
  ::unlink(journal_path.c_str());

  runtime::ServerConfig cfg;
  cfg.socket_path = sock_path;
  cfg.manager.quantum_us = 40'000;
  cfg.nprocs = 1;
  cfg.generation = 1;
  cfg.journal_path = journal_path;
  cfg.journal_period_quanta = 1;  // journal every quantum: tight bound
  cfg.tracer = &tracer;
  cfg.metrics = &metrics;

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  runtime::Client client;

  auto server1 = std::make_unique<runtime::ManagerServer>(cfg);
  if (!server1->start()) {
    std::fprintf(stderr, "ext_recovery: phase1 server start failed\n");
    return out;
  }

  std::thread app([&] {
    runtime::ConnectRetry retry;
    retry.attempts = 100;
    retry.initial_backoff_us = 10'000;
    retry.max_backoff_us = 100'000;
    runtime::Client& c = client;
    c.set_reattach(retry);
    if (!c.connect(sock_path, "survivor", 1, retry) || !c.ready()) {
      failed.store(true);
      return;
    }
    const int slot = c.leader_counter_slot();
    while (!stop.load(std::memory_order_relaxed)) {
      c.credit(slot, 400);
      sleep_ms(1);
    }
    c.disconnect();
  });

  // Let generation 1 observe the feed and journal it.
  bool warm = eventually(
      [&] { return server1->elections() >= 4 && client.connected(); });
  server1->stop();  // clean teardown: client sees EOF, starts reattaching
  server1.reset();

  runtime::ServerConfig cfg2 = cfg;
  cfg2.generation = 2;
  runtime::ManagerServer server2(cfg2);
  if (!server2.start()) {
    std::fprintf(stderr, "ext_recovery: phase1 restart failed\n");
    stop.store(true);
    app.join();
    return out;
  }
  out.restored_feeds = server2.restored_feeds();

  const bool reattached = eventually([&] {
    return client.generation() == 2 && client.reattaches() >= 1 &&
           server2.connected_apps() == 1 && server2.pending_restores() == 0;
  });
  for (const auto& [name, est] : server2.estimates()) {
    if (name == "survivor") out.adopted_estimate_tps = est;
  }
  out.client_reattaches = client.reattaches();
  out.client_generation = client.generation();

  stop.store(true);
  app.join();
  server2.stop();
  ::unlink(journal_path.c_str());

  out.ok = warm && reattached && !failed.load() && out.restored_feeds == 1;
  return out;
}

// ---------------------------------------------------------------------------
// Phase 2: supervised chaos soak.
// ---------------------------------------------------------------------------

struct SoakApp {
  std::string name;
  runtime::Client client;
  std::thread th;
  std::atomic<std::uint64_t> iters{0};
  std::atomic<bool> failed{false};
};

struct SoakResult {
  bool ok = false;
  std::vector<std::string> violations;
  int kills = 0;
  int stalls = 0;
  int corrupts_sent = 0;
  int corrupts_skipped = 0;
  int restarts = 0;
  std::uint64_t watchdog_kills = 0;
  bool gave_up = false;
  std::uint32_t final_generation = 0;
  double baseline_rate = 0.0;  ///< iterations/s, both apps, crash-free
  double post_rate = 0.0;      ///< iterations/s, both apps, post-recovery
  double delta_pct = 0.0;
  struct PerApp {
    std::string name;
    int reattaches = 0;
    std::uint32_t generation = 0;
  };
  std::vector<PerApp> apps;
};

SoakResult run_chaos_soak(const Options& opt, obs::Tracer& tracer,
                          obs::MetricsRegistry& metrics) {
  SoakResult out;
  const std::string sock_path = unique_path("recovery-soak.sock");
  const std::string journal_path = unique_path("recovery-soak.journal");
  ::unlink(sock_path.c_str());
  ::unlink(journal_path.c_str());

  runtime::SupervisorConfig scfg;
  scfg.server.socket_path = sock_path;
  scfg.server.manager.quantum_us = 40'000;
  scfg.server.nprocs = 1;  // 2 one-thread apps on 1 cpu: gang gating active
  scfg.server.journal_path = journal_path;
  scfg.server.journal_period_quanta = 2;
  scfg.initial_backoff_us = 30'000;
  scfg.max_backoff_us = 300'000;
  scfg.heartbeat_period_us = 20'000;
  scfg.heartbeat_miss_limit = 8;  // watchdog fires ~170 ms into a stall
  scfg.max_restarts = 64;         // breaker must never trip in this soak
  scfg.breaker_window_us = 120'000'000;
  scfg.seed = opt.seed;
  scfg.tracer = &tracer;
  scfg.metrics = &metrics;

  runtime::Supervisor sup(scfg);
  if (!sup.start()) {
    out.violations.push_back("supervisor failed to start");
    return out;
  }

  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<SoakApp>> apps;
  for (int i = 0; i < 2; ++i) {
    auto app = std::make_unique<SoakApp>();
    app->name = "soak" + std::to_string(i);
    apps.push_back(std::move(app));
  }
  for (std::size_t i = 0; i < apps.size(); ++i) {
    SoakApp* app = apps[i].get();
    app->th = std::thread([&, app, i] {
      runtime::ConnectRetry retry;
      retry.attempts = 120;
      retry.initial_backoff_us = 20'000;
      retry.max_backoff_us = 250'000;
      retry.seed = opt.seed ^ (0x9e3779b9ULL * (i + 1));
      app->client.set_reattach(retry);
      if (!app->client.connect(sock_path, app->name, 1, retry) ||
          !app->client.ready()) {
        app->failed.store(true);
        return;
      }
      const int slot = app->client.leader_counter_slot();
      while (!stop.load(std::memory_order_relaxed)) {
        app->client.credit(slot, 200);
        app->iters.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      app->client.disconnect();
    });
  }

  auto all_attached = [&] {
    for (const auto& app : apps) {
      if (app->failed.load()) return false;
      if (!app->client.connected() || app->client.unmanaged()) return false;
      if (app->client.generation() != sup.generation()) return false;
    }
    return sup.child_pid() > 0;
  };

  const std::uint64_t window_ms = opt.fast ? 800 : 1'200;
  auto measure_rate = [&](std::uint64_t ms) {
    std::uint64_t before = 0;
    for (const auto& app : apps) before += app->iters.load();
    sleep_ms(ms);
    std::uint64_t after = 0;
    for (const auto& app : apps) after += app->iters.load();
    return 1000.0 * static_cast<double>(after - before) /
           static_cast<double>(ms);
  };

  if (!eventually(all_attached)) {
    out.violations.push_back("apps never attached to generation 1");
  }
  out.baseline_rate = measure_rate(window_ms);

  faults::RuntimeFaultPlanConfig pcfg;
  pcfg.seed = opt.seed;
  pcfg.kills = opt.fast ? 3 : 5;
  pcfg.stalls = opt.fast ? 1 : 2;
  pcfg.corrupts = opt.fast ? 2 : 3;
  pcfg.min_gap_us = opt.fast ? 200'000 : 250'000;
  pcfg.max_gap_us = opt.fast ? 450'000 : 600'000;
  pcfg.stall_duration_us = 500'000;  // well past the watchdog budget
  const faults::RuntimeFaultPlan plan(pcfg);

  stats::Rng garbage_rng(opt.seed ^ 0xbadf00dULL);
  const auto chaos_start = std::chrono::steady_clock::now();
  for (const faults::RuntimeFaultEvent& ev : plan.events()) {
    std::this_thread::sleep_until(chaos_start +
                                  std::chrono::microseconds(ev.at_us));
    switch (ev.kind) {
      case faults::RuntimeFault::kKill:
        sup.kill_child(SIGKILL);
        ++out.kills;
        break;
      case faults::RuntimeFault::kStall:
        sup.kill_child(SIGSTOP);
        sleep_ms(ev.duration_us / 1000);
        // The watchdog normally SIGKILLs the stalled child first; this
        // CONT is then a no-op on its successor.
        sup.kill_child(SIGCONT);
        ++out.stalls;
        break;
      case faults::RuntimeFault::kCorrupt: {
        const int sock = raw_connect(sock_path);
        if (sock < 0) {
          ++out.corrupts_skipped;  // manager mid-restart: nothing to corrupt
          break;
        }
        unsigned char junk[64];
        for (unsigned char& b : junk) {
          b = static_cast<unsigned char>(garbage_rng.uniform(0.0, 256.0));
        }
        (void)runtime::send_all(sock, junk, sizeof(junk));
        ::close(sock);
        ++out.corrupts_sent;
        break;
      }
    }
  }

  // Recovery: every client must come back under the latest generation
  // within its backoff budget.
  if (!eventually(all_attached)) {
    out.violations.push_back(
        "not all apps reattached to the final generation after chaos");
  }
  out.post_rate = measure_rate(window_ms);

  out.restarts = sup.restarts();
  out.gave_up = sup.gave_up();
  out.final_generation = sup.generation();
  out.watchdog_kills = static_cast<std::uint64_t>(
      metrics.counter("server.recovery.watchdog_kills").value());
  for (const auto& app : apps) {
    out.apps.push_back(
        {app->name, app->client.reattaches(), app->client.generation()});
  }

  // ---- liveness invariants (hard) ----
  for (const auto& app : apps) {
    if (app->client.reattaches() < 1) {
      out.violations.push_back(app->name + " never reattached");
    }
    if (app->client.unmanaged()) {
      out.violations.push_back(app->name + " ended in permanent free-run");
    }
  }
  if (out.restarts < out.kills) {
    out.violations.push_back("supervisor restarted fewer times than kills");
  }
  if (out.gave_up) {
    out.violations.push_back("circuit breaker tripped during soak");
  }
  if (out.post_rate <= 0.0) {
    out.violations.push_back("no forward progress after recovery");
  }

  // ---- throughput gate (reported always, enforced only under --strict) --
  out.delta_pct = out.baseline_rate > 0.0
                      ? 100.0 * (out.post_rate - out.baseline_rate) /
                            out.baseline_rate
                      : 0.0;
  if (opt.strict && out.baseline_rate > 0.0 &&
      out.post_rate < 0.95 * out.baseline_rate) {
    out.violations.push_back("post-recovery throughput below 95% of baseline");
  }

  sup.stop();  // unblocks gated apps via clean child shutdown
  stop.store(true);
  for (auto& app : apps) app->th.join();
  ::unlink(journal_path.c_str());

  out.ok = out.violations.empty();
  return out;
}

void write_json(const Options& opt, const ReattachResult& ra,
                const SoakResult& soak) {
  std::FILE* f = std::fopen(opt.json_out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_out.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"reattach\": {\"ok\": %s, \"restored_feeds\": %d, "
               "\"client_reattaches\": %d, \"client_generation\": %u, "
               "\"adopted_estimate_tps\": %.4f},\n",
               ra.ok ? "true" : "false", ra.restored_feeds,
               ra.client_reattaches, ra.client_generation,
               ra.adopted_estimate_tps);
  std::fprintf(
      f,
      "  \"soak\": {\"ok\": %s, \"kills\": %d, \"stalls\": %d, "
      "\"corrupts_sent\": %d, \"corrupts_skipped\": %d, \"restarts\": %d, "
      "\"watchdog_kills\": %llu, \"gave_up\": %s, \"final_generation\": %u, "
      "\"baseline_rate\": %.1f, \"post_rate\": %.1f, \"delta_pct\": %.2f, "
      "\"strict\": %s,\n",
      soak.ok ? "true" : "false", soak.kills, soak.stalls, soak.corrupts_sent,
      soak.corrupts_skipped, soak.restarts,
      static_cast<unsigned long long>(soak.watchdog_kills),
      soak.gave_up ? "true" : "false", soak.final_generation,
      soak.baseline_rate, soak.post_rate, soak.delta_pct,
      opt.strict ? "true" : "false");
  std::fprintf(f, "    \"apps\": [\n");
  for (std::size_t i = 0; i < soak.apps.size(); ++i) {
    const auto& a = soak.apps[i];
    std::fprintf(f,
                 "      {\"name\": \"%s\", \"reattaches\": %d, "
                 "\"generation\": %u}%s\n",
                 a.name.c_str(), a.reattaches, a.generation,
                 i + 1 < soak.apps.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n    \"violations\": [");
  for (std::size_t i = 0; i < soak.violations.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i > 0 ? ", " : "",
                 soak.violations[i].c_str());
  }
  std::fprintf(f, "]\n  }\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", opt.json_out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  experiments::parse_flags(
      argc, argv,
      {{"--fast", "", "fewer faults and shorter windows (smoke run)",
        experiments::set_true(opt.fast)},
       {"--strict", "",
        "fail when post-recovery throughput degrades > 5%",
        experiments::set_true(opt.strict)},
       {"--seed", "N", "fault-plan seed (default 42)",
        experiments::number(opt.seed)},
       {"--json-out", "FILE", "write the soak results as JSON to FILE",
        experiments::set_text(opt.json_out)},
       {"--trace-out", "FILE", "write the Chrome trace of both phases",
        experiments::set_text(opt.trace_out)}});

  obs::Tracer tracer({.enabled = true});
  obs::MetricsRegistry metrics;

  std::printf("phase 1: journal restore + client reattach (in-process)\n");
  const ReattachResult ra = run_inprocess_reattach(tracer, metrics);
  std::printf(
      "  %s — restored_feeds=%d reattaches=%d generation=%u "
      "adopted_estimate=%.3f trans/us\n",
      ra.ok ? "ok" : "FAILED", ra.restored_feeds, ra.client_reattaches,
      ra.client_generation, ra.adopted_estimate_tps);

  std::printf("phase 2: supervised chaos soak (fork + signals)\n");
  const SoakResult soak = run_chaos_soak(opt, tracer, metrics);
  std::printf(
      "  %s — kills=%d stalls=%d corrupts=%d(+%d skipped) restarts=%d "
      "watchdog_kills=%llu generation=%u\n",
      soak.ok ? "ok" : "FAILED", soak.kills, soak.stalls, soak.corrupts_sent,
      soak.corrupts_skipped, soak.restarts,
      static_cast<unsigned long long>(soak.watchdog_kills),
      soak.final_generation);
  for (const auto& a : soak.apps) {
    std::printf("    %s: reattaches=%d generation=%u\n", a.name.c_str(),
                a.reattaches, a.generation);
  }
  std::printf("  throughput: baseline=%.0f iters/s post=%.0f iters/s "
              "(%.2f%%)%s\n",
              soak.baseline_rate, soak.post_rate, soak.delta_pct,
              opt.strict ? " [strict gate]" : "");
  for (const std::string& v : soak.violations) {
    std::fprintf(stderr, "  VIOLATION: %s\n", v.c_str());
  }

  if (!opt.json_out.empty()) write_json(opt, ra, soak);
  if (!opt.trace_out.empty() &&
      !obs::write_trace_file(opt.trace_out, tracer)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
    return 2;
  }
  return ra.ok && soak.ok ? 0 : 1;
}
