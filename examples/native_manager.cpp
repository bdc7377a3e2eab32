// Native CPU-manager demo: the real user-space gang scheduler from §4 of
// the paper running on THIS machine — UNIX socket, shared-memory arenas,
// and SIGUSR1/SIGUSR2 block/unblock — managing real memory-walking kernels:
//
//   * one BBMA  (column-wise walk of 2x the L2: ~0% hit rate),
//   * one nBBMA (row-wise walk of half the L2: ~100% hit rate),
//   * one synthetic "application" crediting an SP-class transaction rate.
//
// Every second the demo prints which applications the manager elected and
// the per-thread bandwidth estimates it derived from the arenas.
//
// Usage: native_manager [SECONDS] [latest|window]   (SECONDS >= 1)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>

#include "experiments/cli.h"
#include "runtime/client.h"
#include "runtime/manager_server.h"
#include "runtime/microbench.h"

namespace {

using namespace bbsched;
using namespace std::chrono_literals;

struct App {
  const char* name;
  double synthetic_tps;  ///< <0: BBMA kernel, 0: nBBMA kernel, >0: synthetic
  std::thread thread;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sweeps{0};
};

void app_main(App& app, const std::string& socket_path) {
  runtime::Client client;
  if (!client.connect(socket_path, app.name, 1)) {
    std::fprintf(stderr, "%s: cannot reach the manager\n", app.name);
    return;
  }
  const int slot = client.leader_counter_slot();
  client.ready();

  runtime::KernelStats stats;
  if (app.synthetic_tps < 0) {
    stats = runtime::run_bbma(app.stop, slot);
  } else if (app.synthetic_tps == 0) {
    stats = runtime::run_nbbma(app.stop, slot);
  } else {
    stats = runtime::run_synthetic(app.stop, slot, app.synthetic_tps);
  }
  app.sweeps.store(stats.iterations);

  client.unregister_worker();
  client.disconnect();
}

}  // namespace

int main(int argc, char** argv) {
  const int seconds =
      argc > 1 ? experiments::count_operand(argv[0], "SECONDS", argv[1]) : 6;
  const bool window = argc > 2 && std::strcmp(argv[2], "window") == 0;

  runtime::ServerConfig cfg;
  cfg.socket_path =
      "/tmp/bbsched-demo-" + std::to_string(::getpid()) + ".sock";
  cfg.manager.policy = window ? core::PolicyKind::kQuantaWindow
                              : core::PolicyKind::kLatestQuantum;
  cfg.manager.quantum_us = 200'000;  // the paper's 200 ms quantum
  cfg.nprocs = 2;  // pretend a 2-way SMP so elections are interesting

  runtime::ManagerServer server(cfg);
  if (!server.start()) {
    std::fprintf(stderr, "failed to start the CPU manager server\n");
    return 1;
  }
  std::printf("CPU manager up (%s policy, %llu ms quantum, %d procs)\n",
              core::to_string(cfg.manager.policy),
              static_cast<unsigned long long>(cfg.manager.quantum_us / 1000),
              cfg.nprocs);

  App apps[3] = {{"bbma", -1.0, {}, {}, {}},
                 {"nbbma", 0.0, {}, {}, {}},
                 {"sp-like", 9.3, {}, {}, {}}};
  for (auto& app : apps) {
    app.thread = std::thread([&app, &cfg] { app_main(app, cfg.socket_path); });
    std::this_thread::sleep_for(50ms);
  }

  for (int s = 0; s < seconds; ++s) {
    std::this_thread::sleep_for(1s);
    std::printf("\n[t=%ds] elections so far: %llu\n", s + 1,
                static_cast<unsigned long long>(server.elections()));
    std::printf("  running now:");
    for (const auto& name : server.running_app_names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n  BBW/thread estimates (trans/us):");
    for (const auto& [name, est] : server.estimates()) {
      std::printf("  %s=%.2f", name.c_str(), est);
    }
    std::printf("\n");
  }

  for (auto& app : apps) app.stop.store(true);
  server.stop();  // unblocks everyone
  for (auto& app : apps) app.thread.join();

  std::printf("\nkernel sweeps completed: bbma=%llu nbbma=%llu sp=%llu\n",
              static_cast<unsigned long long>(apps[0].sweeps.load()),
              static_cast<unsigned long long>(apps[1].sweeps.load()),
              static_cast<unsigned long long>(apps[2].sweeps.load()));
  std::printf("note: on modern hosts the absolute rates differ from the\n"
              "2003 Xeon, but the manager still separates the streaming\n"
              "kernel from the cache-resident one by orders of magnitude.\n");
  return 0;
}
