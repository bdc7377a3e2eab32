// bbsched-managerd — the user-level CPU manager as a standalone daemon,
// exactly the deployment the paper describes: "The user-level CPU manager
// runs as a server process on the target system."
//
// Applications link the client runtime (src/runtime/client.h) or use the
// bbsched_kernel tool and connect through the UNIX socket; the daemon
// samples their shared arenas twice per quantum and enforces gang elections
// with SIGUSR1/SIGUSR2.
//
// Usage:
//   bbsched_managerd [--socket=/tmp/bbsched.sock] [--quantum-ms=200]
//                    [--policy=latest|window|predictive] [--window=5]
//                    [--procs=N] [--bus-tps=29.5] [--run-seconds=S]
//                    [--status-interval=2]
//
// Without --run-seconds the daemon runs until SIGINT/SIGTERM.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>

#include "experiments/cli.h"
#include "runtime/manager_server.h"

namespace {

std::atomic<bool> g_stop{false};

// bbsched:signal SIGINT/SIGTERM handler
void handle_stop(int) { g_stop.store(true); }

/// Longest accepted quantum: an hour is far beyond any scheduling use and
/// keeps the deadline grid's µs arithmetic far from overflow.
constexpr std::uint64_t kMaxQuantumMs = 3'600'000;

}  // namespace

int main(int argc, char** argv) {
  using namespace bbsched;
  namespace cli = experiments;

  runtime::ServerConfig cfg;
  cfg.socket_path = "/tmp/bbsched.sock";
  std::uint64_t quantum_ms = cfg.manager.quantum_us / 1000;
  double bus_tps = cfg.manager.total_bus_bw_tps;
  double run_seconds = 0.0;
  double status_interval = 2.0;
  cli::parse_flags(
      argc, argv,
      {{"--socket", "PATH",
        "UNIX socket to listen on (default /tmp/bbsched.sock)",
        cli::set_text(cfg.socket_path)},
       {"--quantum-ms", "N", "scheduling quantum, 1..3600000 (default 200)",
        cli::number(quantum_ms, 1, kMaxQuantumMs)},
       {"--policy", "NAME", "latest, window or predictive (default window)",
        [&cfg](std::string_view p) {
          if (p != "latest" && p != "window" && p != "predictive") {
            return false;
          }
          cfg.manager.policy = p == "latest"
                                   ? core::PolicyKind::kLatestQuantum
                                   : core::PolicyKind::kQuantaWindow;
          cfg.manager.use_predictive = p == "predictive";
          return true;
        }},
       {"--window", "N", "quanta-window length, >= 1 (default 5)",
        cli::number(cfg.manager.window_len, 1)},
       {"--procs", "N", "processors to allocate, >= 1 (default: online)",
        cli::number(cfg.nprocs, 1)},
       {"--bus-tps", "X",
        "bus capacity in transactions/us, > 0 (default 29.5)",
        cli::number_if(bus_tps, [](double x) { return x > 0.0; })},
       {"--run-seconds", "S", "exit after S seconds (default 0 = on signal)",
        cli::number(run_seconds, 0.0)},
       {"--status-interval", "S", "status print period (0 = quiet, default 2)",
        cli::number(status_interval, 0.0)}});
  cfg.manager.quantum_us = quantum_ms * 1000;
  cfg.manager.total_bus_bw_tps = bus_tps;
  cfg.manager.initial_estimate_tps = bus_tps / 4.0;

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  runtime::ManagerServer server(cfg);
  if (!server.start()) {
    std::fprintf(stderr, "managerd: cannot bind %s\n",
                 cfg.socket_path.c_str());
    return 1;
  }
  std::printf("managerd: listening on %s (%s, %llu ms quantum, %d procs)\n",
              cfg.socket_path.c_str(),
              cfg.manager.use_predictive
                  ? "predictive"
                  : core::to_string(cfg.manager.policy),
              static_cast<unsigned long long>(cfg.manager.quantum_us / 1000),
              server.config().nprocs);
  std::fflush(stdout);

  const auto start = std::chrono::steady_clock::now();
  auto last_status = start;
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto now = std::chrono::steady_clock::now();
    if (run_seconds > 0.0 &&
        std::chrono::duration<double>(now - start).count() >= run_seconds) {
      break;
    }
    if (status_interval > 0.0 &&
        std::chrono::duration<double>(now - last_status).count() >=
            status_interval) {
      last_status = now;
      std::printf("managerd: %zu app(s), %llu elections; running:",
                  server.connected_apps(),
                  static_cast<unsigned long long>(server.elections()));
      for (const auto& name : server.running_app_names()) {
        std::printf(" %s", name.c_str());
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }

  server.stop();
  std::printf("managerd: stopped after %llu elections\n",
              static_cast<unsigned long long>(server.elections()));
  return 0;
}
