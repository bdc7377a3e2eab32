// bbsched-kernel — run one of the paper's microbenchmark kernels (or a
// synthetic application) as its own PROCESS under the bbsched-managerd
// daemon, mirroring the paper's setup of independent applications
// connecting to the CPU manager.
//
// Usage:
//   bbsched_kernel --kind=bbma|nbbma|synthetic [--socket=/tmp/bbsched.sock]
//                  [--name=NAME] [--tps=9.3] [--seconds=10] [--threads=1]
//
// Exit code 0: connected, ran, disconnected cleanly.
// Exit code 1: could not reach the manager.
// Exit code 2: unknown flag, or a malformed or out-of-range value.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "experiments/cli.h"
#include "runtime/client.h"
#include "runtime/microbench.h"
#include "runtime/signal_gate.h"

int main(int argc, char** argv) {
  using namespace bbsched;
  namespace cli = experiments;

  std::string socket_path = "/tmp/bbsched.sock";
  std::string kind = "synthetic";
  std::string name;
  double tps = 9.3;
  double seconds = 10.0;
  int threads = 1;
  // Every thread registers with the process's signal gate, whose slot table
  // bounds --threads.
  cli::parse_flags(
      argc, argv,
      {{"--kind", "KIND", "bbma, nbbma or synthetic (default synthetic)",
        [&kind](std::string_view k) {
          kind = k;
          return k == "bbma" || k == "nbbma" || k == "synthetic";
        }},
       {"--socket", "PATH",
        "the manager's UNIX socket (default /tmp/bbsched.sock)",
        cli::set_text(socket_path)},
       {"--name", "NAME", "application name (default: the kind)",
        cli::set_text(name)},
       {"--tps", "X", "synthetic transactions/us, >= 0 (default 9.3)",
        cli::number(tps, 0.0)},
       {"--seconds", "S", "run time, >= 0 (default 10)",
        cli::number(seconds, 0.0)},
       {"--threads", "N", "worker threads, 1..128 (default 1)",
        cli::number(threads, 1, runtime::SignalGate::kMaxThreads)}});
  if (name.empty()) name = kind;

  runtime::Client client;
  if (!client.connect(socket_path, name, threads)) {
    std::fprintf(stderr, "%s: manager unreachable at %s\n", name.c_str(),
                 socket_path.c_str());
    return 1;
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  std::vector<runtime::KernelStats> stats(
      static_cast<std::size_t>(threads));

  auto kernel_main = [&](int slot, std::size_t out_idx, bool leader) {
    runtime::KernelStats st;
    if (kind == "bbma") {
      st = runtime::run_bbma(stop, slot);
    } else if (kind == "nbbma") {
      st = runtime::run_nbbma(stop, slot);
    } else {
      st = runtime::run_synthetic(stop, slot, tps);
    }
    stats[out_idx] = st;
    if (!leader) client.unregister_worker();
  };

  // The connecting thread is worker 0; extra workers register themselves.
  for (int t = 1; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const int slot = client.register_worker();
      kernel_main(slot, static_cast<std::size_t>(t), false);
    });
  }
  client.ready();

  std::thread timer([&] {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  });
  kernel_main(client.leader_counter_slot(), 0, true);

  timer.join();
  for (auto& w : workers) w.join();

  std::uint64_t tx = 0;
  std::uint64_t sweeps = 0;
  for (const auto& st : stats) {
    tx += st.transactions;
    sweeps += st.iterations;
  }
  std::printf("%s: %llu sweeps, %llu transactions in %.1f s (%.2f trans/us)\n",
              name.c_str(), static_cast<unsigned long long>(sweeps),
              static_cast<unsigned long long>(tx), seconds,
              static_cast<double>(tx) / (seconds * 1e6));

  client.unregister_worker();
  client.disconnect();
  return 0;
}
