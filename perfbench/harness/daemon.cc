#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "core/cpu_manager.h"
#include "core/journal.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "runtime/client.h"
#include "runtime/manager_server.h"
#include "runtime/signal_gate.h"

namespace perfbench {
namespace {

namespace rt = bbsched::runtime;
namespace core = bbsched::core;
namespace obs = bbsched::obs;

constexpr int kProcs = 2;
constexpr std::uint64_t kQuantumUs = 5000;
constexpr int kWindows = 5;
/// Quanta per reported pass: wall_s and cpu_s are per this many elections.
constexpr double kQuantaPerPass = 1000.0;

// ---------------------------------------------------------------------------
// RAII for the process-level resources a window holds.

class TempDir {
 public:
  explicit TempDir(std::string path) : path_(std::move(path)) {
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class Pipe {
 public:
  Pipe() {
    if (::pipe2(fds_, O_CLOEXEC) != 0) fds_[0] = fds_[1] = -1;
  }
  ~Pipe() {
    close_read();
    close_write();
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;
  [[nodiscard]] bool ok() const { return fds_[0] >= 0; }
  [[nodiscard]] int read_fd() const { return fds_[0]; }
  [[nodiscard]] int write_fd() const { return fds_[1]; }
  void close_read() { close_fd(fds_[0]); }
  void close_write() { close_fd(fds_[1]); }

 private:
  static void close_fd(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  int fds_[2] = {-1, -1};
};

/// Reads exactly `n` bytes within `timeout_ms`; false on EOF or timeout.
bool read_exact(int fd, void* buf, std::size_t n, int timeout_ms) {
  auto* p = static_cast<char*>(buf);
  const auto t0 = Clock::now();
  while (n > 0) {
    const int left =
        timeout_ms - static_cast<int>(seconds_since(t0) * 1000.0);
    if (left <= 0) return false;
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, left);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

/// Owns a forked child: kills and reaps it unless wait() already did.
class ChildGuard {
 public:
  explicit ChildGuard(pid_t pid) : pid_(pid) {}
  ~ChildGuard() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  ChildGuard(const ChildGuard&) = delete;
  ChildGuard& operator=(const ChildGuard&) = delete;

  /// Reaps the child within `timeout_ms`; true with its exit status.
  bool wait(int timeout_ms, int& status) {
    const auto t0 = Clock::now();
    while (seconds_since(t0) * 1000.0 < timeout_ms) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return true;
      }
      if (r < 0 && errno != EINTR) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

 private:
  pid_t pid_;
};

/// Sleeps until `seconds` of monotonic time have passed, across signals.
void sleep_for_seconds(double seconds) {
  timespec until{};
  clock_gettime(CLOCK_MONOTONIC, &until);
  const auto whole = static_cast<time_t>(seconds);
  until.tv_sec += whole;
  until.tv_nsec += static_cast<long>((seconds - static_cast<double>(whole)) * 1e9);
  if (until.tv_nsec >= 1000000000L) {
    until.tv_sec += 1;
    until.tv_nsec -= 1000000000L;
  }
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &until, nullptr) ==
         EINTR) {
  }
}

/// Per-application crediting rate (transactions per ms), from the seed.
std::vector<std::uint64_t> client_rates(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> rates;
  for (int i = 0; i < n; ++i) rates.push_back(2000 + rng() % 28000);
  return rates;
}

/// Applications per window: at most four, and at most one per host CPU.
int client_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

// ---------------------------------------------------------------------------
// The in-process applications: one runtime::Client with one worker each,
// crediting transactions and sleeping 1 ms.

class ClientFleet {
 public:
  ClientFleet(const std::string& socket_path,
              const std::vector<std::uint64_t>& rates) {
    for (std::size_t i = 0; i < rates.size(); ++i) {
      auto w = std::make_unique<Worker>();
      w->rate = rates[i];
      Worker* raw = w.get();
      raw->thread = std::thread([this, raw, socket_path, i] {
        work(*raw, socket_path, "app" + std::to_string(i));
      });
      workers_.push_back(std::move(w));
    }
  }
  ~ClientFleet() { stop(); }
  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  /// Waits for every handshake; returns how many failed (or timed out).
  int wait_handshakes(double timeout_s) {
    const auto t0 = Clock::now();
    for (;;) {
      int pending = 0, failed = 0;
      for (const auto& w : workers_) {
        const int s = w->state.load();
        pending += s == kPending;
        failed += s == kFailed;
      }
      if (pending == 0) return failed;
      if (seconds_since(t0) > timeout_s) return failed + pending;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void stop() {
    stop_.store(true);
    for (auto& w : workers_) {
      if (w->thread.joinable()) w->thread.join();
    }
  }

 private:
  enum { kPending = 0, kReady = 1, kFailed = 2 };
  struct Worker {
    std::uint64_t rate = 0;
    std::atomic<int> state{kPending};
    std::thread thread;
  };

  void work(Worker& w, const std::string& socket_path,
            const std::string& name) {
    rt::Client client;
    if (!client.connect(socket_path, name, 1)) {
      w.state.store(kFailed);
      return;
    }
    if (!client.ready()) {
      w.state.store(kFailed);
      client.unregister_worker();
      client.disconnect();
      return;
    }
    w.state.store(kReady);
    const int slot = client.leader_counter_slot();
    while (!stop_.load(std::memory_order_relaxed)) {
      client.credit(slot, w.rate);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.unregister_worker();
    client.disconnect();
  }

  std::atomic<bool> stop_{false};
  std::vector<std::unique_ptr<Worker>> workers_;
};

// ---------------------------------------------------------------------------
// One measured window against a freshly forked manager.

/// What the manager child reports over its pipe (plain bytes, same binary).
struct WindowReport {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t elections = 0;
  double maxrss_mb = 0.0;
  double quantum_p50_us = 0.0;
  double quantum_p99_us = 0.0;
  double election_p50_us = 0.0;
  double election_p99_us = 0.0;
  double election_mean_us = 0.0;
};

/// Quantile of a bucketed histogram, interpolated linearly within the
/// bucket that holds it (the first bucket starts at 0).
double histogram_quantile(const obs::Histogram& h, double q) {
  const auto& bounds = h.bounds();
  const auto& counts = h.counts();
  const double target = q * static_cast<double>(h.count());
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto c = static_cast<double>(counts[i]);
    if (c > 0.0 && cum + c >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : lo;
      return lo + (hi - lo) * (target - cum) / c;
    }
    cum += c;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

[[noreturn]] void manager_child(rt::ServerConfig cfg, bool traced,
                                double window_s, int ready_fd, int go_fd,
                                int report_fd) {
  // The tracer's ring is allocated only for traced windows, so untraced
  // windows report the manager's own peak RSS.
  std::optional<obs::Tracer> tracer;
  obs::MetricsRegistry metrics;
  if (traced) {
    tracer.emplace(obs::TracerConfig{.enabled = true,
                                     .capacity = std::size_t{1} << 16});
    cfg.tracer = &*tracer;
    cfg.metrics = &metrics;
  }
  rt::ManagerServer server(cfg);
  const char ready = server.start() ? 'R' : 'F';
  (void)write_all(ready_fd, &ready, 1);
  if (ready != 'R') ::_exit(3);
  char go = 0;
  if (!read_exact(go_fd, &go, 1, 60'000)) {
    server.stop();
    ::_exit(4);
  }

  WindowReport rep;
  const std::uint64_t e0 = server.elections();
  const double cpu0 = process_cpu_seconds();
  const std::uint64_t t0_us = rt::monotonic_now_us();
  sleep_for_seconds(window_s);
  rep.cpu_s = process_cpu_seconds() - cpu0;
  rep.elections = server.elections() - e0;
  const std::uint64_t t1_us = rt::monotonic_now_us();
  rep.wall_s = static_cast<double>(t1_us - t0_us) * 1e-6;
  server.stop();  // unblocks every application; the tracer is now quiet
  rep.maxrss_mb = peak_rss_mb();

  if (traced) {
    std::vector<double> quanta;
    std::uint64_t prev = 0;
    tracer->events().for_each([&](const obs::TraceEvent& e) {
      if (e.type != obs::EventType::kQuantumStart) return;
      if (e.time_us < t0_us || e.time_us > t1_us) return;
      if (prev != 0) quanta.push_back(static_cast<double>(e.time_us - prev));
      prev = e.time_us;
    });
    rep.quantum_p50_us = quantile(quanta, 0.5);
    rep.quantum_p99_us = quantile(quanta, 0.99);
    if (const auto* h = metrics.find_histogram("server.election_us")) {
      rep.election_p50_us = histogram_quantile(*h, 0.5);
      rep.election_p99_us = histogram_quantile(*h, 0.99);
      rep.election_mean_us = h->mean();
    }
  }
  (void)write_all(report_fd, &rep, sizeof rep);
  ::_exit(0);
}

struct Window {
  WindowReport rep;
  double setup_s = 0.0;
};

/// Forks a manager, connects the fleet, measures `window_s`, tears down.
/// Every failure is recorded in `res`; false means no usable measurement.
bool run_window(const Options& opt, int index, bool traced, double window_s,
                Window& out, Result& res) {
  TempDir dir(opt.tmp_dir + "/w" + std::to_string(index));
  rt::ServerConfig cfg;
  cfg.socket_path = dir.path() + "/m.sock";
  cfg.journal_path = dir.path() + "/m.journal";
  cfg.nprocs = kProcs;
  cfg.manager.quantum_us = kQuantumUs;

  Pipe ready, go, report;
  if (!ready.ok() || !go.ok() || !report.ok()) {
    res.fail("pipe failed");
    return false;
  }
  const auto t0 = Clock::now();
  // Declared before the child guard so that on every exit path the child is
  // killed and reaped first: its death releases the signal gate, which lets
  // any suspended client return and be joined.
  std::optional<ClientFleet> fleet;
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) {
    res.fail("fork failed");
    return false;
  }
  if (pid == 0) {
    manager_child(cfg, traced, window_s, ready.write_fd(), go.read_fd(),
                  report.write_fd());
  }
  ChildGuard child(pid);
  ready.close_write();
  go.close_read();
  report.close_write();

  ++res.attempted;
  char c = 0;
  if (!read_exact(ready.read_fd(), &c, 1, 5000) || c != 'R') {
    res.fail("manager did not start");
    return false;
  }
  const auto rates = client_rates(opt.seed + static_cast<std::uint64_t>(index),
                                  client_count());
  fleet.emplace(cfg.socket_path, rates);
  res.attempted += rates.size();
  if (const int bad = fleet->wait_handshakes(5.0); bad > 0) {
    for (int i = 0; i < bad; ++i) res.fail("client handshake failed");
    return false;
  }
  out.setup_s = seconds_since(t0);

  const char g = 'G';
  if (!write_all(go.write_fd(), &g, 1) ||
      !read_exact(report.read_fd(), &out.rep, sizeof out.rep,
                  static_cast<int>(window_s * 1000.0) + 10'000)) {
    res.fail("manager sent no window report");
    return false;
  }
  int status = 0;
  if (!child.wait(5000, status) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    res.fail("manager child did not exit cleanly");
    return false;
  }
  fleet.reset();  // stops and joins the clients

  core::ManagerSnapshot snap;
  if (!core::load_latest_snapshot(cfg.journal_path, snap)) {
    res.fail("journal holds no intact snapshot");
    return false;
  }
  const double nominal = window_s * 1e6 / static_cast<double>(kQuantumUs);
  if (static_cast<double>(out.rep.elections) < 0.5 * nominal) {
    res.fail("missing elections: " + std::to_string(out.rep.elections) +
             " of ~" + std::to_string(static_cast<int>(nominal)));
    return false;
  }
  return true;
}

/// Registers this (never signalled) thread as the gate's slot 0 before any
/// client does. Only slot 0 forwards block/unblock intents to the other
/// registered threads, so with the anchor in place each client's signals
/// reach its own worker only, identically in every window.
void anchor_signal_gate() {
  static const bool once = [] {
    rt::SignalGate::instance().register_current_thread();
    return true;
  }();
  (void)once;
}

// ---------------------------------------------------------------------------
// Layer probes.

/// Replays CpuManager sampling/election and JournalWriter appends with the
/// managerd app count and quantum.
void add_core_layers(const Options& opt, Result& res) {
  core::ManagerConfig mcfg;
  mcfg.quantum_us = kQuantumUs;
  core::CpuManager manager(mcfg);
  const auto rates = client_rates(opt.seed, client_count());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    (void)manager.connect("app" + std::to_string(i), 1);
  }
  // Per-call times (each includes one steady_clock read pair), averaged
  // over batches of 100 quanta; the median batch is reported.
  std::vector<double> election_ns, sample_ns;
  std::uint64_t now = 0;
  for (int batch = 0; batch < 40; ++batch) {
    std::int64_t elect_total = 0, sample_total = 0;
    std::uint64_t samples = 0;
    for (int q = 0; q < 100; ++q) {
      for (int half = 0; half < mcfg.samples_per_quantum; ++half) {
        for (int id : manager.running()) {
          const auto rate = rates[static_cast<std::size_t>(id) % rates.size()];
          const auto s0 = Clock::now();
          manager.record_sample(id, static_cast<double>(rate) * 2.5, now);
          sample_total += ns_between(s0, Clock::now());
          ++samples;
        }
      }
      const auto e0 = Clock::now();
      const auto& elected = manager.schedule_quantum(kProcs, now);
      elect_total += ns_between(e0, Clock::now());
      if (elected.elected.empty()) res.fail("replay election elected nobody");
      now += kQuantumUs;
    }
    election_ns.push_back(static_cast<double>(elect_total) / 100.0);
    if (samples > 0) {
      sample_ns.push_back(static_cast<double>(sample_total) /
                          static_cast<double>(samples));
    }
  }
  res.metrics["core.election_ns"] = median(election_ns);
  res.metrics["core.record_sample_ns"] = median(sample_ns);

  TempDir dir(opt.tmp_dir + "/journal");
  core::JournalWriter journal(dir.path() + "/replay.journal");
  core::ManagerSnapshot snap;
  std::vector<double> append_us;
  for (int i = 0; i < 200; ++i) {
    (void)manager.schedule_quantum(kProcs, now);
    now += kQuantumUs;
    manager.snapshot(snap);
    const auto t0 = Clock::now();
    ++res.attempted;
    if (!journal.append(snap)) res.fail("journal append failed");
    append_us.push_back(static_cast<double>(ns_between(t0, Clock::now())) /
                        1e3);
  }
  res.metrics["core.journal_append_us"] = median(append_us);
}

/// True when thread `tid` of this process is in interruptible sleep ('S' in
/// /proc/self/task/<tid>/stat).
bool thread_sleeping(pid_t tid) {
  const std::string path =
      "/proc/self/task/" + std::to_string(tid) + "/stat";
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  char buf[512];
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return false;
  buf[n] = '\0';
  // The state follows the ')' that closes the command name.
  const char* p = std::strrchr(buf, ')');
  return p != nullptr && p[1] == ' ' && p[2] == 'S';
}

/// Time from tgkill until SignalGate::is_suspended flips, for block and
/// unblock, measured in a forked child so the probe's gate state is its own.
void add_signal_layers(Result& res) {
  struct Report {
    double block_us = 0.0;
    double unblock_us = 0.0;
    int ok = 0;
  } rep;
  Pipe p;
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) {
    res.fail("fork failed");
    return;
  }
  if (pid == 0) {
    auto& gate = rt::SignalGate::instance();
    gate.reset_for_tests();  // only this thread exists in the child
    std::atomic<bool> stop{false};
    std::atomic<int> slot{-1};
    std::atomic<pid_t> tid{0};
    std::thread worker([&] {
      slot.store(gate.register_current_thread());
      tid.store(static_cast<pid_t>(::syscall(SYS_gettid)));
      while (!stop.load(std::memory_order_relaxed)) {
      }
      gate.unregister_current_thread();
    });
    while (tid.load() == 0) std::this_thread::yield();
    std::vector<double> block_us, unblock_us;
    bool ok = true;
    auto wait_for = [&](bool suspended) {
      const auto t0 = Clock::now();
      while (gate.is_suspended(slot.load()) != suspended) {
        if (seconds_since(t0) > 1.0) return false;
      }
      return true;
    };
    // The gate raises its suspended flag just before sigsuspend; an unblock
    // landing between the two is consumed and the thread then sleeps until
    // the next signal. So unblock only once the worker is asleep in
    // sigsuspend, the one place it can sleep.
    auto wait_asleep = [&] {
      const auto t0 = Clock::now();
      while (!thread_sleeping(tid.load())) {
        if (seconds_since(t0) > 1.0) return false;
      }
      return true;
    };
    for (int i = 0; i < 500 && ok; ++i) {
      const auto t0 = Clock::now();
      ::syscall(SYS_tgkill, ::getpid(), tid.load(), rt::kBlockSignal);
      ok = wait_for(true);
      const auto t_block = Clock::now();
      ok = ok && wait_asleep();
      const auto t1 = Clock::now();
      ::syscall(SYS_tgkill, ::getpid(), tid.load(), rt::kUnblockSignal);
      ok = ok && wait_for(false);
      const auto t2 = Clock::now();
      block_us.push_back(static_cast<double>(ns_between(t0, t_block)) / 1e3);
      unblock_us.push_back(static_cast<double>(ns_between(t1, t2)) / 1e3);
    }
    stop.store(true);
    worker.join();
    Report r{median(block_us), median(unblock_us), ok ? 1 : 0};
    (void)write_all(p.write_fd(), &r, sizeof r);
    ::_exit(0);
  }
  ChildGuard child(pid);
  p.close_write();
  ++res.attempted;
  int status = 0;
  if (!read_exact(p.read_fd(), &rep, sizeof rep, 20'000) || rep.ok != 1 ||
      !child.wait(5000, status)) {
    res.fail("signal probe failed");
    return;
  }
  res.metrics["runtime.signal_block_us"] = rep.block_us;
  res.metrics["runtime.signal_unblock_us"] = rep.unblock_us;
}

void put_runtime_percentiles(const std::vector<Window>& traced, Result& res) {
  std::vector<double> qp50, qp99, ep50, ep99, emean;
  for (const auto& w : traced) {
    qp50.push_back(w.rep.quantum_p50_us);
    qp99.push_back(w.rep.quantum_p99_us);
    ep50.push_back(w.rep.election_p50_us);
    ep99.push_back(w.rep.election_p99_us);
    emean.push_back(w.rep.election_mean_us);
  }
  res.metrics["runtime.quantum_us.p50"] = median(qp50);
  res.metrics["runtime.quantum_us.p99"] = median(qp99);
  res.metrics["runtime.election_us.p50"] = median(ep50);
  res.metrics["runtime.election_us.p99"] = median(ep99);
  res.metrics["runtime.election_us.mean"] = median(emean);
}

double cpu_us_per_quantum(const Window& w) {
  return w.rep.elections > 0
             ? w.rep.cpu_s * 1e6 / static_cast<double>(w.rep.elections)
             : 0.0;
}

/// Core replay, signal latency, then `windows` live 2 s windows that
/// alternate untraced and traced. The manager's CPU cost per quantum and
/// CPU share come from the untraced windows (too noisy on a shared host to
/// bound end to end), the runtime percentiles from the traced ones, and
/// with `overhead` the traced/untraced CPU ratio gives the tracing cost.
void add_daemon_layers(const Options& opt, int windows, bool overhead,
                       Result& res) {
  add_core_layers(opt, res);
  add_signal_layers(res);
  std::vector<Window> plain, traced;
  for (int k = 0; k < windows; ++k) {
    Window w;
    const bool with_trace = k % 2 == 1;
    if (run_window(opt, k, with_trace, 2.0, w, res)) {
      (with_trace ? traced : plain).push_back(w);
    }
  }
  if (plain.empty() || traced.empty()) return;
  std::vector<double> a, b, pct;
  for (const auto& w : plain) {
    a.push_back(cpu_us_per_quantum(w));
    pct.push_back(100.0 * w.rep.cpu_s / w.rep.wall_s);
  }
  for (const auto& w : traced) b.push_back(cpu_us_per_quantum(w));
  res.metrics["runtime.manager_cpu_us_per_quantum"] = median(a);
  res.metrics["runtime.manager_cpu_pct"] = median(pct);
  if (overhead) {
    res.metrics["obs.trace_overhead_pct"] =
        100.0 * (median(b) - median(a)) / median(a);
  }
  put_runtime_percentiles(traced, res);
}

}  // namespace

Result run_managerd(const Options& opt) {
  Result res;
  anchor_signal_gate();
  if (opt.trace) {
    add_sim_probe_layers(opt, res);
    add_daemon_layers(opt, 4, true, res);
    return res;
  }

  const double window_s = std::max(1.0, (opt.seconds - 1.5) / kWindows);
  std::vector<double> wall_s, setup_s, rss;
  for (int k = 0; k < kWindows; ++k) {
    Window w;
    if (!run_window(opt, k, false, window_s, w, res)) continue;
    const auto quanta = static_cast<double>(w.rep.elections);
    wall_s.push_back(w.rep.wall_s * kQuantaPerPass / quanta);
    setup_s.push_back(w.setup_s);
    rss.push_back(w.rep.maxrss_mb);
    std::printf(
        "managerd window %d: %llu elections in %.3f s, quantum overrun "
        "%.2f%%, %.2f us manager CPU per quantum (%.3f%% of wall), setup "
        "%.4f s\n",
        k, static_cast<unsigned long long>(w.rep.elections), w.rep.wall_s,
        100.0 * (w.rep.wall_s * 1e6 / quanta / static_cast<double>(kQuantumUs) -
                 1.0),
        cpu_us_per_quantum(w), 100.0 * w.rep.cpu_s / w.rep.wall_s, w.setup_s);
  }
  if (wall_s.empty()) return res;
  res.metrics["wall_s"] = median(wall_s);
  res.metrics["setup_s"] = median(setup_s);
  res.metrics["peak_rss_mb"] = median(rss);
  return res;
}

void add_daemon_probe_layers(const Options& opt, Result& res) {
  anchor_signal_gate();
  add_daemon_layers(opt, 2, false, res);
}

}  // namespace perfbench
