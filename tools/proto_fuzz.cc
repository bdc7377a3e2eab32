// Structure-aware protocol fuzzer for the manager's UNIX-socket trust
// boundary (docs/ROBUSTNESS.md §8).
//
// Unlike a blind byte fuzzer, this one knows protocol v2's framing: it
// starts from a corpus of *valid* frames (kHello, kReattach, kReady, plus
// the two server->client types sent in the wrong direction) and mutates
// them field-by-field — magic, version, type, payload_len, generation,
// payload bytes — plus truncation, trailing junk, and all-zero frames.
// Every mutant is delivered over a fresh connection to a live in-process
// ManagerServer.
//
// Invariants checked (any violation exits non-zero):
//   1. No crash: the manager answers an honest handshake after the storm.
//   2. No fd leak: /proc/self/fd is the same size before and after.
//   3. No mis-accounting: every connection lands in exactly one typed
//      outcome — an accepted HelloAck or a server fault/overload counter —
//      so accepted + faults >= connections issued.
//
// Deterministic per --seed. Bounded mode (--frames=N) is the ctest smoke;
// unbounded mode (--seconds=N) keeps fuzzing a rotating seed for soak runs:
//   proto_fuzz --frames=100000 --seed=7
//   proto_fuzz --seconds=600

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <unistd.h>

#include "experiments/cli.h"
#include "obs/metrics.h"
#include "runtime/manager_server.h"
#include "runtime/protocol.h"
#include "stats/rng.h"

namespace {

using namespace bbsched;
using runtime::HelloMsg;
using runtime::MsgHeader;
using runtime::MsgType;

struct Options {
  std::uint64_t seed = 1;
  int frames = 2000;
  int seconds = 0;  ///< > 0: wall-clock soak mode, overrides frames
  bool verbose = false;
};

/// No wall-clock deadline: fuzz_run sends exactly opt.frames mutants.
constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

int count_open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n - 1;  // exclude the fd opendir itself holds
}

int dial(const std::string& path) {
  const int sock = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (sock < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(sock, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(sock);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = 2;  // the fuzzer must outlive the server's handshake timeout
  ::setsockopt(sock, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return sock;
}

std::vector<unsigned char> frame_bytes(MsgType type, std::uint32_t generation,
                                       const void* payload, std::size_t len) {
  MsgHeader hdr{};
  hdr.type = static_cast<std::uint16_t>(type);
  hdr.payload_len = static_cast<std::uint32_t>(len);
  hdr.generation = generation;
  std::vector<unsigned char> out(sizeof(hdr) + len);
  std::memcpy(out.data(), &hdr, sizeof(hdr));
  if (len > 0) std::memcpy(out.data() + sizeof(hdr), payload, len);
  return out;
}

/// Valid-frame seed corpus: the mutation engine only ever starts from a
/// frame the manager would genuinely accept (or at worst classify as
/// wrong-direction), so mutants probe *specific* validation branches
/// instead of dying at the magic check every time.
std::vector<std::vector<unsigned char>> seed_corpus() {
  std::vector<std::vector<unsigned char>> corpus;
  HelloMsg hello{};
  hello.pid = ::getpid();
  hello.leader_tid = static_cast<std::int32_t>(::syscall(SYS_gettid));
  hello.nthreads = 1;
  std::strncpy(hello.name, "fuzz", sizeof(hello.name) - 1);
  corpus.push_back(frame_bytes(MsgType::kHello, 0, &hello, sizeof(hello)));
  corpus.push_back(frame_bytes(MsgType::kReattach, 0, &hello, sizeof(hello)));
  runtime::ReadyMsg ready{};
  corpus.push_back(frame_bytes(MsgType::kReady, 0, &ready, sizeof(ready)));
  runtime::HelloAck ack{};
  corpus.push_back(frame_bytes(MsgType::kHelloAck, 0, &ack, sizeof(ack)));
  runtime::HelloNackMsg nack{};
  corpus.push_back(frame_bytes(MsgType::kHelloNack, 0, &nack, sizeof(nack)));
  return corpus;
}

/// Field-aware mutation. Returns the bytes to send (possibly shorter than
/// a full frame: a truncation mutant).
std::vector<unsigned char> mutate(const std::vector<unsigned char>& base,
                                  stats::Rng& rng) {
  std::vector<unsigned char> out = base;
  auto* hdr = reinterpret_cast<MsgHeader*>(out.data());
  switch (rng() % 10) {
    case 0: {  // single bit flip anywhere
      const std::size_t byte = rng() % out.size();
      out[byte] ^= static_cast<unsigned char>(1U << (rng() % 8));
      break;
    }
    case 1:  // bad magic
      hdr->magic = static_cast<std::uint32_t>(rng());
      break;
    case 2:  // bad version
      hdr->version = static_cast<std::uint16_t>(rng());
      break;
    case 3:  // unknown / shuffled type
      hdr->type = static_cast<std::uint16_t>(rng() % 16);
      break;
    case 4:  // lying payload length
      hdr->payload_len = static_cast<std::uint32_t>(rng() % 4096);
      break;
    case 5:  // epoch confusion
      hdr->generation = static_cast<std::uint32_t>(rng());
      break;
    case 6: {  // truncation: every prefix length is reachable over seeds
      const std::size_t keep = rng() % out.size();
      out.resize(keep);
      break;
    }
    case 7: {  // trailing junk after a valid frame
      const std::size_t extra = 1 + rng() % 64;
      for (std::size_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<unsigned char>(rng()));
      }
      break;
    }
    case 8:  // all-zero frame of the original size
      std::fill(out.begin(), out.end(), 0);
      break;
    default: {  // payload scribble (header intact)
      if (out.size() > sizeof(MsgHeader)) {
        const std::size_t span = out.size() - sizeof(MsgHeader);
        const std::size_t at = sizeof(MsgHeader) + rng() % span;
        for (std::size_t i = at; i < out.size(); ++i) {
          out[i] = static_cast<unsigned char>(rng());
        }
      }
      break;
    }
  }
  return out;
}

/// Sum of every typed outcome the server can assign a connection.
double outcome_total(const obs::MetricsRegistry& metrics, double* accepted) {
  auto value = [&](const char* name) {
    const obs::Counter* c = metrics.find_counter(name);
    return c != nullptr ? c->value() : 0.0;
  };
  double total = value("server.faults.bad_message") +
                 value("server.faults.handshake_timeouts") +
                 value("server.faults.invalid_hello") +
                 value("server.overload.rejected_full") +
                 value("server.overload.rate_limited");
  if (accepted != nullptr) total += *accepted;
  return total;
}

std::uint64_t now_ms() {
  return runtime::monotonic_now_us() / 1000;
}

/// Sends opt.frames mutants, or fewer if the monotonic clock reaches
/// `deadline_ms` first, then checks the invariants.
int fuzz_run(const Options& opt, std::uint64_t deadline_ms) {
  const std::string socket_path =
      "/tmp/bbsched-fuzz-" + std::to_string(::getpid()) + ".sock";

  obs::MetricsRegistry metrics;
  runtime::ServerConfig cfg;
  cfg.socket_path = socket_path;
  cfg.nprocs = 2;
  cfg.metrics = &metrics;
  cfg.handshake_timeout_ms = 25;  // bounds the per-stall cost of a mutant
  cfg.max_clients = 8;            // small cap: admission paths get fuzzed too
  runtime::ManagerServer server(cfg);
  if (!server.start()) {
    std::fprintf(stderr, "proto_fuzz: cannot start manager on %s\n",
                 socket_path.c_str());
    return 2;
  }

  const int fds_before = count_open_fds();
  const auto corpus = seed_corpus();
  stats::Rng rng(opt.seed);
  double accepted = 0.0;
  int sent = 0;
  int undialable = 0;

  for (int i = 0; i < opt.frames && now_ms() < deadline_ms; ++i) {
    const auto bytes = mutate(corpus[rng() % corpus.size()], rng);
    const int sock = dial(socket_path);
    if (sock < 0) {
      // Accept backoff can briefly park the listen socket; connect refusal
      // here is not a protocol bug. Tally and move on.
      ++undialable;
      continue;
    }
    ++sent;
    runtime::send_all(sock, bytes.data(), bytes.size());
    // Always wait for the server's verdict (ack, nack, or close) so every
    // connection is classified before the next one starts: this is what
    // makes the accounting invariant exact.
    MsgHeader hdr{};
    runtime::HelloAck ack{};
    int arena_fd = -1;
    const runtime::RecvStatus st =
        recv_msg(sock, hdr, &ack, sizeof(ack), &arena_fd);
    if (arena_fd >= 0) ::close(arena_fd);  // never leak the arena handle
    if (st == runtime::RecvStatus::kOk &&
        hdr.type == static_cast<std::uint16_t>(MsgType::kHelloAck)) {
      accepted += 1.0;
    }
    ::close(sock);
    if (opt.verbose && sent % 1000 == 0) {
      std::fprintf(stderr, "proto_fuzz: %d frames, %.0f accepted\n", sent,
                   accepted);
    }
  }

  // Quiesce: the server drops fuzz connections at its own pace.
  const std::uint64_t quiesce_deadline = now_ms() + 10000;
  while (server.connected_apps() > 0 && now_ms() < quiesce_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  int failures = 0;

  // Invariant 3 — mis-accounting: every connection got a typed outcome.
  const std::uint64_t account_deadline = now_ms() + 10000;
  while (outcome_total(metrics, &accepted) < static_cast<double>(sent) &&
         now_ms() < account_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double outcomes = outcome_total(metrics, &accepted);
  if (outcomes < static_cast<double>(sent)) {
    std::fprintf(stderr,
                 "proto_fuzz: MIS-ACCOUNTING: %d connections but only %.0f "
                 "typed outcomes\n",
                 sent, outcomes);
    ++failures;
  }

  // Invariant 1 — liveness: an honest handshake still succeeds.
  {
    const int sock = dial(socket_path);
    bool alive = false;
    if (sock >= 0) {
      HelloMsg hello{};
      hello.pid = ::getpid();
      hello.leader_tid = static_cast<std::int32_t>(::syscall(SYS_gettid));
      hello.nthreads = 1;
      std::strncpy(hello.name, "honest", sizeof(hello.name) - 1);
      if (send_msg(sock, MsgType::kHello, 0, &hello, sizeof(hello))) {
        MsgHeader hdr{};
        runtime::HelloAck ack{};
        int arena_fd = -1;
        if (recv_msg(sock, hdr, &ack, sizeof(ack), &arena_fd) ==
                runtime::RecvStatus::kOk &&
            hdr.type == static_cast<std::uint16_t>(MsgType::kHelloAck)) {
          alive = true;
        }
        if (arena_fd >= 0) ::close(arena_fd);
      }
      ::close(sock);
    }
    if (!alive) {
      std::fprintf(stderr,
                   "proto_fuzz: LIVENESS: honest handshake failed after the "
                   "storm\n");
      ++failures;
    }
  }

  // Let the server reap the honest probe before the fd census.
  const std::uint64_t reap_deadline = now_ms() + 10000;
  while (server.connected_apps() > 0 && now_ms() < reap_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Invariant 2 — fd stability across the whole storm. Retry briefly: a
  // connection the server is mid-drop at census time is cleanup in flight,
  // not a leak; a real leak never converges back to the baseline.
  int fds_after = count_open_fds();
  for (int retry = 0; retry < 100 && fds_after > fds_before; ++retry) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fds_after = count_open_fds();
  }
  if (fds_before >= 0 && fds_after >= 0 && fds_after > fds_before) {
    std::fprintf(stderr, "proto_fuzz: FD LEAK: %d open fds before, %d after\n",
                 fds_before, fds_after);
    ++failures;
  }

  server.stop();
  std::fprintf(stderr,
               "proto_fuzz: seed=%llu frames=%d accepted=%.0f outcomes=%.0f "
               "undialable=%d fds=%d->%d : %s\n",
               static_cast<unsigned long long>(opt.seed), sent, accepted,
               outcomes, undialable, fds_before, fds_after,
               failures == 0 ? "OK" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bbsched::experiments::parse_flags(
      argc, argv,
      {{"--frames", "N", "mutant frames to send, >= 1 (default 2000)",
        bbsched::experiments::number(opt.frames, 1)},
       {"--seconds", "N",
        "fuzz rotating seeds for N s instead of --frames (default 0 = off)",
        bbsched::experiments::number(opt.seconds, 0)},
       {"--seed", "N", "first seed (default 1)",
        bbsched::experiments::number(opt.seed)},
       {"--verbose", "", "print progress every 1000 frames",
        bbsched::experiments::set_true(opt.verbose)}});
  if (opt.seconds > 0) {
    // Soak mode: rotate the seed every bounded sub-run so crashes found in
    // soak reproduce with a plain --frames invocation of the same seed. The
    // deadline also cuts the last sub-run short, so the soak ends within
    // one sub-run's invariant checks of it.
    std::uint64_t seed = opt.seed;
    const std::uint64_t deadline =
        now_ms() + static_cast<std::uint64_t>(opt.seconds) * 1000ULL;
    while (now_ms() < deadline) {
      Options sub = opt;
      sub.seed = seed++;
      const int rc = fuzz_run(sub, deadline);
      if (rc != 0) return rc;
    }
    return 0;
  }
  return fuzz_run(opt, kNoDeadline);
}
