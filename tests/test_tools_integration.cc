// Multi-process integration test: the bbsched_managerd daemon gang-
// scheduling real bbsched_kernel processes over the UNIX socket — the
// paper's actual deployment shape, exercised end to end with fork/exec.
//
// The binaries are located via the BBSCHED_BINARY_DIR compile definition
// (set by tests/CMakeLists.txt). If the tools are missing (unusual), the
// test skips rather than fails.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

#ifndef BBSCHED_BINARY_DIR
#define BBSCHED_BINARY_DIR "."
#endif

std::string tool(const char* name) {
  return std::string(BBSCHED_BINARY_DIR) + "/tools/" + name;
}

bool executable_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && (st.st_mode & S_IXUSR) != 0;
}

pid_t spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid == 0) {
    // Quiet children: route stdout to /dev/null, keep stderr for failures.
    ::freopen("/dev/null", "w", stdout);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

/// Polls until a UNIX-domain listener at `path` accepts a connection (each
/// probe connection is closed at once), for up to ~10 s.
bool wait_until_listening(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    const bool connected =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0;
    ::close(fd);
    if (connected) return true;
    ::usleep(10 * 1000);
  }
  return false;
}

int wait_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

TEST(ToolsIntegration, DaemonSchedulesKernelProcesses) {
  const std::string managerd = tool("bbsched_managerd");
  const std::string kernel = tool("bbsched_kernel");
  if (!executable_exists(managerd) || !executable_exists(kernel)) {
    GTEST_SKIP() << "tools not built under " << BBSCHED_BINARY_DIR;
  }

  const std::string socket_path =
      "/tmp/bbsched-toolstest-" + std::to_string(::getpid()) + ".sock";

  const pid_t daemon = spawn({managerd, "--socket=" + socket_path,
                              "--quantum-ms=40", "--procs=1",
                              "--run-seconds=3", "--status-interval=0"});
  ASSERT_GT(daemon, 0);
  ASSERT_TRUE(wait_until_listening(socket_path))
      << "daemon never listened on " << socket_path;

  const pid_t k1 =
      spawn({kernel, "--socket=" + socket_path, "--kind=synthetic",
             "--name=hungry", "--tps=20", "--seconds=1.5"});
  const pid_t k2 =
      spawn({kernel, "--socket=" + socket_path, "--kind=nbbma",
             "--name=quiet", "--seconds=1.5"});
  ASSERT_GT(k1, 0);
  ASSERT_GT(k2, 0);

  // Kernels exit 0 iff they connected, ran and disconnected cleanly —
  // which requires the daemon's block/unblock signals to have left them
  // runnable at the end.
  EXPECT_EQ(wait_exit(k1), 0);
  EXPECT_EQ(wait_exit(k2), 0);
  EXPECT_EQ(wait_exit(daemon), 0);
}

// Exit contract of the trace checker: 0 = valid, 1 = validation failure,
// 2 = usage/IO error. An I/O problem (missing file, directory argument)
// must never be reported as a trace verdict.
TEST(ToolsIntegration, TraceValidateExitContract) {
  const std::string validate = tool("trace_validate");
  if (!executable_exists(validate)) {
    GTEST_SKIP() << "tools not built";
  }
  const std::string base =
      "/tmp/bbsched-tvtest-" + std::to_string(::getpid());

  // Usage error: no argument.
  EXPECT_EQ(wait_exit(spawn({validate})), 2);
  // I/O error: file does not exist.
  EXPECT_EQ(wait_exit(spawn({validate, base + "-missing.jsonl"})), 2);
  // I/O error: a directory is not a trace, on both input routes.
  const std::string dir_plain = base + "-dir";
  const std::string dir_jsonl = base + "-dir.jsonl";
  ASSERT_EQ(::mkdir(dir_plain.c_str(), 0700), 0);
  ASSERT_EQ(::mkdir(dir_jsonl.c_str(), 0700), 0);
  EXPECT_EQ(wait_exit(spawn({validate, dir_plain})), 2);
  EXPECT_EQ(wait_exit(spawn({validate, dir_jsonl})), 2);
  ::rmdir(dir_plain.c_str());
  ::rmdir(dir_jsonl.c_str());

  // Validation failure: readable but not a trace.
  const std::string bad = base + "-bad.jsonl";
  {
    std::ofstream out(bad);
    out << "this is not json\n";
  }
  EXPECT_EQ(wait_exit(spawn({validate, bad})), 1);
  ::unlink(bad.c_str());

  // Valid JSONL trace.
  const std::string good = base + "-good.jsonl";
  {
    std::ofstream out(good);
    out << R"({"t":1,"type":"QuantumStart"})" << "\n";
  }
  EXPECT_EQ(wait_exit(spawn({validate, good})), 0);
  ::unlink(good.c_str());
}

// A bad numeric flag exits 2 before anything runs: no uncaught std::sto*
// abort, no silent fallback to a default, no zero quantum busy-looping.
// Were a value accepted, the daemon would run its 0.2 s and exit 0 and the
// kernel would miss its manager and exit 1, so each case fails fast.
TEST(ToolsIntegration, DaemonFlagsRejectBadValuesWithExit2) {
  const std::string managerd = tool("bbsched_managerd");
  const std::string kernel = tool("bbsched_kernel");
  if (!executable_exists(managerd) || !executable_exists(kernel)) {
    GTEST_SKIP() << "tools not built under " << BBSCHED_BINARY_DIR;
  }
  const std::string socket_path =
      "/tmp/bbsched-flagtest-" + std::to_string(::getpid()) + ".sock";
  for (const char* flag :
       {"--quantum-ms=abc", "--quantum-ms=5x", "--quantum-ms=0",
        "--quantum-ms=-5", "--window=x", "--window=0", "--procs=abc",
        "--procs=0", "--bus-tps=1e999", "--bus-tps=abc", "--bus-tps=0",
        "--bus-tps=-1", "--bus-tps=inf", "--bus-tps=nan", "--run-seconds=1x",
        "--status-interval=-1"}) {
    EXPECT_EQ(wait_exit(spawn({managerd, "--socket=" + socket_path,
                               "--run-seconds=0.2", "--status-interval=0",
                               flag})),
              2)
        << "bbsched_managerd " << flag;
  }
  for (const char* flag : {"--tps=abc", "--tps=inf", "--seconds=1x",
                           "--threads=abc", "--threads=0"}) {
    EXPECT_EQ(wait_exit(spawn({kernel, "--socket=" + socket_path,
                               "--kind=nbbma", "--seconds=0.1", flag})),
              2)
        << "bbsched_kernel " << flag;
  }
}

TEST(ToolsIntegration, KernelFailsCleanlyWithoutDaemon) {
  const std::string kernel = tool("bbsched_kernel");
  if (!executable_exists(kernel)) {
    GTEST_SKIP() << "tools not built";
  }
  const pid_t k = spawn({kernel, "--socket=/tmp/bbsched-no-daemon.sock",
                         "--kind=nbbma", "--seconds=1"});
  EXPECT_EQ(wait_exit(k), 1);  // documented exit code: manager unreachable
}

}  // namespace
