// Small helpers shared by the benchmark harness: clocks, CPU time, order
// statistics and the flat result record every subcommand prints.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

inline double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// User + system CPU seconds of this process.
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return tv_seconds(ru.ru_utime) + tv_seconds(ru.ru_stime);
}

/// Peak resident set of this process's address space in MB (VmHWM).
/// Unlike ru_maxrss, VmHWM starts afresh at exec, so it does not inherit
/// the peak of whatever process spawned us.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Linear-interpolated quantile q in [0, 1] of `v` (copied, then sorted).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// One subcommand's outcome. Printed as a single JSON line prefixed with
/// "RESULT " so run.py can find it among the progress lines.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    ++failed;
    errors.push_back(why);
  }

  void print() const {
    std::printf("RESULT {\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    const char* sep = "";
    for (const auto& [name, value] : metrics) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(),
                  std::isfinite(value) ? value : 0.0);
      sep = ", ";
    }
    std::printf("}, \"errors\": [");
    sep = "";
    for (const auto& e : errors) {
      std::printf("%s\"", sep);
      for (char c : e) {
        if (c == '"' || c == '\\') std::putchar('\\');
        std::putchar(c == '\n' ? ' ' : c);
      }
      std::printf("\"");
      sep = ", ";
    }
    std::printf("]}\n");
    std::fflush(stdout);
  }
};

}  // namespace perfbench
