// Tiny flag parsing shared by the bench binaries. The flags are listed in
// kCliFlags below, which --help (or -h) prints before exiting 0. A
// malformed value (`--scale=abc`, `--jobs=4x`) prints one line naming the
// flag and exits 2. Unknown flags are ignored, so binary-specific flags
// (fig2_sweep's --seeds=N, read with cli_detail::int_flag) and
// google-benchmark flags pass through. The daemon tools (bbsched_managerd,
// bbsched_kernel) read their numeric flags with the same cli_detail
// helpers.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>

namespace bbsched::experiments {

inline constexpr std::string_view kCliFlags =
    R"(  --fast             scale job durations to 20% (quick smoke runs)
  --scale=X          explicit duration scale factor (X > 0)
  --csv              additionally print tables as CSV
  --app=NAME         restrict to one application
  --seed=N           engine seed
  --jobs=N           worker threads for parallel experiment batches
                     (0 = hardware thread count, the default)
  --trace-out=FILE   after the bench, rerun one representative workload
                     with the structured tracer attached and write the
                     events to FILE — Chrome trace_event JSON (load in
                     chrome://tracing or https://ui.perfetto.dev) unless
                     FILE ends in .jsonl, which selects lossless JSONL
  --metrics-out=FILE write the metrics-registry snapshot of that traced
                     run as JSON to FILE
  --help, -h         print this list and exit
)";

struct CliOptions {
  double time_scale = 1.0;
  bool csv = false;
  std::string app;  ///< empty = all applications
  std::uint64_t seed = 42;
  int jobs = 0;  ///< parallel harness workers; 0 = hardware threads
  std::string trace_out;    ///< empty = no trace export
  std::string metrics_out;  ///< empty = no metrics export
};

namespace cli_detail {

/// Parses all of `text` into `out`; false if any character is left over.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

[[noreturn]] inline void bad_value(const char* prog, std::string_view flag,
                                   std::string_view value) {
  std::fprintf(stderr, "%s: invalid value '%.*s' for %.*s\n", prog,
               static_cast<int>(value.size()), value.data(),
               static_cast<int>(flag.size()), flag.data());
  std::exit(2);
}

/// Binary-specific numeric flags: true, with `out` set, when `arg` is
/// `flag=value`. A value that is malformed, has trailing characters, does
/// not fit T, or fails `ok(out)` exits 2 through bad_value.
template <typename T, typename Ok>
bool checked_flag(const char* prog, std::string_view arg,
                  std::string_view flag, Ok ok, T& out) {
  if (arg.size() <= flag.size() || arg.substr(0, flag.size()) != flag ||
      arg[flag.size()] != '=') {
    return false;
  }
  const std::string_view value = arg.substr(flag.size() + 1);
  if (!parse_whole(value, out) || !ok(out)) bad_value(prog, flag, value);
  return true;
}

/// Integer flags bounded below (fig2_sweep --seeds=N, perf_ticks
/// --ticks=N, bbsched_managerd --procs=N).
template <typename T>
bool int_flag(const char* prog, std::string_view arg, std::string_view flag,
              T min, T& out) {
  return checked_flag(prog, arg, flag, [min](T v) { return v >= min; }, out);
}

/// checked_flag predicates for reals. from_chars reads "inf" and "nan",
/// so finiteness is checked here.
inline bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }
inline bool finite_non_negative(double v) {
  return std::isfinite(v) && v >= 0.0;
}

}  // namespace cli_detail

[[nodiscard]] inline CliOptions parse_cli(int argc, char** argv) {
  const char* prog = argc > 0 ? argv[0] : "bench";
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // Splits "--flag=value"; value is empty for other arguments.
    const std::size_t eq = arg.find('=');
    const std::string_view flag = arg.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : arg.substr(eq + 1);
    if (arg == "--help" || arg == "-h") {
      std::printf("Usage: %s [flags]\n%.*s", prog,
                  static_cast<int>(kCliFlags.size()), kCliFlags.data());
      std::exit(0);
    } else if (arg == "--fast") {
      opt.time_scale = 0.2;
    } else if (flag == "--scale") {
      if (!cli_detail::parse_whole(value, opt.time_scale) ||
          !cli_detail::finite_positive(opt.time_scale)) {
        cli_detail::bad_value(prog, flag, value);
      }
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (flag == "--app") {
      opt.app = value;
    } else if (flag == "--seed") {
      if (!cli_detail::parse_whole(value, opt.seed)) {
        cli_detail::bad_value(prog, flag, value);
      }
    } else if (flag == "--jobs") {
      if (!cli_detail::parse_whole(value, opt.jobs)) {
        cli_detail::bad_value(prog, flag, value);
      }
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--metrics-out") {
      opt.metrics_out = value;
    }
  }
  return opt;
}

}  // namespace bbsched::experiments
