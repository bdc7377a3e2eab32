// One flag table for every binary in bench/, tools/ and examples/.
//
// A binary lists each flag it accepts once, as a Flag: its name, the
// placeholder of its value (empty for a switch), one help line, and a setter
// that stores the value and returns false when the value is malformed or
// out of range. parse_flags() walks argv against that table: --help (or -h)
// prints the table and exits 0; an unknown flag, a switch given a value, a
// flag missing its value, or a value its setter refuses prints one line
// naming the flag and exits 2. The benches share the flags of parse_cli()
// and append their own; every other binary lists all of its flags.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "workload/app_profile.h"

namespace bbsched::experiments {

struct Flag {
  std::string_view name;   ///< "--seeds"
  std::string_view value;  ///< --help placeholder ("N"); empty = a switch
  std::string_view help;   ///< one --help line: meaning, range, default
  /// Stores the value (a switch receives ""); false rejects it.
  std::function<bool(std::string_view)> set;
};

/// Parses all of `text` into `out`. False when it is malformed, has
/// trailing characters, does not fit T, or is a non-finite real
/// (from_chars reads "inf" and "nan").
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

[[noreturn]] inline void bad_value(const char* prog, std::string_view flag,
                                   std::string_view value) {
  std::fprintf(stderr, "%s: invalid value '%.*s' for %.*s\n", prog,
               static_cast<int>(value.size()), value.data(),
               static_cast<int>(flag.size()), flag.data());
  std::exit(2);
}

/// Setter of a number for which `ok` holds.
template <typename T, typename Ok>
auto number_if(T& out, Ok ok) {
  return [&out, ok](std::string_view text) {
    T v{};
    if (!parse_number(text, v) || !ok(v)) return false;
    out = v;
    return true;
  };
}

/// Setter of a number in [min, max].
template <typename T>
auto number(T& out,
            std::type_identity_t<T> min = std::numeric_limits<T>::lowest(),
            std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  return number_if(out, [min, max](T v) { return v >= min && v <= max; });
}

/// Setter of a switch.
inline auto set_true(bool& out) {
  return [&out](std::string_view) { return out = true; };
}

/// Setter of a text value (a path or a name), kept as given.
inline auto set_text(std::string& out) {
  return [&out](std::string_view text) {
    out = text;
    return true;
  };
}

/// True when `name` is one of the paper's applications.
[[nodiscard]] inline bool is_paper_app(std::string_view name) {
  for (const auto& app : workload::paper_applications()) {
    if (app.name == name) return true;
  }
  return false;
}

/// Reads an example's positional count (SECONDS, QUANTA, the N of
/// NAMExN): a whole number >= 1, or exit 2 naming the argument.
[[nodiscard]] inline int count_operand(const char* prog, std::string_view name,
                                       std::string_view text) {
  int n = 0;
  if (!parse_number(text, n) || n < 1) bad_value(prog, name, text);
  return n;
}

/// Parses argv against `flags` and returns the operands: the arguments not
/// starting with '-', accepted only by a binary that names them in
/// `operands` (its --help usage line, e.g. "FILE.jsonl").
inline std::vector<std::string_view> parse_flags(
    int argc, char** argv, const std::vector<Flag>& flags,
    std::string_view operands = {}) {
  const char* prog = argc > 0 ? argv[0] : "bbsched";
  std::vector<std::string_view> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("Usage: %s [flags]%s%.*s\n", prog, operands.empty() ? "" : " ",
                  static_cast<int>(operands.size()), operands.data());
      for (const Flag& f : flags) {
        const std::string spec =
            std::string(f.name) + (f.value.empty() ? "" : "=") +
            std::string(f.value);
        std::printf("  %-20s %.*s\n", spec.c_str(),
                    static_cast<int>(f.help.size()), f.help.data());
      }
      std::printf("  %-20s print this list and exit\n"
                  "An unknown flag or a malformed or out-of-range value "
                  "exits 2.\n",
                  "--help, -h");
      std::exit(0);
    }
    if (!arg.starts_with('-')) {
      if (operands.empty()) {
        std::fprintf(stderr, "%s: unexpected argument '%s' (try --help)\n",
                     prog, argv[i]);
        std::exit(2);
      }
      positional.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (f.name == name) {
        flag = &f;
        break;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "%s: unknown flag '%.*s' (try --help)\n", prog,
                   static_cast<int>(name.size()), name.data());
      std::exit(2);
    }
    if ((eq == std::string_view::npos) != flag->value.empty()) {
      std::fprintf(stderr, "%s: %.*s %s\n", prog,
                   static_cast<int>(name.size()), name.data(),
                   flag->value.empty() ? "takes no value" : "needs a value");
      std::exit(2);
    }
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : arg.substr(eq + 1);
    if (!flag->set(value)) bad_value(prog, name, value);
  }
  return positional;
}

struct CliOptions {
  double time_scale = 1.0;
  bool csv = false;
  std::string app;  ///< empty = all applications
  std::uint64_t seed = 42;
  int jobs = 0;  ///< parallel harness workers; 0 = hardware threads
  std::string trace_out;    ///< empty = no trace export
  std::string metrics_out;  ///< empty = no metrics export
};

/// Parses the flags every bench shares, then `own`, the binary's own.
[[nodiscard]] inline CliOptions parse_cli(int argc, char** argv,
                                          std::vector<Flag> own = {}) {
  CliOptions opt;
  own.insert(own.begin(), {
      {"--fast", "", "scale job durations to 20% (quick smoke runs)",
       [&opt](std::string_view) {
         opt.time_scale = 0.2;
         return true;
       }},
      {"--scale", "X", "explicit duration scale factor, X > 0 (default 1)",
       number_if(opt.time_scale, [](double x) { return x > 0.0; })},
      {"--csv", "", "additionally print tables as CSV", set_true(opt.csv)},
      {"--app", "NAME", "restrict to one of the paper's 11 applications",
       [&opt](std::string_view name) {
         opt.app = name;
         return is_paper_app(name);
       }},
      {"--seed", "N", "engine seed (default 42)", number(opt.seed)},
      {"--jobs", "N",
       "worker threads for parallel batches (default 0 = hardware threads)",
       number(opt.jobs)},
      {"--trace-out", "FILE",
       "rerun one representative workload traced; Chrome trace JSON, or "
       "JSONL if FILE ends in .jsonl",
       set_text(opt.trace_out)},
      {"--metrics-out", "FILE",
       "write the metrics snapshot of that traced run as JSON",
       set_text(opt.metrics_out)},
  });
  parse_flags(argc, argv, own);
  return opt;
}

}  // namespace bbsched::experiments
