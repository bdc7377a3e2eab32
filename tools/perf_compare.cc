// perf_compare: diff two perf_ticks JSON reports section by section.
//
// Usage: perf_compare BASELINE.json CURRENT.json [--min-speedup=X]
//
// Reads the flat JSON emitted by bench/perf_ticks (one object of named
// sections, each a flat object of numeric/boolean fields) and prints, per
// section, every field present in both files with its old value, new value
// and relative delta. Throughput-style fields (ticks_per_sec, speedup) are
// marked so a reader can see at a glance whether a delta is an improvement.
//
// With --min-speedup=X the tool exits non-zero unless
//   current.tick_bench.ticks_per_sec >= X * baseline.tick_bench.ticks_per_sec
// which makes it usable as a CI regression gate:
//   perf_compare BENCH_perf_ticks_base.json new.json --min-speedup=0.9
//
// The parser is deliberately tiny: it understands exactly the subset of JSON
// the bench emits (flat sections, numeric and boolean scalars) and depends on
// nothing outside the standard library.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/cli.h"

namespace {

using Section = std::map<std::string, double>;
using Report = std::map<std::string, Section>;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Extracts `"name": value` pairs. A value that opens a brace starts a new
/// section scoped until the matching close; scalar values (numbers, true,
/// false) land in the current section. Top-level scalars (hardware_threads)
/// go into a section named "".
Report parse(const std::string& text) {
  Report rep;
  std::string section;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    if (text[i] != '"') {
      if (text[i] == '}') section.clear();
      ++i;
      continue;
    }
    const std::size_t key_start = ++i;
    while (i < n && text[i] != '"') ++i;
    if (i >= n) break;
    const std::string key = text.substr(key_start, i - key_start);
    ++i;  // closing quote
    while (i < n && (std::isspace(static_cast<unsigned char>(text[i])) ||
                     text[i] == ':')) {
      ++i;
    }
    if (i >= n) break;
    if (text[i] == '{') {
      section = key;
      ++i;
      continue;
    }
    double value = 0.0;
    if (std::strncmp(text.c_str() + i, "true", 4) == 0) {
      value = 1.0;
    } else if (std::strncmp(text.c_str() + i, "false", 5) == 0) {
      value = 0.0;
    } else {
      char* end = nullptr;
      value = std::strtod(text.c_str() + i, &end);
      if (end == text.c_str() + i) continue;  // not a scalar; skip
    }
    rep[section][key] = value;
  }
  return rep;
}

bool higher_is_better(const std::string& key) {
  return key == "ticks_per_sec" || key == "speedup" ||
         key == "results_identical" || key == "batched_frac";
}

void print_section(const std::string& name, const Section& base,
                   const Section& cur) {
  std::printf("%s\n", name.empty() ? "(top level)" : name.c_str());
  for (const auto& [key, old_v] : base) {
    const auto it = cur.find(key);
    if (it == cur.end()) continue;
    const double new_v = it->second;
    std::string delta = "      -";
    if (old_v != 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%+7.1f%%",
                    (new_v - old_v) / old_v * 100.0);
      delta = buf;
    }
    std::printf("  %-18s %14.4f -> %14.4f  %s%s\n", key.c_str(), old_v, new_v,
                delta.c_str(), higher_is_better(key) ? "  (higher=better)" : "");
  }
  for (const auto& [key, new_v] : cur) {
    if (base.find(key) == base.end()) {
      std::printf("  %-18s %14s -> %14.4f  (new field)\n", key.c_str(), "-",
                  new_v);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  double min_speedup = 0.0;
  const auto operands = bbsched::experiments::parse_flags(
      argc, argv,
      {{"--min-speedup", "X",
        "fail unless tick_bench.ticks_per_sec rose X-fold, X >= 0 "
        "(default 0 = no gate)",
        bbsched::experiments::number(min_speedup, 0.0)}},
      "BASELINE.json CURRENT.json");
  const std::vector<std::string> files(operands.begin(), operands.end());
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: perf_compare BASELINE.json CURRENT.json "
                 "[--min-speedup=X]\n");
    return 2;
  }

  std::string base_text;
  std::string cur_text;
  if (!read_file(files[0], base_text)) {
    std::fprintf(stderr, "cannot read %s\n", files[0].c_str());
    return 2;
  }
  if (!read_file(files[1], cur_text)) {
    std::fprintf(stderr, "cannot read %s\n", files[1].c_str());
    return 2;
  }
  const Report base = parse(base_text);
  const Report cur = parse(cur_text);
  if (base.empty() || cur.empty()) {
    std::fprintf(stderr, "no sections parsed (is this perf_ticks JSON?)\n");
    return 2;
  }

  std::printf("perf_compare: %s -> %s\n\n", files[0].c_str(),
              files[1].c_str());
  for (const auto& [name, section] : base) {
    const auto it = cur.find(name);
    if (it == cur.end()) continue;
    print_section(name, section, it->second);
  }

  if (min_speedup > 0.0) {
    const auto b = base.find("tick_bench");
    const auto c = cur.find("tick_bench");
    if (b == base.end() || c == cur.end() ||
        !b->second.count("ticks_per_sec") ||
        !c->second.count("ticks_per_sec") ||
        b->second.at("ticks_per_sec") <= 0.0) {
      std::fprintf(stderr,
                   "FAIL: --min-speedup needs tick_bench.ticks_per_sec in "
                   "both files\n");
      return 1;
    }
    const double ratio =
        c->second.at("ticks_per_sec") / b->second.at("ticks_per_sec");
    std::printf("\ntick_bench speedup: %.3fx (gate: >= %.3fx)\n", ratio,
                min_speedup);
    if (ratio < min_speedup) {
      std::fprintf(stderr, "FAIL: speedup %.3fx below gate %.3fx\n", ratio,
                   min_speedup);
      return 1;
    }
  }
  return 0;
}
