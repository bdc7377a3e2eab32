// perf_compare: diff two benchmark summaries section by section.
//
// Usage: perf_compare BASELINE.json CURRENT.json
//
// Reads the files `perfbench/compare.py --perf-compare-out PREFIX` writes
// (PREFIX.b.json for the parent, PREFIX.a.json for the change): one JSON
// object with a section per workload, each an object of numeric fields (the
// metric medians). For every section in both files it prints each field's
// old value, new value and relative delta. Exit 0 on success; 2 on a usage
// error or when a file cannot be read or is not of that shape, naming the
// file.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/cli.h"
#include "obs/json.h"

namespace {

using bbsched::obs::json::Value;

/// Loads `path` as a {section: {field: number}} object. On failure prints
/// one line naming the file and returns false.
bool load(const std::string& path, Value& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "perf_compare: cannot read %s\n", path.c_str());
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string err;
  if (!bbsched::obs::json::parse(text.str(), out, &err)) {
    std::fprintf(stderr, "perf_compare: %s: %s\n", path.c_str(), err.c_str());
    return false;
  }
  bool shaped = out.is_object();
  for (const auto& [section, fields] : out.object) {
    shaped = shaped && fields.is_object();
    for (const auto& [field, value] : fields.object) {
      shaped = shaped && value.is_number();
    }
  }
  if (!shaped) {
    std::fprintf(stderr,
                 "perf_compare: %s: not a {section: {field: number}} object\n",
                 path.c_str());
  }
  return shaped;
}

void print_section(const std::string& name, const Value& base,
                   const Value& cur) {
  std::printf("%s\n", name.c_str());
  for (const auto& [key, old_v] : base.object) {
    const Value* new_v = cur.find(key);
    if (new_v == nullptr) continue;
    std::string delta = "      -";
    if (old_v.number != 0.0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%+7.1f%%",
                    (new_v->number - old_v.number) / old_v.number * 100.0);
      delta = buf;
    }
    std::printf("  %-18s %14.6g -> %14.6g  %s\n", key.c_str(), old_v.number,
                new_v->number, delta.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto operands = bbsched::experiments::parse_flags(
      argc, argv, {}, "BASELINE.json CURRENT.json");
  const std::vector<std::string> files(operands.begin(), operands.end());
  if (files.size() != 2) {
    std::fprintf(stderr, "usage: perf_compare BASELINE.json CURRENT.json\n");
    return 2;
  }
  Value base;
  Value cur;
  if (!load(files[0], base) || !load(files[1], cur)) return 2;

  std::printf("perf_compare: %s -> %s\n\n", files[0].c_str(),
              files[1].c_str());
  for (const auto& [name, section] : base.object) {
    if (const Value* other = cur.find(name)) {
      print_section(name, section, *other);
    }
  }
  return 0;
}
