// Replays a JSONL observability trace and explains, quantum by quantum, why
// the manager elected the applications it did: every candidate's bandwidth
// estimate, the fitness score it earned, the allocation order, head-of-list
// starvation guards, the bus utilization the decision produced, and who got
// evicted as a result.
//
// Usage:
//   trace_inspect FILE.jsonl [--quantum=N] [--limit=N]
//   trace_inspect --demo
//
// FILE.jsonl comes from any bench's --trace-out=FILE.jsonl flag (the .jsonl
// suffix selects the lossless line format; without it the benches emit
// Chrome trace JSON for chrome://tracing, which this tool does not read).
// --demo runs a quick traced simulation (two SP instances + four BBMA
// streamers under Latest-Quantum), exports it to JSONL in memory and
// inspects that — a self-contained tour of the event schema.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/cli.h"
#include "experiments/fig2.h"
#include "experiments/runner.h"
#include "obs/export.h"
#include "obs/json.h"
#include "workload/workload.h"

namespace {

using namespace bbsched;

struct Candidate {
  int app = -1;
  int nthreads = 0;
  double bbw = 0.0;
  double abbw = 0.0;
  double score = 0.0;
  int alloc_order = -1;
  bool elected = false;
  bool head_default = false;
};

struct Quantum {
  std::uint64_t index = 0;
  std::uint64_t start_us = 0;
  int nprocs = 0;
  int candidates = 0;
  std::vector<Candidate> decisions;
  // Bus behaviour and state changes observed until the next quantum.
  double util_sum = 0.0;
  std::uint64_t bus_ticks = 0;
  std::uint64_t saturated_ticks = 0;
  std::vector<std::string> transitions;
};

/// Parses one JSONL line into the per-quantum aggregation.
bool ingest_line(const std::string& line, std::map<std::uint64_t, Quantum>& qs,
                 std::uint64_t& current, std::size_t lineno) {
  obs::json::Value v;
  std::string err;
  if (!obs::json::parse(line, v, &err)) {
    std::cerr << "line " << lineno << ": " << err << '\n';
    return false;
  }
  const std::string type = v.string_or("type", "");
  if (type == "QuantumStart") {
    current = static_cast<std::uint64_t>(v.number_or("quantum", 0));
    Quantum& q = qs[current];
    q.index = current;
    q.start_us = static_cast<std::uint64_t>(v.number_or("t", 0));
    q.nprocs = static_cast<int>(v.number_or("nprocs", 0));
    q.candidates = static_cast<int>(v.number_or("candidates", 0));
  } else if (type == "ElectionDecision") {
    Quantum& q = qs[static_cast<std::uint64_t>(v.number_or("quantum", 0))];
    Candidate c;
    c.app = static_cast<int>(v.number_or("app", -1));
    c.nthreads = static_cast<int>(v.number_or("nthreads", 0));
    c.bbw = v.number_or("bbw_per_thread", 0.0);
    c.abbw = v.number_or("abbw_per_proc", 0.0);
    c.score = v.number_or("score", 0.0);
    c.alloc_order = static_cast<int>(v.number_or("alloc_order", -1));
    if (const auto* e = v.find("elected")) c.elected = e->boolean;
    if (const auto* h = v.find("head_default")) c.head_default = h->boolean;
    q.decisions.push_back(c);
  } else if (type == "BusResolution") {
    Quantum& q = qs[current];
    q.util_sum += v.number_or("utilization", 0.0);
    ++q.bus_ticks;
    if (const auto* s = v.find("saturated")) {
      if (s->boolean) ++q.saturated_ticks;
    }
  } else if (type == "JobStateChange") {
    Quantum& q = qs[current];
    std::ostringstream t;
    t << "app " << static_cast<int>(v.number_or("app", -1));
    const int thread = static_cast<int>(v.number_or("thread", -1));
    if (thread >= 0) t << " thread " << thread;
    t << ": " << v.string_or("from", "?") << " -> " << v.string_or("to", "?");
    q.transitions.push_back(t.str());
  }
  // CounterSample events are summarized implicitly through bbw_per_thread.
  return true;
}

void print_quantum(const Quantum& q) {
  std::printf("quantum %llu @ %.1f ms — %d candidate%s for %d processor%s\n",
              static_cast<unsigned long long>(q.index),
              static_cast<double>(q.start_us) / 1000.0, q.candidates,
              q.candidates == 1 ? "" : "s", q.nprocs,
              q.nprocs == 1 ? "" : "s");
  for (const auto& c : q.decisions) {
    std::printf("  app %-3d %d thr  bbw/thr %7.3f  abbw/proc %7.3f  "
                "score %8.2f",
                c.app, c.nthreads, c.bbw, c.abbw, c.score);
    if (c.elected) {
      std::printf("  ELECTED #%d%s", c.alloc_order,
                  c.head_default ? " (head-of-list starvation guard)" : "");
    } else {
      std::printf("  passed over");
    }
    std::printf("\n");
  }
  if (q.bus_ticks > 0) {
    std::printf("  bus: mean utilization %5.1f%%, saturated %5.1f%% of %llu "
                "ticks\n",
                100.0 * q.util_sum / static_cast<double>(q.bus_ticks),
                100.0 * static_cast<double>(q.saturated_ticks) /
                    static_cast<double>(q.bus_ticks),
                static_cast<unsigned long long>(q.bus_ticks));
  }
  for (const auto& t : q.transitions) {
    std::printf("  state: %s\n", t.c_str());
  }
}

/// Runs the self-contained demo: a traced Latest-Quantum run of the paper's
/// saturated SP workload, exported to JSONL in memory.
std::string demo_jsonl() {
  obs::Tracer tracer({.enabled = true});
  experiments::ExperimentConfig cfg;
  cfg.time_scale = 0.05;  // a handful of quanta is plenty for a tour
  cfg.tracer = &tracer;
  const auto w = experiments::make_fig2_workload(
      experiments::Fig2Set::kSaturated, workload::paper_application("SP"),
      cfg.machine.bus);
  auto engine = experiments::make_engine(
      w, experiments::SchedulerKind::kLatestQuantum, cfg);
  (void)engine->run();
  std::ostringstream os;
  obs::write_jsonl(os, tracer);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  long long only_quantum = -1;
  std::size_t limit = 0;  // 0 = no limit
  const auto files = experiments::parse_flags(
      argc, argv,
      {{"--demo", "", "inspect a quick traced run instead of a file",
        experiments::set_true(demo)},
       {"--quantum", "N", "print only quantum N, >= 0",
        experiments::number(only_quantum, 0)},
       {"--limit", "N", "print at most N quanta (default 0 = all)",
        experiments::number(limit)}},
      "FILE.jsonl");
  const std::string path = files.empty() ? "" : std::string(files.back());
  if (!demo && path.empty()) {
    std::cerr << "usage: trace_inspect FILE.jsonl [--quantum=N] [--limit=N]\n"
                 "       trace_inspect --demo\n";
    return 2;
  }

  std::istringstream demo_stream;
  std::ifstream file_stream;
  std::istream* in = nullptr;
  if (demo) {
    std::cerr << "[demo] tracing 2x SP + 4 BBMA under Latest-Quantum...\n";
    demo_stream.str(demo_jsonl());
    in = &demo_stream;
  } else {
    file_stream.open(path);
    if (!file_stream) {
      std::cerr << "cannot open " << path << '\n';
      return 2;
    }
    in = &file_stream;
  }

  std::map<std::uint64_t, Quantum> quanta;
  std::uint64_t current = 0;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(*in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (!ingest_line(line, quanta, current, lineno)) return 1;
  }
  if (quanta.empty()) {
    std::cerr << "no events found — was the trace written with "
                 "--trace-out=FILE.jsonl (JSONL, not Chrome JSON)?\n";
    return 1;
  }

  std::size_t printed = 0;
  for (const auto& [index, q] : quanta) {
    if (only_quantum >= 0 &&
        index != static_cast<std::uint64_t>(only_quantum)) {
      continue;
    }
    print_quantum(q);
    if (limit > 0 && ++printed >= limit) {
      std::printf("... (%zu more quanta; raise --limit)\n",
                  quanta.size() - printed);
      break;
    }
  }
  return 0;
}
