// Extension: scheduling quality under counter-feed faults.
//
// The paper assumes perfect bus-transaction counters. This bench injects a
// seeded fault schedule into the manager's counter reads (src/faults) and
// sweeps the sample-dropout rate from 0% to 30%, plus one mixed schedule
// (drop + stale + noise + read-fail + wraparound), measuring how gracefully
// the bandwidth-aware policy degrades: mean turnaround of the measured
// applications versus the fault-free run, and the manager's own fault
// telemetry (missed quanta, quarantines, degraded elections).
//
// Expected shape: bounded degradation. The staleness ladder (hold → decay →
// quarantine, docs/ROBUSTNESS.md) keeps usable estimates under heavy
// dropout, so turnaround stays within a few percent of fault-free instead
// of collapsing toward bandwidth-oblivious scheduling.
//
// Usage: ext_faults [--fast] [--csv] [--app=NAME] [--seed=N]
//                   [--json-out=FILE] [--trace-out=FILE]
//                   [--metrics-out=FILE]
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "experiments/cli.h"
#include "experiments/observe.h"
#include "experiments/runner.h"
#include "faults/fault_injector.h"
#include "obs/metrics.h"
#include "stats/table.h"
#include "workload/workload.h"

namespace {

struct FaultRow {
  std::string label;
  bbsched::faults::FaultConfig fc;
};

struct RowResult {
  std::string label;
  double mean_turnaround_us = 0.0;
  double delta_pct = 0.0;  ///< vs the fault-free managed run
  double machine_rate_tps = 0.0;
  std::uint64_t missed_quanta = 0;
  std::uint64_t invalid_samples = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t degraded_elections = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace bbsched;
  std::string json_out;
  const auto opt = experiments::parse_cli(
      argc, argv,
      {{"--json-out", "FILE", "also write the sweep as JSON to FILE",
        experiments::set_text(json_out)}});

  const auto& app =
      workload::paper_application(opt.app.empty() ? "SP" : opt.app);

  experiments::ExperimentConfig base;
  base.time_scale = opt.time_scale;
  base.engine.seed = opt.seed;
  const auto w = workload::fig2_mixed(app, base.machine.bus);

  std::vector<FaultRow> rows;
  rows.push_back({"fault-free", {}});
  for (double p : {0.10, 0.20, 0.30}) {
    faults::FaultConfig fc;
    fc.enabled = true;
    fc.seed = opt.seed ^ 0x5eedULL;
    fc.drop_prob = p;
    char label[32];
    std::snprintf(label, sizeof(label), "drop %.0f%%", p * 100.0);
    rows.push_back({label, fc});
  }
  {
    faults::FaultConfig fc;
    fc.enabled = true;
    fc.seed = opt.seed ^ 0x5eedULL;
    fc.drop_prob = 0.10;
    fc.stale_prob = 0.05;
    fc.noise_prob = 0.05;
    fc.read_fail_prob = 0.02;
    fc.wrap_prob = 0.005;
    fc.wrap_span = 1 << 20;
    rows.push_back({"mixed faults", fc});
  }

  std::vector<RowResult> results;
  double fault_free_mean = 0.0;
  for (const FaultRow& row : rows) {
    experiments::ExperimentConfig cfg = base;
    cfg.managed.counter_faults = row.fc;
    obs::MetricsRegistry metrics;
    cfg.metrics = &metrics;
    const auto r = experiments::run_workload(
        w, experiments::SchedulerKind::kManagedCustom, cfg);

    RowResult out;
    out.label = row.label;
    out.mean_turnaround_us = r.measured_mean_turnaround_us;
    out.machine_rate_tps = r.machine_rate_tps;
    out.missed_quanta = static_cast<std::uint64_t>(
        metrics.counter("manager.faults.missed_quanta").value());
    out.invalid_samples = static_cast<std::uint64_t>(
        metrics.counter("manager.faults.invalid_samples").value());
    out.quarantines = static_cast<std::uint64_t>(
        metrics.counter("manager.faults.quarantines").value());
    out.degraded_elections = static_cast<std::uint64_t>(
        metrics.counter("manager.degraded_elections").value());
    if (fault_free_mean == 0.0) fault_free_mean = out.mean_turnaround_us;
    out.delta_pct =
        fault_free_mean > 0.0
            ? 100.0 * (out.mean_turnaround_us - fault_free_mean) /
                  fault_free_mean
            : 0.0;
    results.push_back(out);
  }

  stats::Table table("Counter-fault sweep — " + w.name + ", " + app.name +
                     " (quanta-window policy)");
  table.set_header({"schedule", "mean T (s)", "vs fault-free",
                    "machine (trans/us)", "missed", "invalid", "quarantined",
                    "rr elections"});
  for (const RowResult& r : results) {
    table.add_row({r.label, stats::Table::num(r.mean_turnaround_us / 1e6),
                   stats::Table::pct(r.delta_pct),
                   stats::Table::num(r.machine_rate_tps, 2),
                   std::to_string(r.missed_quanta),
                   std::to_string(r.invalid_samples),
                   std::to_string(r.quarantines),
                   std::to_string(r.degraded_elections)});
  }
  table.render(std::cout);
  if (opt.csv) {
    std::cout << '\n';
    table.render_csv(std::cout);
  }

  if (!json_out.empty()) {
    if (std::FILE* f = std::fopen(json_out.c_str(), "w")) {
      std::fprintf(f, "{\n  \"app\": \"%s\",\n  \"rows\": [\n",
                   app.name.c_str());
      for (std::size_t i = 0; i < results.size(); ++i) {
        const RowResult& r = results[i];
        std::fprintf(
            f,
            "    {\"schedule\": \"%s\", \"mean_turnaround_us\": %.1f, "
            "\"delta_pct\": %.2f, \"machine_rate_tps\": %.3f, "
            "\"missed_quanta\": %llu, \"invalid_samples\": %llu, "
            "\"quarantines\": %llu, \"degraded_elections\": %llu}%s\n",
            r.label.c_str(), r.mean_turnaround_us, r.delta_pct,
            r.machine_rate_tps,
            static_cast<unsigned long long>(r.missed_quanta),
            static_cast<unsigned long long>(r.invalid_samples),
            static_cast<unsigned long long>(r.quarantines),
            static_cast<unsigned long long>(r.degraded_elections),
            i + 1 < results.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n}\n");
      std::fclose(f);
      std::fprintf(stderr, "wrote %s\n", json_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 2;
    }
  }

  // Representative traced run: the heaviest dropout schedule.
  experiments::ExperimentConfig traced = base;
  traced.managed.counter_faults = rows[3].fc;
  (void)experiments::maybe_dump_observability(
      opt, w, experiments::SchedulerKind::kManagedCustom, traced);
  return 0;
}
