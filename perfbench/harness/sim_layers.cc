#include "sim_layers.h"

#include <cstring>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/managed_scheduler.h"
#include "experiments/fig2.h"
#include "experiments/parallel.h"
#include "experiments/runner.h"
#include "experiments/sweep.h"
#include "sim/bus_model.h"
#include "workload/app_profile.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace ex = bbsched::experiments;
namespace sim = bbsched::sim;
namespace wl = bbsched::workload;
using ex::SchedulerKind;

// ---------------------------------------------------------------------------
// Forwarding decorator: times tick() and counts quiescent_until() answers,
// forwarding start/quiescent_until/name unchanged so batching is unchanged.

struct TickCounters {
  std::uint64_t tick_calls = 0;
  std::int64_t tick_ns = 0;
  std::uint64_t quiescent_calls = 0;
  std::uint64_t quiescent_later = 0;  ///< answers later than `now`
};

class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sim::Scheduler> inner, TickCounters& c)
      : inner_(std::move(inner)), c_(c) {}

  void start(sim::Machine& m, bbsched::trace::ScheduleTrace& t) override {
    inner_->start(m, t);
  }
  void tick(sim::Machine& m, sim::SimTime now,
            bbsched::trace::ScheduleTrace& t) override {
    const auto t0 = Clock::now();
    inner_->tick(m, now, t);
    c_.tick_ns += ns_between(t0, Clock::now());
    ++c_.tick_calls;
  }
  [[nodiscard]] sim::SimTime quiescent_until(const sim::Machine& m,
                                             sim::SimTime now) const override {
    const sim::SimTime until = inner_->quiescent_until(m, now);
    ++c_.quiescent_calls;
    if (until > now) ++c_.quiescent_later;
    return until;
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

  [[nodiscard]] sim::Scheduler& inner() { return *inner_; }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
  TickCounters& c_;
};

struct DecoratedRun {
  ex::RunResult result;
  TickCounters ticks;
  std::int64_t run_ns = 0;  ///< wall time of Engine::run
};

/// make_engine + run + collect_result with the scheduler wrapped.
DecoratedRun run_decorated(const ex::RunRequest& r) {
  DecoratedRun out;
  auto timed = std::make_unique<TimedScheduler>(
      ex::make_scheduler(r.kind, r.cfg), out.ticks);
  TimedScheduler* decorator = timed.get();
  sim::Engine engine(r.cfg.machine, r.cfg.engine, std::move(timed));
  // Job admission exactly as experiments::make_engine does it; the grids
  // attach no tracer or metrics registry.
  for (const auto& spec : r.workload.jobs) {
    sim::JobSpec scaled = spec;
    if (!scaled.infinite() && r.cfg.time_scale != 1.0) {
      scaled.work_us *= r.cfg.time_scale;
    }
    engine.add_job(scaled);
  }
  const auto t0 = Clock::now();
  (void)engine.run();
  out.run_ns = ns_between(t0, Clock::now());
  out.result = ex::collect_result(engine, r.workload, r.kind, r.cfg);
  // collect_result finds the ManagedScheduler by dynamic_cast, which the
  // decorator hides; read the election count from the inner scheduler.
  if (auto* managed = dynamic_cast<bbsched::core::ManagedScheduler*>(
          &decorator->inner())) {
    out.result.elections = managed->elections();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Bitwise result comparison and digest.

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

bool same_stats(const bbsched::stats::OnlineStats& a,
                const bbsched::stats::OnlineStats& b) {
  return a.count() == b.count() && same_bits(a.mean(), b.mean()) &&
         same_bits(a.sum(), b.sum()) && same_bits(a.variance(), b.variance()) &&
         same_bits(a.min(), b.min()) && same_bits(a.max(), b.max());
}

bool same_engine_stats(const sim::EngineStats& a, const sim::EngineStats& b) {
  return same_stats(a.bus_utilization, b.bus_utilization) &&
         same_stats(a.stretch, b.stretch) &&
         a.saturated_ticks == b.saturated_ticks &&
         a.total_ticks == b.total_ticks &&
         same_bits(a.total_granted_transactions, b.total_granted_transactions) &&
         a.batches == b.batches && a.batched_ticks == b.batched_ticks;
}

bool same_result(const ex::RunResult& a, const ex::RunResult& b) {
  return a.scheduler == b.scheduler && a.end_time_us == b.end_time_us &&
         same_bits(a.turnaround_us, b.turnaround_us) &&
         same_bits(a.measured_mean_turnaround_us,
                   b.measured_mean_turnaround_us) &&
         same_bits(a.machine_rate_tps, b.machine_rate_tps) &&
         same_bits(a.job_transactions, b.job_transactions) &&
         same_engine_stats(a.engine_stats, b.engine_stats) &&
         a.elections == b.elections && a.migrations == b.migrations;
}

/// FNV-1a over the bits of every measured field.
class Digest {
 public:
  void add(const void* p, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ bytes[i]) * 1099511628211ULL;
    }
  }
  template <class T>
  void add(const T& v) {
    add(&v, sizeof v);
  }
  void add(const std::vector<double>& v) {
    for (double x : v) add(x);
  }
  void add(const ex::RunResult& r) {
    add(r.end_time_us);
    add(r.turnaround_us);
    add(r.measured_mean_turnaround_us);
    add(r.machine_rate_tps);
    add(r.job_transactions);
    add(r.engine_stats.saturated_ticks);
    add(r.engine_stats.total_ticks);
    add(r.engine_stats.total_granted_transactions);
    add(r.elections);
    add(r.migrations);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// ---------------------------------------------------------------------------
// Grids.

ex::ExperimentConfig seeded_cfg(std::uint64_t seed) {
  ex::ExperimentConfig cfg;
  cfg.engine.seed = seed;
  return cfg;
}

/// One policy-vs-Linux sweep (one parallel_sweep_improvement call).
struct Cell {
  wl::Workload workload;
  SchedulerKind policy;
  ex::ExperimentConfig cfg;
  int seeds;
};

/// The cells fig2_sweep evaluates at default scale: 3 sets x 4 apps x
/// {Latest, Window}, 5 seeds each.
std::vector<Cell> fig2_sweep_cells(std::uint64_t seed) {
  const ex::ExperimentConfig cfg = seeded_cfg(seed);
  std::vector<Cell> cells;
  for (auto set : {ex::Fig2Set::kSaturated, ex::Fig2Set::kIdleBus,
                   ex::Fig2Set::kMixed}) {
    for (const char* name : {"Radiosity", "LU-CB", "SP", "CG"}) {
      const auto w = ex::make_fig2_workload(
          set, wl::paper_application(name), cfg.machine.bus);
      for (auto policy :
           {SchedulerKind::kLatestQuantum, SchedulerKind::kQuantaWindow}) {
        cells.push_back({w, policy, cfg, 5});
      }
    }
  }
  return cells;
}

/// The runs the sweep of `cells` performs, in its serial order.
std::vector<ex::RunRequest> cell_runs(const std::vector<Cell>& cells) {
  std::vector<ex::RunRequest> runs;
  for (const auto& c : cells) {
    for (int s = 0; s < c.seeds; ++s) {
      const auto run_cfg = ex::seed_shifted(c.cfg, s);
      runs.push_back({c.workload, SchedulerKind::kLinux, run_cfg});
      runs.push_back({c.workload, c.policy, run_cfg});
    }
  }
  return runs;
}

constexpr SchedulerKind kIdleKinds[] = {SchedulerKind::kLinux,
                                        SchedulerKind::kLatestQuantum,
                                        SchedulerKind::kQuantaWindow};

/// idle_bus: every paper app's Fig. 2B set x `seeds` x kIdleKinds.
std::vector<ex::RunRequest> idle_bus_grid(std::uint64_t seed, int seeds) {
  const ex::ExperimentConfig cfg = seeded_cfg(seed);
  std::vector<ex::RunRequest> grid;
  for (const auto& app : wl::paper_applications()) {
    const auto w = wl::fig2_idle_bus(app, cfg.machine.bus);
    for (int s = 0; s < seeds; ++s) {
      const auto run_cfg = ex::seed_shifted(cfg, s);
      for (auto kind : kIdleKinds) grid.push_back({w, kind, run_cfg});
    }
  }
  return grid;
}

/// One Window-vs-Linux sweep per app over the idle-bus sets.
std::vector<Cell> idle_bus_cells(std::uint64_t seed, int seeds) {
  const ex::ExperimentConfig cfg = seeded_cfg(seed);
  std::vector<Cell> cells;
  for (const auto& app : wl::paper_applications()) {
    cells.push_back({wl::fig2_idle_bus(app, cfg.machine.bus),
                     SchedulerKind::kQuantaWindow, cfg, seeds});
  }
  return cells;
}

/// Seeds per idle_bus pass (~0.46 s of host time per seed on a 4-core
/// 2020s x86 host).
constexpr int kIdleSeeds = 4;

// ---------------------------------------------------------------------------
// Layer measurements.

const char* short_name(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kLinux: return "linux";
    case SchedulerKind::kLatestQuantum: return "latest";
    case SchedulerKind::kQuantaWindow: return "window";
    default: return "other";
  }
}

/// Times BusModel::resolve on 4-CPU demand vectors drawn from the grid's
/// own workloads (every 4-thread combination at three progress points),
/// split by whether the saturation equation was active.
void add_bus_layers(const std::vector<ex::RunRequest>& grid, Result& res) {
  const auto& mcfg = grid.front().cfg.machine;
  const sim::BusModel bus(mcfg.bus);
  const auto ncpu = static_cast<std::size_t>(mcfg.num_cpus);
  struct Vec {
    std::vector<double> demand;
    std::vector<double> weight;
  };
  std::vector<Vec> by_class[2];  // [0] unsaturated, [1] saturated
  sim::BusWorkspace ws;
  std::set<std::string> seen;
  for (const auto& r : grid) {
    if (!seen.insert(r.workload.name).second) continue;
    std::vector<std::pair<const sim::JobSpec*, int>> threads;
    for (const auto& job : r.workload.jobs) {
      for (int t = 0; t < job.nthreads; ++t) threads.emplace_back(&job, t);
    }
    if (threads.size() < ncpu || threads.size() > 16) continue;
    for (double progress : {0.0, 1.0e5, 1.0e6}) {
      // Every ncpu-subset of the threads, via a bitmask walk.
      const std::size_t n = threads.size();
      for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        if (static_cast<std::size_t>(__builtin_popcount(mask)) != ncpu) {
          continue;
        }
        Vec v;
        for (std::size_t i = 0; i < n; ++i) {
          if ((mask & (1u << i)) == 0) continue;
          const auto& [spec, tidx] = threads[i];
          v.demand.push_back(spec->demand ? spec->demand->rate(tidx, progress)
                                          : 0.0);
          v.weight.push_back(spec->bus_priority);
        }
        const bool saturated = bus.resolve(v.demand, v.weight, ws).saturated;
        by_class[saturated ? 1 : 0].push_back(std::move(v));
      }
    }
  }
  const char* names[2] = {"sim.bus.resolve_ns.unsaturated",
                          "sim.bus.resolve_ns.saturated"};
  for (int c = 0; c < 2; ++c) {
    const auto& vecs = by_class[c];
    if (vecs.empty()) {
      res.fail(std::string("no demand vectors for ") + names[c]);
      continue;
    }
    std::vector<double> samples;
    double sink = 0.0;
    for (int rep = 0; rep < 7; ++rep) {
      std::uint64_t calls = 0;
      const auto t0 = Clock::now();
      while (seconds_since(t0) < 0.02) {
        for (const auto& v : vecs) {
          sink += bus.resolve(v.demand, v.weight, ws).stretch;
          ++calls;
        }
      }
      samples.push_back(static_cast<double>(ns_between(t0, Clock::now())) /
                        static_cast<double>(calls));
    }
    if (!(sink > 0.0)) res.fail("resolve returned no stretch");
    res.metrics[names[c]] = median(samples);
  }
}

/// Times one parallel_sweep_improvement call per cell on a 1-worker
/// executor, runs `grid` untraced (skipped when `grid_is_cells`: the sweeps
/// already ran exactly those runs) and decorated, and records every
/// simulator layer metric into `res`.
void add_sim_layers(const std::vector<ex::RunRequest>& grid,
                    const std::vector<Cell>& cells, bool grid_is_cells,
                    Result& res) {
  std::vector<double> sweep_ms;
  double sweep_total_s = 0.0;
  {
    ex::ParallelExecutor executor(1);
    for (const auto& c : cells) {
      const auto t0 = Clock::now();
      const auto stats = ex::parallel_sweep_improvement(
          c.workload, c.policy, SchedulerKind::kLinux, c.cfg, c.seeds,
          executor);
      const double s = seconds_since(t0);
      ++res.attempted;
      if (stats.n != c.seeds) res.fail("sweep returned too few samples");
      sweep_ms.push_back(s * 1e3);
      sweep_total_s += s;
    }
  }
  res.metrics["experiments.sweep_ms"] = median(sweep_ms);
  res.metrics["experiments.runs"] = static_cast<double>(grid.size());

  double untraced_s = sweep_total_s;
  if (!grid_is_cells) {
    const auto t0 = Clock::now();
    for (const auto& r : grid) (void)ex::run_workload(r.workload, r.kind, r.cfg);
    untraced_s = seconds_since(t0);
  }

  TickCounters linux_ticks, managed_ticks;
  std::uint64_t ticks = 0, batched = 0, saturated = 0;
  struct PerSched {
    std::int64_t ns = 0;
    std::uint64_t ticks = 0;
  };
  PerSched per[3];
  const auto t0 = Clock::now();
  for (const auto& r : grid) {
    const DecoratedRun d = run_decorated(r);
    ++res.attempted;
    if (!(d.result.measured_mean_turnaround_us > 0.0)) {
      res.fail("decorated run measured no turnaround");
    }
    TickCounters& acc =
        r.kind == SchedulerKind::kLinux ? linux_ticks : managed_ticks;
    acc.tick_calls += d.ticks.tick_calls;
    acc.tick_ns += d.ticks.tick_ns;
    acc.quiescent_calls += d.ticks.quiescent_calls;
    acc.quiescent_later += d.ticks.quiescent_later;
    const auto& es = d.result.engine_stats;
    ticks += es.total_ticks;
    batched += es.batched_ticks;
    saturated += es.saturated_ticks;
    for (int k = 0; k < 3; ++k) {
      if (r.kind == kIdleKinds[k]) {
        per[k].ns += d.run_ns;
        per[k].ticks += es.total_ticks;
      }
    }
  }
  const double traced_s = seconds_since(t0);

  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto put_ticks = [&](const std::string& prefix, const TickCounters& c) {
    res.metrics[prefix + ".tick_calls"] = static_cast<double>(c.tick_calls);
    res.metrics[prefix + ".tick_ns"] = ratio(static_cast<double>(c.tick_ns),
                                             static_cast<double>(c.tick_calls));
    res.metrics[prefix + ".quiescent_frac"] =
        ratio(static_cast<double>(c.quiescent_later),
              static_cast<double>(c.quiescent_calls));
  };
  put_ticks("linuxsched", linux_ticks);
  put_ticks("core.managed", managed_ticks);
  res.metrics["sim.engine.ticks"] = static_cast<double>(ticks);
  res.metrics["sim.engine.batched_frac"] =
      ratio(static_cast<double>(batched), static_cast<double>(ticks));
  res.metrics["sim.engine.saturated_frac"] =
      ratio(static_cast<double>(saturated), static_cast<double>(ticks));
  for (int k = 0; k < 3; ++k) {
    res.metrics[std::string("sim.engine.ns_per_tick.") +
                short_name(kIdleKinds[k])] =
        ratio(static_cast<double>(per[k].ns),
              static_cast<double>(per[k].ticks));
  }
  res.metrics["sim.bus.resolves"] = static_cast<double>(ticks - batched);
  res.metrics["obs.trace_overhead_pct"] =
      100.0 * (traced_s - untraced_s) / untraced_s;
  std::printf("sim grid: %zu runs, untraced %.3f s, traced %.3f s\n",
              grid.size(), untraced_s, traced_s);

  add_bus_layers(grid, res);
}

}  // namespace

Result run_idle_bus(const Options& opt) {
  Result res;
  if (opt.trace) {
    add_sim_layers(idle_bus_grid(opt.seed, kIdleSeeds),
                   idle_bus_cells(opt.seed, kIdleSeeds), false, res);
    decorator_selftest(res);
    return res;
  }

  // Set-up: build the grid, construct (without running) every engine it
  // needs — job admission and scheduler construction — and warm up on the
  // grid's first simulation so caches and lazy state are filled before
  // timing. Repeated; the median is reported.
  std::vector<double> setup_s;
  std::vector<ex::RunRequest> grid;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    grid = idle_bus_grid(opt.seed, kIdleSeeds);
    for (const auto& r : grid) (void)ex::make_engine(r.workload, r.kind, r.cfg);
    (void)ex::run_workload(grid.front().workload, grid.front().kind,
                           grid.front().cfg);
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> wall_s;
  std::string first_digest;
  const auto run_start = Clock::now();
  while (wall_s.empty() || seconds_since(run_start) < opt.seconds) {
    Digest digest;
    const auto t0 = Clock::now();
    for (const auto& r : grid) {
      const auto result = ex::run_workload(r.workload, r.kind, r.cfg);
      ++res.attempted;
      if (!(result.measured_mean_turnaround_us > 0.0) ||
          result.end_time_us <= 0) {
        res.fail("idle_bus run finished without a measured turnaround");
      }
      digest.add(result);
    }
    wall_s.push_back(seconds_since(t0));
    // Every pass replays the same inputs, so it must reproduce pass one
    // bit for bit; pass one must match the golden digest when one exists.
    const std::string hex = digest.hex();
    if (first_digest.empty()) {
      first_digest = hex;
      std::printf("idle_bus digest seed=%llu %s\n",
                  static_cast<unsigned long long>(opt.seed), hex.c_str());
      if (!opt.expect_digest.empty() && hex != opt.expect_digest) {
        res.fail("idle_bus digest " + hex + " != golden " + opt.expect_digest);
      }
    } else if (hex != first_digest) {
      res.fail("idle_bus pass is not deterministic");
    }
  }
  res.metrics["wall_s"] = median(wall_s);
  res.metrics["setup_s"] = median(setup_s);
  res.metrics["peak_rss_mb"] = peak_rss_mb();
  std::printf("idle_bus: %zu passes of %zu runs\n", wall_s.size(), grid.size());
  return res;
}

Result run_eval_layers(const Options& opt) {
  Result res;
  const auto cells = fig2_sweep_cells(opt.seed);
  add_sim_layers(cell_runs(cells), cells, true, res);
  decorator_selftest(res);
  return res;
}

void add_sim_probe_layers(const Options& opt, Result& res) {
  add_sim_layers(idle_bus_grid(opt.seed, 1), idle_bus_cells(opt.seed, 1),
                 false, res);
}

void decorator_selftest(Result& res) {
  const ex::ExperimentConfig cfg = seeded_cfg(42);
  const auto& app = wl::paper_application("SP");
  for (const auto& w : {wl::fig2_saturated(app, cfg.machine.bus),
                        wl::fig2_idle_bus(app, cfg.machine.bus)}) {
    for (auto kind : {SchedulerKind::kLinux, SchedulerKind::kLatestQuantum}) {
      const ex::RunRequest r{w, kind, cfg};
      const auto plain = ex::run_workload(r.workload, r.kind, r.cfg);
      const auto decorated = run_decorated(r);
      ++res.attempted;
      if (!same_result(plain, decorated.result)) {
        res.fail("decorated run differs from run_workload: " + w.name +
                 " under " + ex::to_string(kind));
      }
    }
  }
}

}  // namespace perfbench
