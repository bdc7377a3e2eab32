#include "experiments/runner.h"

#include <cassert>

namespace bbsched::experiments {

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kPinned: return "pinned";
    case SchedulerKind::kLinux: return "linux-2.4";
    case SchedulerKind::kLatestQuantum: return "latest-quantum";
    case SchedulerKind::kQuantaWindow: return "quanta-window";
    case SchedulerKind::kPredictiveThroughput: return "predictive-throughput";
    case SchedulerKind::kPredictiveFair: return "predictive-fair";
    case SchedulerKind::kEquipartition: return "equipartition";
    case SchedulerKind::kCreditReservation: return "credit-reservation";
    case SchedulerKind::kManagedCustom: return "managed-custom";
  }
  return "unknown";
}

std::unique_ptr<sim::Scheduler> make_scheduler(SchedulerKind kind,
                                               const ExperimentConfig& cfg) {
  switch (kind) {
    case SchedulerKind::kPinned:
      return std::make_unique<sim::PinnedScheduler>();
    case SchedulerKind::kLinux:
      return std::make_unique<linuxsched::LinuxScheduler>(cfg.linux_sched);
    case SchedulerKind::kLatestQuantum: {
      core::ManagedSchedulerConfig mcfg = cfg.managed;
      mcfg.manager.policy = core::PolicyKind::kLatestQuantum;
      return std::make_unique<core::ManagedScheduler>(mcfg);
    }
    case SchedulerKind::kQuantaWindow: {
      core::ManagedSchedulerConfig mcfg = cfg.managed;
      mcfg.manager.policy = core::PolicyKind::kQuantaWindow;
      return std::make_unique<core::ManagedScheduler>(mcfg);
    }
    case SchedulerKind::kPredictiveThroughput:
    case SchedulerKind::kPredictiveFair: {
      core::ManagedSchedulerConfig mcfg = cfg.managed;
      mcfg.manager.policy = core::PolicyKind::kQuantaWindow;  // smoothed input
      mcfg.manager.use_predictive = true;
      mcfg.manager.predictive_objective =
          kind == SchedulerKind::kPredictiveThroughput
              ? core::PredictiveObjective::kMaxThroughput
              : core::PredictiveObjective::kMinSlowdown;
      return std::make_unique<core::ManagedScheduler>(mcfg);
    }
    case SchedulerKind::kEquipartition:
      return std::make_unique<spacesched::EquipartitionScheduler>(
          spacesched::EquipartitionConfig{});
    case SchedulerKind::kCreditReservation: {
      // The credit tier on top of the paper's smoothed estimate: jobs'
      // JobSpec::bw_reservation fields reach the ledger via the managed
      // scheduler's connect path.
      core::ManagedSchedulerConfig mcfg = cfg.managed;
      mcfg.manager.policy = core::PolicyKind::kQuantaWindow;
      mcfg.manager.qos.enabled = true;
      return std::make_unique<core::ManagedScheduler>(mcfg);
    }
    case SchedulerKind::kManagedCustom:
      return std::make_unique<core::ManagedScheduler>(cfg.managed);
  }
  return nullptr;
}

std::unique_ptr<sim::Engine> make_engine(const workload::Workload& workload,
                                         SchedulerKind kind,
                                         const ExperimentConfig& cfg) {
  auto engine = std::make_unique<sim::Engine>(cfg.machine, cfg.engine,
                                              make_scheduler(kind, cfg));
  engine->set_tracer(cfg.tracer);
  engine->set_metrics(cfg.metrics);
  if (auto* managed =
          dynamic_cast<core::ManagedScheduler*>(&engine->scheduler())) {
    managed->set_tracer(cfg.tracer);
    managed->set_metrics(cfg.metrics);
  }

  for (const auto& spec : workload.jobs) {
    sim::JobSpec scaled = spec;
    if (!scaled.infinite() && cfg.time_scale != 1.0) {
      scaled.work_us *= cfg.time_scale;
    }
    engine->add_job(scaled);
  }
  return engine;
}

RunResult collect_result(sim::Engine& engine,
                         const workload::Workload& workload,
                         SchedulerKind kind, const ExperimentConfig& cfg) {
  RunResult out;
  out.scheduler = to_string(kind);
  out.end_time_us = engine.now();

  const auto& machine = engine.machine();
  out.turnaround_us.reserve(machine.jobs().size());
  for (const auto& job : machine.jobs()) {
    out.turnaround_us.push_back(
        job.completed ? static_cast<double>(job.turnaround_us()) : 0.0);
    out.job_transactions.push_back(machine.job_bus_transactions(job));
  }

  double sum = 0.0;
  for (std::size_t idx : workload.measured) {
    assert(machine.jobs()[idx].completed &&
           "measured job did not finish; raise engine.max_time_us");
    sum += out.turnaround_us[idx];
  }
  out.measured_mean_turnaround_us =
      workload.measured.empty()
          ? 0.0
          : sum / static_cast<double>(workload.measured.size());

  out.machine_rate_tps =
      out.end_time_us > 0
          ? engine.stats().total_granted_transactions /
                static_cast<double>(out.end_time_us)
          : 0.0;
  out.engine_stats = engine.stats();

  for (const std::uint64_t n : machine.store().migrations) out.migrations += n;

  if (auto* managed = dynamic_cast<core::ManagedScheduler*>(
          &engine.scheduler())) {
    out.elections = managed->elections();
  }

  if (cfg.metrics != nullptr) {
    cfg.metrics->counter("run.elections")
        .inc(static_cast<double>(out.elections));
    cfg.metrics->counter("run.migrations")
        .inc(static_cast<double>(out.migrations));
    cfg.metrics->gauge("run.end_time_ms")
        .set(static_cast<double>(out.end_time_us) / 1000.0);
    cfg.metrics->gauge("run.machine_rate_tps").set(out.machine_rate_tps);
    cfg.metrics->gauge("run.mean_turnaround_ms")
        .set(out.measured_mean_turnaround_us / 1000.0);
  }
  return out;
}

RunResult run_workload(const workload::Workload& workload, SchedulerKind kind,
                       const ExperimentConfig& cfg) {
  auto engine = make_engine(workload, kind, cfg);
  (void)engine->run();
  return collect_result(*engine, workload, kind, cfg);
}

}  // namespace bbsched::experiments
