// The simulated SMP: processors, admitted jobs, their threads, and the
// placement state that schedulers mutate.
#pragma once

#include <cassert>
#include <vector>

#include "sim/config.h"
#include "sim/job.h"
#include "sim/soa_store.h"

namespace bbsched::sim {

/// One processor. `thread` is the id of the thread currently placed on it,
/// or kIdle. Placement is exclusive: the engine asserts that no thread is
/// placed on two CPUs.
struct Cpu {
  static constexpr int kIdle = -1;
  int thread = kIdle;
};

/// Container for jobs, threads and processors. Schedulers interact with the
/// machine through place()/vacate() so placement bookkeeping (migration
/// counting, exclusivity) lives in one spot.
class Machine {
 public:
  explicit Machine(const MachineConfig& cfg)
      : cfg_(cfg), cpus_(static_cast<std::size_t>(cfg.num_cpus)) {
    assert(cfg.num_cpus > 0);
  }

  /// Admits a job; creates its threads in kReady state. Returns the job id.
  int add_job(const JobSpec& spec, SimTime now = 0);

  [[nodiscard]] const MachineConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] int num_cpus() const noexcept { return cfg_.num_cpus; }

  [[nodiscard]] std::vector<Job>& jobs() noexcept { return jobs_; }
  [[nodiscard]] const std::vector<Job>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] Job& job(int id) { return jobs_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] const Job& job(int id) const {
    return jobs_.at(static_cast<std::size_t>(id));
  }

  /// Per-thread state as parallel arrays indexed by thread id (see
  /// soa_store.h).
  [[nodiscard]] SoAStore& store() noexcept { return store_; }
  [[nodiscard]] const SoAStore& store() const noexcept { return store_; }

  [[nodiscard]] std::vector<Cpu>& cpus() noexcept { return cpus_; }
  [[nodiscard]] const std::vector<Cpu>& cpus() const noexcept { return cpus_; }

  /// CPU a thread currently occupies, or -1.
  [[nodiscard]] int cpu_of(int thread_id) const {
    for (std::size_t c = 0; c < cpus_.size(); ++c) {
      if (cpus_[c].thread == thread_id) return static_cast<int>(c);
    }
    return -1;
  }

  /// Places thread `tid` on `cpu`, vacating whatever ran there. Counts a
  /// migration when the thread last ran elsewhere and resets its warmth
  /// (its cache state lives on the old CPU).
  void place(int cpu, int tid);

  /// Makes `cpu` idle.
  void vacate(int cpu) {
    cpus_.at(static_cast<std::size_t>(cpu)).thread = Cpu::kIdle;
  }

  /// Vacates every CPU (used at gang-quantum boundaries).
  void vacate_all() {
    for (auto& c : cpus_) c.thread = Cpu::kIdle;
  }

  /// True when every thread of every finite job has completed.
  [[nodiscard]] bool all_finite_jobs_done() const;

  /// True when at least one admitted job has finite work.
  [[nodiscard]] bool has_finite_jobs() const;

  /// Sum of granted bus transactions over a job's threads.
  [[nodiscard]] double job_bus_transactions(const Job& j) const;

  /// Sum of attempted bus transactions (demand side, what the performance
  /// counters report) over a job's threads.
  [[nodiscard]] double job_bus_attempts(const Job& j) const;

 private:
  MachineConfig cfg_;
  std::vector<Cpu> cpus_;
  std::vector<Job> jobs_;
  SoAStore store_;
};

}  // namespace bbsched::sim
