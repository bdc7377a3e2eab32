#include "sim/machine.h"

#include <utility>

namespace bbsched::sim {

int Machine::add_job(const JobSpec& spec, SimTime now) {
  assert(spec.nthreads >= 1);
  assert(spec.demand != nullptr && "job needs a demand model");
  assert(spec.work_us > 0.0);

  Job j;
  j.id = static_cast<int>(jobs_.size());
  j.spec = spec;
  j.release_us = now;
  jobs_.push_back(std::move(j));
  Job& stored = jobs_.back();
  for (int t = 0; t < spec.nthreads; ++t) {
    // Flatten the stored spec (its DemandModel pointer must outlive the
    // threads, which the Job's shared_ptr guarantees).
    const int tid = store_.push_back(stored.spec, stored.id, t, cfg_.cache.l2_kb);
    stored.thread_ids.push_back(tid);
  }
  return stored.id;
}

void Machine::place(int cpu, int tid) {
  auto& slot = cpus_.at(static_cast<std::size_t>(cpu));
  if (slot.thread == tid) return;
  // A thread must never occupy two CPUs.
  assert(cpu_of(tid) == -1 && "thread already placed on another CPU");
  slot.thread = tid;
  const auto i = static_cast<std::size_t>(tid);
  if (store_.last_cpu[i] != cpu) {
    if (store_.last_cpu[i] != -1) {
      ++store_.migrations[i];
    }
    // Cache state was built on the previous CPU; start cold here.
    store_.warmth[i] = 0.0;
    store_.last_cpu[i] = cpu;
  }
}

bool Machine::has_finite_jobs() const {
  for (const auto& j : jobs_) {
    if (!j.spec.infinite()) return true;
  }
  return false;
}

bool Machine::all_finite_jobs_done() const {
  for (const auto& j : jobs_) {
    if (!j.spec.infinite() && !j.completed) return false;
  }
  return true;
}

double Machine::job_bus_transactions(const Job& j) const {
  double sum = 0.0;
  for (int tid : j.thread_ids) {
    sum += store_.bus_transactions[static_cast<std::size_t>(tid)];
  }
  return sum;
}

double Machine::job_bus_attempts(const Job& j) const {
  double sum = 0.0;
  for (int tid : j.thread_ids) {
    sum += store_.bus_attempts[static_cast<std::size_t>(tid)];
  }
  return sum;
}

}  // namespace bbsched::sim
