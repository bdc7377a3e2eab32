#include "spacesched/equipartition.h"

#include <algorithm>
#include <cassert>

namespace bbsched::spacesched {

using sim::Cpu;
using sim::Machine;
using sim::SimTime;
using sim::ThreadState;

namespace {

bool job_active(const sim::Job& j) { return !j.completed; }

std::size_t count_active(const Machine& m) {
  std::size_t n = 0;
  for (const auto& j : m.jobs()) {
    if (job_active(j)) ++n;
  }
  return n;
}

}  // namespace

void EquipartitionScheduler::start(Machine& m, trace::ScheduleTrace&) {
  order_.clear();
  for (const auto& j : m.jobs()) order_.push_back(j.id);
  reallocate(m, 0);
}

void EquipartitionScheduler::reallocate(Machine& m, SimTime now) {
  ++reallocations_;
  quantum_start_ = now;
  known_jobs_ = m.jobs().size();
  active_jobs_at_alloc_ = count_active(m);

  // Clearing in place keeps each job's CPU list capacity, so reallocating
  // every quantum stays allocation-free.
  partitions_.resize(m.jobs().size());
  for (auto& cpus : partitions_) cpus.clear();
  allocation_.assign(m.jobs().size(), 0);
  fold_cursor_.resize(m.jobs().size(), 0);

  // Round-based equipartition over the rotation order: one processor per
  // active job, then +1 rounds capped by thread counts.
  int procs_left = m.num_cpus();
  bool progress = true;
  while (procs_left > 0 && progress) {
    progress = false;
    for (int id : order_) {
      if (procs_left == 0) break;
      const auto idx = static_cast<std::size_t>(id);
      if (idx >= m.jobs().size()) continue;
      const auto& job = m.job(id);
      if (!job_active(job)) continue;
      if (allocation_[idx] >= job.spec.nthreads) continue;
      ++allocation_[idx];
      --procs_left;
      progress = true;
    }
  }

  // Assign concrete CPUs in index order (stable enough for affinity to
  // matter across quanta with a stable job set).
  int next_cpu = 0;
  for (int id : order_) {
    const auto idx = static_cast<std::size_t>(id);
    if (idx >= allocation_.size()) continue;
    for (int k = 0; k < allocation_[idx]; ++k) {
      partitions_[idx].push_back(next_cpu++);
    }
  }

  // Allocated jobs rotate to the tail so that over-subscribed systems give
  // every job its turn at a partition. The rotated order is built in the
  // reused rotation_ buffer and swapped in.
  const auto favoured = [this](int id) {
    const auto idx = static_cast<std::size_t>(id);
    return idx < allocation_.size() && allocation_[idx] > 0;
  };
  rotation_.clear();
  for (int id : order_) {
    if (!favoured(id)) rotation_.push_back(id);
  }
  for (int id : order_) {
    if (favoured(id)) rotation_.push_back(id);
  }
  order_.swap(rotation_);

  m.vacate_all();
  last_fold_advance_ = now;
}

void EquipartitionScheduler::place_partitions(Machine& m, SimTime now) {
  // Advance fold cursors at the fold slice.
  const bool advance =
      now - last_fold_advance_ >= cfg_.fold_slice_us && cfg_.fold_slice_us > 0;
  if (advance) last_fold_advance_ = now;

  const sim::SoAStore& s = m.store();
  for (const auto& job : m.jobs()) {
    const auto idx = static_cast<std::size_t>(job.id);
    if (idx >= partitions_.size() || partitions_[idx].empty()) continue;
    const auto& cpus = partitions_[idx];
    const auto nthreads = job.thread_ids.size();

    if (advance && nthreads > cpus.size()) {
      fold_cursor_[idx] = (fold_cursor_[idx] + cpus.size()) % nthreads;
    }

    // Active window: cpus.size() threads starting at the fold cursor.
    for (std::size_t k = 0; k < cpus.size(); ++k) {
      const int cpu = cpus[k];
      const int want =
          job.thread_ids[(fold_cursor_[idx] + k) % nthreads];
      const int cur = m.cpus()[static_cast<std::size_t>(cpu)].thread;
      if (cur == want) continue;
      if (cur != Cpu::kIdle) m.vacate(cpu);
      if (s.state[static_cast<std::size_t>(want)] == ThreadState::kReady &&
          m.cpu_of(want) == -1) {
        m.place(cpu, want);
      }
    }
  }
}

SimTime EquipartitionScheduler::quiescent_until(const Machine& m,
                                                SimTime now) const {
  if (order_.size() != m.jobs().size() || m.jobs().size() != known_jobs_ ||
      count_active(m) != active_jobs_at_alloc_) {
    return now;  // tick() would join a job or reallocate
  }
  const sim::SoAStore& s = m.store();
  for (const auto& job : m.jobs()) {
    const auto idx = static_cast<std::size_t>(job.id);
    if (idx >= partitions_.size() || partitions_[idx].empty()) continue;
    const auto& cpus = partitions_[idx];
    const auto nthreads = job.thread_ids.size();
    for (std::size_t k = 0; k < cpus.size(); ++k) {
      const int cpu = cpus[k];
      const int want = job.thread_ids[(fold_cursor_[idx] + k) % nthreads];
      const int cur = m.cpus()[static_cast<std::size_t>(cpu)].thread;
      if (cur == want) continue;
      if (cur != Cpu::kIdle) return now;  // tick() would vacate it
      if (s.state[static_cast<std::size_t>(want)] == ThreadState::kReady &&
          m.cpu_of(want) == -1) {
        return now;  // tick() would place the wanted thread
      }
    }
  }
  SimTime until = quantum_start_ + cfg_.quantum_us;
  if (cfg_.fold_slice_us > 0) {
    until = std::min(until, last_fold_advance_ + cfg_.fold_slice_us);
  }
  return std::max(now, until);
}

void EquipartitionScheduler::tick(Machine& m, SimTime now,
                                  trace::ScheduleTrace&) {
  // Late arrivals join the rotation.
  for (const auto& j : m.jobs()) {
    if (std::find(order_.begin(), order_.end(), j.id) == order_.end()) {
      order_.push_back(j.id);
    }
  }

  const bool membership_changed =
      m.jobs().size() != known_jobs_ || count_active(m) != active_jobs_at_alloc_;
  if (membership_changed || now >= quantum_start_ + cfg_.quantum_us) {
    reallocate(m, now);
  }
  place_partitions(m, now);
}

}  // namespace bbsched::spacesched
