// Software bus-transaction accounting for the native runtime.
//
// Instrumented kernels (runtime/microbench.h) know exactly how many cache
// lines they pull from memory and credit them here; the manager polls the
// registry the way it would poll hardware counters. Thread registration and
// reads are lock-free after setup (a fixed-capacity slot table), because
// reads happen on the manager's sampling path.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

namespace bbsched::perfctr {

class SoftwareCounterRegistry {
 public:
  static constexpr int kMaxThreads = 256;

  /// Claims a counter slot. Thread-safe; aborts if the table is full.
  int register_thread() {
    const int slot = next_.fetch_add(1, std::memory_order_relaxed);
    assert(slot < kMaxThreads && "software counter table exhausted");
    counters_[slot].store(0, std::memory_order_relaxed);
    return slot;
  }

  /// Credits `n` bus transactions to `slot` (called from worker threads).
  void add(int slot, std::uint64_t n) noexcept {
    counters_[slot].fetch_add(n, std::memory_order_relaxed);
  }

  /// Cumulative transactions for `slot` (called from the manager).
  [[nodiscard]] std::uint64_t read(int slot) const noexcept {
    return counters_[slot].load(std::memory_order_relaxed);
  }

  [[nodiscard]] int registered() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> next_{0};
  std::atomic<std::uint64_t> counters_[kMaxThreads] = {};
};

/// Process-wide registry used by the native runtime library.
inline SoftwareCounterRegistry& global_counters() {
  static SoftwareCounterRegistry registry;
  return registry;
}

}  // namespace bbsched::perfctr
