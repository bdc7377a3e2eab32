// Performance-monitoring-counter abstraction.
//
// The paper's policies need exactly one reading: cumulative bus transactions
// per application thread, polled at sampling points (twice per quantum).
// On the paper's hardware this came from the Xeon's performance counters via
// Pettersson's perfctr driver. Here the same interface is served by:
//   * SimCounterSource      — reads the simulator's modelled counters,
//   * SoftwareCounterRegistry (software_counters.h) — instrumented native
//     kernels account their own memory traffic.
#pragma once

#include <cstdint>

#include "sim/machine.h"

namespace bbsched::perfctr {

/// Read-only view of cumulative bus transactions attributed to a thread.
class CounterSource {
 public:
  virtual ~CounterSource() = default;

  /// Cumulative bus transactions issued by thread `handle` since creation.
  /// Monotonically non-decreasing.
  [[nodiscard]] virtual double read_transactions(int handle) const = 0;
};

/// Counter source backed by the simulator: handle = global thread id.
class SimCounterSource final : public CounterSource {
 public:
  explicit SimCounterSource(const sim::Machine& machine)
      : machine_(&machine) {}

  [[nodiscard]] double read_transactions(int handle) const override {
    return machine_->thread(handle).bus_transactions;
  }

 private:
  const sim::Machine* machine_;
};

}  // namespace bbsched::perfctr
