// The structured event tracer: a preallocated ring of TraceEvent.
//
// Zero overhead when disabled: every instrumentation point checks
// `enabled()` (one branch on a bool) before even assembling the payload,
// and a disabled tracer records nothing. Enabled, recording is two stores
// into preallocated storage — the engine's allocation-free tick path stays
// allocation-free with tracing on (tests/test_perf_smoke.cc gates it, and
// micro_benchmarks' BM_EngineRunUntil times both modes).
//
// The tracer is single-writer: in the simulator everything runs on one
// thread; in the native runtime only the manager thread records (and
// export must happen after ManagerServer::stop()).
#pragma once

#include <cstdint>

#include "obs/events.h"
#include "obs/ring_buffer.h"

namespace bbsched::obs {

struct TracerConfig {
  bool enabled = false;
  /// Ring capacity in events (64 bytes each) when enabled; a disabled
  /// tracer holds one slot. The default, 8 MiB, holds every event of a
  /// --fast fig-2 run (~40k ticks) with ample headroom.
  std::size_t capacity = std::size_t{1} << 17;
};

class Tracer {
 public:
  Tracer() : Tracer(TracerConfig{}) {}
  explicit Tracer(const TracerConfig& cfg)
      : enabled_(cfg.enabled), ring_(cfg.enabled ? cfg.capacity : 1) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // Typed recorders (no-ops when disabled).
  void quantum_start(std::uint64_t t, const QuantumStartPayload& p) {
    if (enabled_) ring_.push(TraceEvent::make_quantum_start(t, p));
  }
  void election_decision(std::uint64_t t, const ElectionDecisionPayload& p) {
    if (enabled_) ring_.push(TraceEvent::make_election(t, p));
  }
  void bus_resolution(std::uint64_t t, const BusResolutionPayload& p) {
    if (enabled_) ring_.push(TraceEvent::make_bus(t, p));
  }
  void job_state_change(std::uint64_t t, const JobStateChangePayload& p) {
    if (enabled_) ring_.push(TraceEvent::make_job_state(t, p));
  }
  void counter_sample(std::uint64_t t, const CounterSamplePayload& p) {
    if (enabled_) ring_.push(TraceEvent::make_sample(t, p));
  }
  void fault(std::uint64_t t, const FaultPayload& p) {
    if (enabled_) ring_.push(TraceEvent::make_fault(t, p));
  }
  void degradation_change(std::uint64_t t, const DegradationPayload& p) {
    if (enabled_) ring_.push(TraceEvent::make_degradation(t, p));
  }
  void recovery(std::uint64_t t, const RecoveryPayload& p) {
    if (enabled_) ring_.push(TraceEvent::make_recovery(t, p));
  }
  void reattach(std::uint64_t t, const ReattachPayload& p) {
    if (enabled_) ring_.push(TraceEvent::make_reattach(t, p));
  }
  void supervisor_restart(std::uint64_t t, const SupervisorRestartPayload& p) {
    if (enabled_) ring_.push(TraceEvent::make_supervisor_restart(t, p));
  }
  void credit_replenish(std::uint64_t t, const CreditReplenishPayload& p) {
    if (enabled_) ring_.push(TraceEvent::make_credit_replenish(t, p));
  }
  void reservation_violation(std::uint64_t t,
                             const ReservationViolationPayload& p) {
    if (enabled_) ring_.push(TraceEvent::make_reservation_violation(t, p));
  }

  [[nodiscard]] const RingBuffer<TraceEvent>& events() const noexcept {
    return ring_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return ring_.dropped();
  }
  void clear() noexcept { ring_.clear(); }

 private:
  bool enabled_;
  RingBuffer<TraceEvent> ring_;
};

}  // namespace bbsched::obs
