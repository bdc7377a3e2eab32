// Model-driven scheduling — the paper's §6 future work, implemented:
//
//   "First, we will derive analytic or empirical models of the effect of
//    sharing resources such as the bus ... Using these models, we can
//    re-formulate the multiprocessor scheduling problem as a
//    multi-parametric optimization problem and derive practical
//    model-driven scheduling algorithms."
//
// ContentionPredictor is such an empirical model: it is parameterised by
// three quantities the manager can measure offline on any machine (the
// STREAM-sustained capacity, the single-thread streaming peak, and a
// memory-boundedness exponent) and predicts per-thread slowdowns for any
// candidate gang from the same BBW/thread statistics Eq. 1 consumes.
//
// elect_predictive() then optimizes over gangs greedily: the head of the
// applications list keeps its starvation-freedom guarantee, and remaining
// processors are filled only while the chosen objective improves —
//
//   kMaxThroughput: maximize predicted aggregate progress rate
//                   (machine-wide efficiency; may sacrifice one job),
//   kMinSlowdown:   maximize the worst per-thread speed
//                   (fairness; may deliberately leave processors idle
//                   rather than saturate the bus — something Eq. 1 never
//                   does).
//
// bench/ext_predictive compares both objectives against Eq. 1 and Linux.
#pragma once

#include <span>
#include <vector>

#include "core/election.h"

namespace bbsched::core {

struct PredictorConfig {
  /// Sustained bus capacity (transactions/µs), measured offline via STREAM.
  double capacity_tps = 29.5;
  /// Single-thread streaming peak (transactions/µs), measured via BBMA.
  double per_thread_peak_tps = 23.6;
  /// Memory-boundedness exponent (empirical fit).
  double alpha_exponent = 0.72;
};

/// Analytic contention model over per-thread demand rates.
class ContentionPredictor {
 public:
  explicit ContentionPredictor(const PredictorConfig& cfg) : cfg_(cfg) {}

  /// Memory-boundedness of a thread with demand `d` (trans/µs).
  [[nodiscard]] double alpha(double demand_tps) const;

  struct Prediction {
    /// Per-thread execution-time multipliers (>= 1).
    std::vector<double> slowdown;
    /// Sum over threads of 1/slowdown (aggregate progress rate).
    double aggregate_speed = 0.0;
    /// Speed of the slowest thread (min of 1/slowdown); 1 when empty.
    double worst_speed = 1.0;
    /// Predicted total granted transaction rate.
    double total_rate = 0.0;
  };

  /// Predicts contention for the given per-thread demands into `out`,
  /// reusing its slowdown buffer: elections score candidate gangs with a
  /// caller-owned Prediction, so steady-state quanta stay allocation-free.
  void predict_into(std::span<const double> per_thread_demands,
                    Prediction& out) const;

  /// By-value convenience wrapper (tests, offline tools).
  [[nodiscard]] Prediction predict(
      std::span<const double> per_thread_demands) const;

  [[nodiscard]] const PredictorConfig& config() const noexcept { return cfg_; }

 private:
  PredictorConfig cfg_;
};

enum class PredictiveObjective {
  kMaxThroughput,
  kMinSlowdown,
};

[[nodiscard]] const char* to_string(PredictiveObjective objective);

/// Model-driven gang election: head-of-list default, then greedy additions
/// while the objective improves. Writes into `out` (cleared first), which
/// the caller reuses across quanta so steady-state elections are
/// allocation-free — the same contract as elect_into().
void elect_predictive_into(
    const std::vector<Candidate>& candidates, int nprocs,
    const PredictorConfig& cfg, PredictiveObjective objective,
    ElectionResult& out);

/// By-value convenience wrapper (tests, offline tools): allocates a fresh
/// result per call, so keep it off hot paths.
[[nodiscard]] ElectionResult elect_predictive(
    const std::vector<Candidate>& candidates, int nprocs,
    const PredictorConfig& cfg,
    PredictiveObjective objective = PredictiveObjective::kMaxThroughput);

}  // namespace bbsched::core
