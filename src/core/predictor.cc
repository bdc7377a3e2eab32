#include "core/predictor.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bbsched::core {

const char* to_string(PredictiveObjective objective) {
  switch (objective) {
    case PredictiveObjective::kMaxThroughput: return "max-throughput";
    case PredictiveObjective::kMinSlowdown: return "min-slowdown";
  }
  return "unknown";
}

double ContentionPredictor::alpha(double demand_tps) const {
  if (demand_tps <= 0.0) return 0.0;
  const double ratio = std::min(1.0, demand_tps / cfg_.per_thread_peak_tps);
  return std::pow(ratio, cfg_.alpha_exponent);
}

ContentionPredictor::Prediction ContentionPredictor::predict(
    std::span<const double> demands) const {
  Prediction out;
  predict_into(demands, out);
  return out;
}

void ContentionPredictor::predict_into(std::span<const double> demands,
                                       Prediction& out) const {
  const std::size_t n = demands.size();
  out.slowdown.assign(n, 1.0);
  out.aggregate_speed = 0.0;
  out.worst_speed = 1.0;
  out.total_rate = 0.0;
  if (n == 0) return;

  double total_demand = 0.0;
  // Reused scratch: predictions run inside the election inner loop, which
  // must not touch the heap once capacities stabilize (election.cc idiom).
  static thread_local std::vector<double> alphas;
  alphas.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    total_demand += demands[i];
    alphas[i] = alpha(demands[i]);
  }

  // Same fixed point as the calibrated substrate model, but parameterised
  // only by offline-measurable constants: solve X so granted load fits C.
  auto granted_sum = [&](double x) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += demands[i] / (1.0 + alphas[i] * (x - 1.0));
    }
    return sum;
  };

  double x = 1.0;
  if (total_demand > cfg_.capacity_tps) {
    double lo = 1.0;
    double hi = 64.0;
    if (granted_sum(hi) <= cfg_.capacity_tps) {
      for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (granted_sum(mid) > cfg_.capacity_tps) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      x = 0.5 * (lo + hi);
    } else {
      x = hi;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    out.slowdown[i] = 1.0 + alphas[i] * (x - 1.0);
    const double speed = 1.0 / out.slowdown[i];
    out.aggregate_speed += speed;
    out.worst_speed = std::min(out.worst_speed, speed);
    out.total_rate += demands[i] / out.slowdown[i];
  }
}

namespace {

/// Objective value of a gang given its per-thread demand vector.
double score(const ContentionPredictor& predictor,
             const std::vector<double>& demands,
             PredictiveObjective objective) {
  if (demands.empty()) return 0.0;
  // Reused scratch, like the buffers in elect_predictive_into.
  static thread_local ContentionPredictor::Prediction p;
  predictor.predict_into(demands, p);
  switch (objective) {
    case PredictiveObjective::kMaxThroughput:
      return p.aggregate_speed;
    case PredictiveObjective::kMinSlowdown:
      // Lexicographic-ish: strongly prefer a better worst case, break ties
      // toward more aggregate progress.
      return p.worst_speed * 1000.0 + p.aggregate_speed;
  }
  return 0.0;
}

}  // namespace

void elect_predictive_into(const std::vector<Candidate>& candidates,
                           int nprocs, const PredictorConfig& cfg,
                           PredictiveObjective objective,
                           ElectionResult& out) {
  assert(nprocs >= 0);
  const ContentionPredictor predictor(cfg);

  out.elected.clear();
  out.idle_procs = nprocs;
  out.allocated_bw = 0.0;

  // Reused scratch: per-quantum elections must not touch the heap once
  // the buffers reached the candidate-list length (election.cc idiom).
  static thread_local std::vector<char> taken;
  static thread_local std::vector<double> demands;
  static thread_local std::vector<double> trial;
  taken.assign(candidates.size(), 0);
  demands.clear();

  auto allocate = [&](std::size_t idx) {
    const Candidate& c = candidates[idx];
    taken[idx] = 1;
    // out.elected is the caller's reused result buffer; its capacity
    // stabilizes after the first quantum.
    out.elected.push_back(c.app_id);
    out.idle_procs -= c.nthreads;
    out.allocated_bw += c.bbw_per_thread * static_cast<double>(c.nthreads);
    for (int t = 0; t < c.nthreads; ++t) {
      demands.push_back(c.bbw_per_thread);
    }
  };

  // Head-of-list default allocation (starvation freedom, as in Eq. 1).
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].nthreads <= out.idle_procs) {
      allocate(i);
      break;
    }
  }

  // Greedy fill: add the candidate that best improves the objective; stop
  // when no addition improves it (idle processors are a legitimate choice).
  while (out.idle_procs > 0) {
    const double current = score(predictor, demands, objective);
    double best_score = current;
    std::size_t best_idx = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (taken[i] != 0 || candidates[i].nthreads > out.idle_procs) continue;
      trial.assign(demands.begin(), demands.end());
      for (int t = 0; t < candidates[i].nthreads; ++t) {
        trial.push_back(candidates[i].bbw_per_thread);
      }
      const double s = score(predictor, trial, objective);
      if (s > best_score + 1e-12) {
        best_score = s;
        best_idx = i;
      }
    }
    if (best_idx == candidates.size()) break;  // nothing improves: stop
    allocate(best_idx);
  }
}

ElectionResult elect_predictive(const std::vector<Candidate>& candidates,
                                int nprocs, const PredictorConfig& cfg,
                                PredictiveObjective objective) {
  ElectionResult out;
  elect_predictive_into(candidates, nprocs, cfg, objective, out);
  return out;
}

}  // namespace bbsched::core
