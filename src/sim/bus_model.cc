#include "sim/bus_model.h"

#include <algorithm>
#include <cassert>
#include <cfloat>
#include <cmath>
#include <limits>

namespace bbsched::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// v in [0, 1]; false for NaN.
bool in_unit_interval(double v) { return v >= 0.0 && v <= 1.0; }

}  // namespace

double BusModel::alpha(double demand_tps) const {
  if (demand_tps <= 0.0) return 0.0;
  const double ratio =
      std::min(1.0, demand_tps / cfg_.per_thread_peak_tps);
  // Linear alpha needs no pow(); this is the hot shape for configs that set
  // alpha_exponent = 1.0 (and pow(x, 1.0) costs a libm call per agent per
  // tick otherwise).
  if (cfg_.alpha_exponent == 1.0) return ratio;
  return std::pow(ratio, cfg_.alpha_exponent);
}

double BusModel::effective_capacity(int demanding_agents) const {
  const double k = std::max(0, demanding_agents - 1);
  const double eff =
      std::max(cfg_.arbitration_floor, 1.0 - cfg_.arbitration_loss * k);
  return cfg_.capacity_tps * eff;
}

BusResolution BusModel::resolve(std::span<const double> demands,
                                std::span<const double> weights) const {
  BusWorkspace ws;
  resolve(demands, weights, ws);
  return std::move(ws.result);
}

// bbsched:hot workspace overload used by the per-tick path
const BusResolution& BusModel::resolve(std::span<const double> demands,
                                       std::span<const double> weights,
                                       BusWorkspace& ws) const {
  BusResolution& out = ws.result;
  const std::size_t n = demands.size();
  assert(weights.empty() || weights.size() == n);
  // bbsched:allow(hotpath): ws.result buffers are reused and size-stable
  out.slowdown.resize(n);
  // bbsched:allow(hotpath): ws.result buffers are reused and size-stable
  out.granted.resize(n);
  out.stretch = 1.0;
  out.offered_rho = 0.0;
  out.saturated = false;
  out.total_granted = 0.0;

  std::vector<double>& alphas = ws.alphas;
  std::vector<double>& inv_w = ws.inv_w;
  // bbsched:allow(hotpath): workspace scratch, reused and size-stable
  alphas.resize(n);
  // bbsched:allow(hotpath): workspace scratch, reused and size-stable
  inv_w.resize(n);

  // Single fused gather: one pass writes every per-agent array (the neutral
  // slowdown/granted values double as the idle-bus result) instead of the
  // former assign() pre-fills that re-touched each array before the loop.
  double total_demand = 0.0;
  int demanding = 0;
  for (std::size_t i = 0; i < n; ++i) {
    assert(demands[i] >= 0.0 && "bus demand must be non-negative");
    total_demand += demands[i];
    alphas[i] = alpha(demands[i]);
    if (!weights.empty()) {
      assert(weights[i] >= 1.0 && "arbitration weight must be >= 1");
      inv_w[i] = 1.0 / weights[i];
    } else {
      inv_w[i] = 1.0;
    }
    out.slowdown[i] = 1.0;
    out.granted[i] = 0.0;
    if (demands[i] > cfg_.demanding_threshold_tps) ++demanding;
  }

  out.effective_capacity = effective_capacity(demanding);
  if (total_demand <= 0.0) {
    ws.granted_sum_evals_ = 0;
    return out;
  }
  out.offered_rho = total_demand / out.effective_capacity;
  const double cap = out.effective_capacity;

  // Aggregate granted rate under stretch X. Its exact operation order is
  // what the certificate bound below counts: five roundings per term.
  int evals = 0;
  auto granted_sum = [&](double x) {
    ++evals;
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += demands[i] / (1.0 + alphas[i] * (x - 1.0) * inv_w[i]);
    }
    return sum;
  };

  // Sub-saturation queueing inflation, clamped so the light regime never
  // exceeds the saturation solution's starting point.
  const double rho_for_light = std::min(out.offered_rho, 1.0);
  const double x_light = 1.0 + cfg_.queueing_kappa * rho_for_light * rho_for_light;

  double x = x_light;
  if (granted_sum(x_light) > cap) {
    out.saturated = true;
    // Bisection: granted_sum is strictly decreasing in X whenever some
    // demanding thread has alpha > 0, which holds since alpha(d)>0 for d>0.
    double lo = x_light;
    double hi = cfg_.max_stretch;

    // Certified bracket (a, b) around the root (header comment): every
    // x <= a provably has granted_sum(x) > cap and every x >= b provably
    // has granted_sum(x) <= cap, so the bisection below evaluates only
    // inside (a, b) and takes the bits of the plain one. The defaults
    // certify nothing. Newton on g(x) = sum d_i / (1 + c_i (x - 1)),
    // c_i = alpha_i / w_i, only places the two candidates.
    double a = -kInf;
    double b = kInf;
    bool in_range =
        lo >= 1.0 && lo < hi && hi <= DBL_MAX && cap >= 0x1p-900;
    double dc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      in_range = in_range && demands[i] >= 0.0 && demands[i] <= DBL_MAX &&
                 in_unit_interval(alphas[i]) && in_unit_interval(inv_w[i]);
      dc += demands[i] * alphas[i] * inv_w[i];
    }
    if (in_range) {
      // The Jensen point lies left of the root (g is convex), and so does
      // lo; Newton on a convex decreasing g climbs monotonically from there.
      double xn = std::max(
          lo, 1.0 + (total_demand / cap - 1.0) * total_demand / dc);
      double g = 0.0;
      double slope = 0.0;  // -g'(xn)
      for (int step = 0; step < 8; ++step) {
        const double t = xn - 1.0;
        g = 0.0;
        slope = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double c = alphas[i] * inv_w[i];
          const double q = 1.0 / (1.0 + c * t);
          g += demands[i] * q;
          slope += demands[i] * c * q * q;
        }
        ++evals;
        const double dx = (g - cap) / slope;
        xn += dx;
        if (!(std::abs(dx) > 0x1p-26 * xn)) break;  // converged, or NaN
      }
      // gamma_{n+4}: the relative error bound of granted_sum.
      const double k = static_cast<double>(n + 4) * 0x1p-53;
      const double gamma = k / (1.0 - k);
      // Candidates 8 gamma * g / |g'| either side of the estimate: twice the
      // 4-gamma certificate margin, so a converged estimate passes both.
      const double delta = 8.0 * gamma * g / slope;
      const double xa = xn - delta;
      const double xb = xn + delta;
      if (lo < xa && xa < hi && granted_sum(xa) > cap * (1.0 + 4.0 * gamma)) {
        a = xa;
      }
      if (lo < xb && xb < hi && granted_sum(xb) < cap * (1.0 - 4.0 * gamma)) {
        b = xb;
      }
    }
    auto above_capacity = [&](double v) {
      return v <= a || (v < b && granted_sum(v) > cap);
    };

    if (above_capacity(hi)) {
      // Pathological: even max stretch cannot push demand below capacity
      // (can only happen with thousands of near-zero-alpha threads). Fall
      // through with X = hi; a final proportional clamp below enforces the
      // capacity invariant.
      x = hi;
    } else {
      for (int iter = 0; iter < 64; ++iter) {
        const double mid = 0.5 * (lo + hi);
        // Once the midpoint rounds onto an endpoint the bracket can no
        // longer shrink: every later iteration would leave 0.5 * (lo + hi)
        // equal to this `mid`, so stopping here yields the same `x` bits.
        if (mid == lo || mid == hi) break;
        if (above_capacity(mid)) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      x = 0.5 * (lo + hi);
    }
  }

  ws.granted_sum_evals_ = evals;
  out.stretch = x;
  out.total_granted = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out.slowdown[i] = 1.0 + alphas[i] * (x - 1.0) * inv_w[i];
    out.granted[i] = demands[i] / out.slowdown[i];
    out.total_granted += out.granted[i];
  }

  // Hard physical limit: proportional clamp in the pathological case where
  // the stretch cap was hit.
  if (out.total_granted > out.effective_capacity) {
    const double scale = out.effective_capacity / out.total_granted;
    out.total_granted = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      out.granted[i] *= scale;
      if (out.granted[i] > 0.0) {
        out.slowdown[i] = demands[i] / out.granted[i];
      }
      out.total_granted += out.granted[i];
    }
  }
  return out;
}

}  // namespace bbsched::sim
