// Analytic model of a shared front-side bus under contention.
//
// Given the *uncontended* bus-transaction demand of every running thread,
// the model answers: how much does each thread actually get, and how much
// does each thread slow down? The paper's Fig. 1 measurements pin down the
// qualitative requirements:
//
//  * a saturated bus slows memory-intensive codes 2–3x, but codes with
//    moderate demand only 2–55% — degradation must scale with each thread's
//    memory-boundedness, not be uniform;
//  * contention begins to cost before nominal saturation ("contention and
//    arbitration contribute to bandwidth consumption") — a mild queueing
//    term below saturation and an arbitration-efficiency loss per extra
//    demanding agent capture this;
//  * aggregate granted traffic can never exceed the sustained capacity.
//
// Mechanically, every thread i has demand d_i and memory-boundedness
// alpha_i = min(1, d_i/D_max)^p. A scalar memory-stretch factor X >= 1
// stretches only the memory-bound part of execution:
//
//     slowdown_i(X) = 1 + alpha_i * (X - 1)
//     granted_i(X)  = d_i / slowdown_i(X)
//
// Sum(granted_i(X)) is strictly decreasing in X (for Sum(d_i) > 0), so the
// saturation equation Sum(granted_i(X)) = C_eff has a unique root which we
// find by bisection (see "Certified bracket" below for how the bisection
// avoids most of its evaluations). Below saturation X is the mild queueing
// inflation X_light(rho). The same X for all threads models a fair
// (FIFO-arbitrated) bus where every transaction experiences the same
// queueing delay; the per-thread impact differs through alpha_i. This is
// the asymmetry the paper measures.
//
// Arbitration weights: back-to-back streaming writers (the BBMA
// microbenchmark) are burst-friendly — posted writes and open-page locality
// let them lose less per transaction than latency-bound readers when the
// bus saturates. A per-thread weight w_i >= 1 scales down the stretch that
// thread experiences:
//
//     slowdown_i(X) = 1 + alpha_i * (X - 1) / w_i
//
// so at the fixed point a heavy streamer retains more of its rate, pushing
// more of the saturation cost onto the ordinary applications. This is what
// lets one application + two BBMA reach the paper's 2-3x slowdowns while
// two identical application instances stay in the 41-61% band.
//
// Certified bracket. The bisection's lo/hi/mid sequence is the output's
// definition, so it is kept; what changes is which midpoints are
// evaluated. Write g(X) = Sum d_i / (1 + c_i (X - 1)), c_i = alpha_i / w_i,
// in exact arithmetic on the stored doubles, and g_fp for the computed sum.
//
//  * g is non-increasing for X >= 1, since d_i >= 0 and c_i >= 0.
//  * Each computed term carries five roundings (X - 1, * alpha, * 1/w,
//    1 +, d /) and the running sum n - 1 more, all on non-negative values,
//    so |g_fp - g| <= gamma * g with gamma = gamma_{n+4} = (n+4)u/(1-(n+4)u),
//    u = 2^-53.
//  * If g_fp(a) > C (1 + 4 gamma), then for every X <= a:
//    g_fp(X) >= (1 - gamma) g(X) >= (1 - gamma) g(a)
//            >= g_fp(a) (1 - gamma) / (1 + gamma) > C,
//    so the bisection would set lo = X; symmetrically g_fp(b) < C (1 - 4 gamma)
//    proves g_fp(X) < C, hence hi = X, for every X >= b. These midpoints are
//    skipped, and stretch, slowdown and granted keep their bits.
//  * 2 gamma of margin would do in exact arithmetic; the other 2 gamma
//    absorbs the rounding of the thresholds C (1 +- 4 gamma) themselves
//    (about 3u), which gamma >= 5u covers. Underflow adds at most
//    n * 2^-1075 per sum, far inside that slack for C >= 2^-900.
//
// Newton steps on the convex g, from the Jensen point
// 1 + (D/C - 1) D / Sum d_i c_i (a lower bound on the root), only place the
// candidates a and b; each is trusted only after its own check, and a side
// whose check fails stays uncertified. A non-finite Newton step or an input
// outside the bound's preconditions (a demand that is negative or not
// finite, an alpha or an inverse weight outside [0, 1], i.e. a weight below
// 1, a bisection range [lo, hi] that is empty or not inside [1, DBL_MAX],
// C < 2^-900) leaves both sides uncertified: the plain bisection.
#pragma once

#include <span>
#include <vector>

#include "sim/config.h"

namespace bbsched::sim {

/// Result of resolving one tick of bus contention.
struct BusResolution {
  /// Common memory-stretch factor applied to all threads (>= 1).
  double stretch = 1.0;
  /// Effective capacity after arbitration losses (transactions/µs).
  double effective_capacity = 0.0;
  /// Offered load: sum of demands / effective capacity.
  double offered_rho = 0.0;
  /// True when the saturation equation was active (demand exceeded supply).
  bool saturated = false;
  /// Per-thread execution-time multiplier (>= 1), same order as demands.
  std::vector<double> slowdown;
  /// Per-thread granted transaction rate (transactions/µs), <= demand.
  std::vector<double> granted;
  /// Sum of granted rates (<= effective_capacity + tiny numerical slack).
  double total_granted = 0.0;
};

/// Reusable scratch state for resolve(). A caller that resolves every tick
/// (the engine) keeps one workspace alive so the per-agent vectors — and
/// the result's slowdown/granted arrays — are allocated once and reused,
/// making the steady-state tick path allocation-free. Tick over tick most
/// agents repeat their demand, so resolve() also keeps each slot's alpha
/// and recomputes its pow() only when the slot's demand or the model's
/// alpha parameters changed since the last resolve into this workspace.
struct BusWorkspace {
  /// Per-agent memory-boundedness, filled by resolve(). Exposed so callers
  /// that need alphas after resolution (the engine's SMT penalty) can reuse
  /// them instead of recomputing the pow() per agent.
  std::vector<double> alphas;
  /// Per-agent inverse arbitration weight, filled by resolve().
  std::vector<double> inv_w;
  /// The resolution resolve() returned; valid until the next resolve()
  /// into the same workspace.
  BusResolution result;

  /// Passes over the agents the last resolve() made to evaluate the
  /// granted sum (Newton steps included); reset on every call.
  [[nodiscard]] int granted_sum_evals() const noexcept {
    return granted_sum_evals_;
  }

 private:
  friend class BusModel;
  int granted_sum_evals_ = 0;
  /// The demand each alphas[i] was derived from (NaN: none yet), and the
  /// alpha parameters of the model that derived them.
  std::vector<double> alpha_demand_;
  double alpha_peak_tps_ = 0.0;
  double alpha_exponent_ = 0.0;
};

/// Stateless solver for the contention model; one instance per machine.
class BusModel {
 public:
  explicit BusModel(const BusConfig& cfg) : cfg_(cfg) {}

  /// Memory-boundedness of a thread with uncontended demand `d` (trans/µs).
  [[nodiscard]] double alpha(double demand_tps) const;

  /// Effective capacity given the number of demanding agents.
  [[nodiscard]] double effective_capacity(int demanding_agents) const;

  /// Resolves one tick: returns per-thread slowdowns and granted rates.
  /// `demands` holds the uncontended transaction rate of each running
  /// thread; entries may be zero (idle/spinning threads). `weights`, when
  /// non-empty, must be the same length and holds per-thread arbitration
  /// weights (>= 1; 1 = ordinary latency-bound traffic).
  [[nodiscard]] BusResolution resolve(
      std::span<const double> demands,
      std::span<const double> weights = {}) const;

  /// Allocation-free variant: resolves into `ws`, reusing its buffers, and
  /// returns a reference to ws.result. `demands`/`weights` must not alias
  /// the workspace's own vectors.
  const BusResolution& resolve(std::span<const double> demands,
                               std::span<const double> weights,
                               BusWorkspace& ws) const;

  [[nodiscard]] const BusConfig& config() const noexcept { return cfg_; }

 private:
  BusConfig cfg_;
};

}  // namespace bbsched::sim
