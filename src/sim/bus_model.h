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
// find by bisection (see "Monotone search" below for how most resolves reach
// the bisection's answer without walking it). Below saturation X is the mild
// queueing inflation X_light(rho). The same X for all threads models a fair
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
// Monotone search. The bisection from [lo, hi] = [X_light, max_stretch]
// defines the output bits: mid = 0.5 * (lo + hi), lo = mid while the computed
// granted sum g_fp(mid) exceeds C, else hi = mid, for at most 64 steps, and
// X = 0.5 * (lo + hi). Most resolves reach the same X without the walk:
//
//  * g_fp never increases in X on the inputs the search accepts (demands in
//    [0, DBL_MAX], alpha_i and 1/w_i in [0, 1], X in [1, DBL_MAX]). Each term
//    is d / (1 + alpha * (X - 1) * (1/w)); X - 1 >= 0, so the two products
//    and the add are monotone non-decreasing in X and cannot overflow, and
//    d / c with d >= 0 and c >= 1 is non-increasing in c. Round-to-nearest
//    is monotone, so every rounded operation keeps its operand's order, and
//    so does the running sum of non-negative terms (at worst it rounds to
//    +inf, never to NaN). Hence "g_fp(X) > C" holds below one double x_c in
//    (lo, hi] and fails from x_c on: the walk's lo stays below x_c and its
//    hi at or above it, whichever midpoints it visits.
//  * Once lo and hi are adjacent doubles, mid rounds onto one of them and
//    the walk stands still, so it ends on X = 0.5 * (pred(x_c) + x_c) if it
//    reaches adjacency within 64 steps. With rho = (hi - lo) / ulp(lo) (an
//    integer, since ulp(lo) <= ulp(hi)), a step leaves at most
//    rho / 2 + max(1, 2^-53 rho): the midpoint rounds by at most ulp(lo)
//    when it lies within a binade of lo, and by 2^-53 of the width when it
//    lies further up. From rho < 255 * 2^53, i.e. max_stretch <= 256 X_light,
//    8 steps bring rho below 2^53, 53 more to at most 2, and one more to 1:
//    62 steps. The defaults (1.15 and 64) take at most 58.
//  * For positive doubles the bit pattern orders like the value, so the
//    search bisects integers. It probes a Newton estimate of the root,
//    gallops outward (1, 2, 4, ... patterns) until one probe is above
//    capacity and one is not, bisects the patterns down to the adjacent
//    pair (pred(x_c), x_c) and returns 0.5 * (pred(x_c) + x_c): the walk's
//    bits. If no probe below max_stretch is at capacity it evaluates
//    max_stretch and, like the walk, keeps X = max_stretch when that is
//    still above.
//
// The search runs only where that argument holds: a demand that is negative
// or not finite, an alpha or inverse weight outside [0, 1] (a weight below
// 1), a range [lo, hi] that is empty or not inside [1, DBL_MAX / 2] (so
// lo + hi cannot overflow), max_stretch > 256 X_light, C < 2^-900, or a
// Newton estimate that is not finite or not inside (lo, hi) keeps the plain
// walk. Newton steps on the convex g, from the Jensen point
// 1 + (D/C - 1) D / Sum d_i c_i (c_i = alpha_i / w_i, a lower bound on the
// root), only place the first probe.
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
