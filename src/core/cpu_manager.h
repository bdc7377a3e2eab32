// The user-level CPU manager (paper §4), transport-agnostic.
//
// The manager keeps connected applications in a circular list, accumulates
// their bus-transaction samples (delivered twice per quantum through the
// shared arena in the real system, or read from simulated counters), and at
// every quantum boundary (1) updates the statistics of the jobs that ran,
// (2) moves them to the end of the list, and (3) elects the next quantum's
// gang via the fitness metric. The same class drives both the simulator
// adapter (core::ManagedScheduler) and the native runtime
// (runtime::ManagerServer) — only the sampling and block/unblock transports
// differ.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/bandwidth_stats.h"
#include "core/credit_scheduler.h"
#include "core/election.h"
#include "core/journal.h"
#include "core/predictor.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/time.h"

namespace bbsched::core {

/// Which BBW/thread estimate the election consumes.
enum class PolicyKind {
  kLatestQuantum,  ///< Eq. 1: latest quantum's rate
  kQuantaWindow,   ///< Eq. 2: moving-window average
  /// Exponentially weighted average — §4's suggested technique for widening
  /// the effective window without losing responsiveness ("exponential
  /// reduction of the weight of older samples").
  kExponential,
};

[[nodiscard]] const char* to_string(PolicyKind kind);

/// Staleness / degradation policy: what the manager does when a running
/// application's counter feed stops delivering samples (crashed client,
/// hung updater, failed counter backend). The ladder per feed is
///   live → hold (≤ hold_quanta full-miss quanta: keep the last-good
///   estimate) → decay (geometric approach toward initial_estimate_tps) →
///   quarantine (estimate written off to the initial value);
/// manager-wide, when *every* running feed is dead for dead_feed_quanta
/// consecutive quanta, elections fall back to round-robin gangs (list-order
/// first-fit) until any feed revives. See docs/ROBUSTNESS.md.
struct StalenessConfig {
  /// Full-miss quanta over which the last-good estimate is held unchanged.
  int hold_quanta = 2;
  /// Per-quantum geometric factor of the decay toward the initial estimate
  /// (estimate' = initial + (estimate - initial) * decay_factor).
  double decay_factor = 0.5;
  /// Miss streak at which the feed is quarantined (initial estimate used).
  int quarantine_after = 8;
  /// Consecutive quanta with zero live feeds before the manager degrades to
  /// round-robin gang election.
  int dead_feed_quanta = 4;
  /// Reject ceiling for one sample, as a multiple of the whole bus's
  /// capacity over a quantum (counter glitches and post-wrap catch-up reads
  /// can report deltas no real bus could have carried). 0 disables.
  double max_sample_factor = 8.0;
};

struct ManagerConfig {
  PolicyKind policy = PolicyKind::kQuantaWindow;

  /// Scheduling quantum (paper: 200 ms — twice the Linux quantum, which
  /// avoids conflicting user/kernel-level decisions).
  sim::SimTime quantum_us = 200 * sim::kUsPerMs;

  /// Bandwidth samples collected per quantum (paper: 2).
  int samples_per_quantum = 2;

  /// Moving-window length in quanta for kQuantaWindow (paper: 5).
  std::size_t window_len = 5;

  /// Newest-sample weight for kExponential, in (0, 1]. 0.33 gives an
  /// effective memory of ~5 quanta (2/alpha - 1), matching the paper's
  /// window at equal responsiveness-smoothing tradeoff.
  double ewma_alpha = 0.33;

  /// Total schedulable bus bandwidth in transactions/µs (paper: the
  /// sustained STREAM rate, 29.5).
  double total_bus_bw_tps = 29.5;

  /// Post-head candidate selection rule (kFitness = the paper's Eq. 1;
  /// alternatives exist for the design ablation).
  ElectionRule election_rule = ElectionRule::kFitness;

  /// When true, elections use the model-driven algorithm (predictor.h, the
  /// paper's §6 future work) instead of the Eq.-1 traversal.
  bool use_predictive = false;
  PredictorConfig predictor{};
  PredictiveObjective predictive_objective =
      PredictiveObjective::kMaxThroughput;

  /// BBW/thread assumed for applications that have never been observed
  /// running. The fair bandwidth share per processor is the neutral choice:
  /// a fresh job is neither an attractive low-bandwidth co-runner nor a
  /// bus hog until it has been measured. (With 0 instead, a loaded-bus
  /// election would stampede onto every newcomer.)
  double initial_estimate_tps = 29.5 / 4.0;

  /// What to do when counter feeds go silent or lie (defaults are active
  /// but unreachable on a fault-free feed: every running app posts samples
  /// every quantum, so behaviour is bit-identical to the pre-hardening
  /// manager until a fault actually occurs).
  StalenessConfig staleness{};

  /// Credit-based bandwidth reservations (core/credit_scheduler.h,
  /// docs/POLICIES.md). Disabled by default: with qos.enabled == false the
  /// manager's behaviour is bit-identical to a build without the tier.
  /// When enabled, qos takes precedence over use_predictive.
  QosConfig qos{};
};

/// Connected-application record.
struct ManagedApp {
  int id = -1;
  std::string name;
  int nthreads = 1;
  BandwidthTracker tracker;
  bool ran_last_quantum = false;

  // ---- staleness-policy state (docs/ROBUSTNESS.md) ----
  int samples_this_quantum = 0;  ///< valid samples posted since last election
  int miss_streak = 0;           ///< consecutive full-miss quanta while running
  /// Decayed estimate override; NaN = none (tracker/initial value applies).
  double decayed_estimate = std::nan("");
  bool quarantined = false;

  ManagedApp(int id_, std::string name_, int nthreads_, std::size_t window,
             double ewma_alpha = 0.33)
      : id(id_), name(std::move(name_)), nthreads(nthreads_),
        tracker(nthreads_, window, ewma_alpha) {}

  /// Position on the per-feed degradation ladder.
  [[nodiscard]] obs::DegradationState feed_state() const noexcept {
    if (quarantined) return obs::DegradationState::kQuarantined;
    if (!std::isnan(decayed_estimate)) return obs::DegradationState::kDecaying;
    if (miss_streak > 0) return obs::DegradationState::kHolding;
    return obs::DegradationState::kLive;
  }
};

class CpuManager {
 public:
  explicit CpuManager(const ManagerConfig& cfg)
      : cfg_(cfg), credit_(cfg.qos, cfg.total_bus_bw_tps) {}

  /// Registers an application (the paper's 'connection' message). Returns
  /// the manager-assigned app id. New applications join the list tail.
  int connect(const std::string& name, int nthreads);

  /// Removes an application (job completion / 'disconnection' message).
  void disconnect(int app_id);

  /// Posts a bus-transaction sample for a *running* application:
  /// `delta_transactions` accumulated across its threads since the last
  /// sample (the shared-arena update). Input is validated, not trusted:
  /// non-finite deltas are rejected (and count as a missed sample),
  /// negative deltas (counter wraparound) clamp to zero, and implausibly
  /// large deltas clamp to the staleness policy's ceiling — each with a
  /// fault counter and, when tracing, a kFault event stamped `now_us`.
  void record_sample(int app_id, double delta_transactions,
                     std::uint64_t now_us = 0);

  /// Ends the current quantum and elects the next gang:
  ///  * folds pending samples of the apps that ran into their trackers,
  ///  * moves previously running apps to the end of the list,
  ///  * runs the fitness election for `nprocs` processors.
  /// Returns elected app ids (allocation order) in a buffer reused across
  /// elections — read it before the next call, copy it to keep it. `now_us`
  /// timestamps the observability events of this election (simulated time
  /// in the simulator, monotonic wall time in the native runtime). A feed
  /// that posted no sample counts as silent only if a whole quantum ended:
  /// by default when `now_us` lies a quantum past the previous election;
  /// `full_quantum` asserts it for a caller that paces elections on a
  /// deadline grid, where a wake-up can follow a later one by less.
  const ElectionResult& schedule_quantum(int nprocs,
                                         std::uint64_t now_us = 0,
                                         bool full_quantum = false);

  /// BBW/thread estimate the active policy would use right now.
  [[nodiscard]] double policy_estimate(int app_id) const;

  /// Force-quarantines an application's feed: the estimate is written off
  /// to the initial (fair-share) value immediately, exactly as if the feed
  /// had missed `quarantine_after` quanta. Used by the serving layer when a
  /// feed is classified *adversarial* (docs/ROBUSTNESS.md §8) — a client
  /// caught lying loses measurement-driven treatment at once instead of
  /// poisoning elections while the miss-streak ladder catches up. The feed
  /// recovers through the ordinary ladder: one valid folded sample walks it
  /// back to kLive (the serving layer withholds samples from feeds it still
  /// distrusts, which keeps them quarantined).
  void quarantine(int app_id, std::uint64_t now_us = 0);

  /// Declares (or updates; frac == 0 releases) a bus-bandwidth reservation
  /// for a connected application, as a fraction of total_bus_bw_tps.
  /// Admission-checked: an invalid or over-subscribing reservation is
  /// refused with a typed error, the ledger is untouched, the app stays
  /// best-effort, and a kReservationRejected fault event is recorded.
  /// Reservations only steer elections when cfg.qos.enabled is true.
  QosError set_reservation(int app_id, double frac, std::uint64_t now_us = 0);

  /// The credit ledger (reservation fractions, balances, period index).
  [[nodiscard]] const CreditScheduler& credit() const noexcept {
    return credit_;
  }

  [[nodiscard]] const ManagerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::size_t app_count() const noexcept { return apps_.size(); }
  [[nodiscard]] bool connected(int app_id) const {
    return apps_.contains(app_id);
  }
  [[nodiscard]] const ManagedApp& app(int app_id) const {
    return apps_.at(app_id);
  }
  /// Applications-list order (head first); exposed for tests.
  [[nodiscard]] const std::list<int>& order() const noexcept { return order_; }
  /// Apps elected by the most recent schedule_quantum().
  [[nodiscard]] const std::vector<int>& running() const noexcept {
    return running_;
  }

  /// Attaches a structured event tracer (non-owning; nullptr detaches).
  /// Every election then records one kQuantumStart plus one
  /// kElectionDecision per candidate. Costs nothing when the tracer is
  /// disabled or absent.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Attaches a metrics registry (non-owning; nullptr detaches). Registers
  /// the manager's fault counters and the degradation-state gauge
  /// (docs/OBSERVABILITY.md catalog); instrument pointers are cached so the
  /// sampling path pays one null check + increment per fault.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// True while elections run in round-robin fallback (all feeds dead).
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }

  /// Degradation ladder position of one application's counter feed.
  [[nodiscard]] obs::DegradationState feed_state(int app_id) const {
    return apps_.at(app_id).feed_state();
  }

  /// Elections performed so far (the quantum index of the next election).
  [[nodiscard]] std::uint64_t quantum_index() const noexcept {
    return quantum_index_;
  }

  // ---- crash recovery (core/journal.h, docs/ROBUSTNESS.md) ----

  /// Captures the complete policy state: every feed in applications-list
  /// order (preserving the rotation cursor), the staleness ladder, and the
  /// manager-wide degradation counters. Meant to be called at a quantum
  /// boundary, right after schedule_quantum().
  void snapshot(ManagerSnapshot& out) const;

  /// Primes a *fresh* manager (no applications connected) with a journaled
  /// snapshot. Feeds are not materialized immediately — clients of a
  /// restarted manager reattach one by one — but parked by name: a later
  /// connect() with a matching name and thread count adopts the journaled
  /// tracker state and its rotation position instead of cold-starting.
  /// Returns the number of feeds parked.
  int restore(const ManagerSnapshot& snap);

  /// Journaled feeds awaiting reattach (diagnostics/tests).
  [[nodiscard]] std::size_t pending_restores() const noexcept {
    return pending_restore_.size();
  }

 private:
  /// End-of-quantum staleness bookkeeping for the apps that ran: folds live
  /// feeds, advances miss streaks of silent ones along the hold → decay →
  /// quarantine ladder, and flips the manager-wide degraded mode.
  void apply_staleness_policy(std::uint64_t now_us, bool full_quantum);
  void count_fault(obs::FaultKind kind, int app_id, double value,
                   std::uint64_t now_us);

  ManagerConfig cfg_;
  std::unordered_map<int, ManagedApp> apps_;
  std::list<int> order_;       ///< circular applications list (head = front)
  std::vector<int> running_;   ///< elected in the current quantum
  int next_id_ = 0;

  obs::Tracer* tracer_ = nullptr;        ///< non-owning
  std::uint64_t quantum_index_ = 0;      ///< elections performed
  std::vector<CandidateDecision> audit_;  ///< reused election audit buffer
  std::vector<Candidate> candidates_;     ///< reused election input buffer
  ElectionResult result_;                 ///< reused election output buffer

  // ---- staleness/degradation state ----
  std::uint64_t last_election_us_ = 0;  ///< timestamp of the last election
  int dead_feed_quanta_ = 0;  ///< consecutive quanta with zero live feeds
  bool degraded_ = false;     ///< round-robin fallback active

  // ---- crash-recovery state ----
  /// A journaled feed not yet readopted: its snapshot, its position in the
  /// journaled rotation order (connect() re-inserts accordingly), and
  /// whether it belonged to the running gang at snapshot time (adoption
  /// then re-enters it into running_ so its in-flight quantum folds).
  struct PendingRestore {
    FeedSnapshot feed;
    int pos = 0;
    bool was_running = false;
  };
  /// Journaled feeds not yet readopted, keyed by application name.
  std::unordered_map<std::string, PendingRestore> pending_restore_;
  std::unordered_map<int, int> restore_pos_;  ///< app id → journal position

  // ---- metrics (non-owning; null = off) ----
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_missed_quanta_ = nullptr;
  obs::Counter* m_invalid_samples_ = nullptr;
  obs::Counter* m_negative_deltas_ = nullptr;
  obs::Counter* m_clamped_samples_ = nullptr;
  obs::Counter* m_quarantines_ = nullptr;
  obs::Counter* m_degraded_elections_ = nullptr;
  obs::Gauge* m_degradation_state_ = nullptr;

  // ---- credit/reservation QoS tier (core/credit_scheduler.h) ----
  CreditScheduler credit_;
  obs::Counter* m_qos_replenishes_ = nullptr;
  obs::Counter* m_qos_violations_ = nullptr;
  obs::Counter* m_qos_rejected_ = nullptr;
  obs::Counter* m_qos_slack_elections_ = nullptr;
  obs::Gauge* m_qos_reserved_apps_ = nullptr;
};

}  // namespace bbsched::core
