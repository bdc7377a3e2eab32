#include "core/cpu_manager.h"

#include <algorithm>
#include <cmath>

namespace bbsched::core {

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kLatestQuantum: return "latest-quantum";
    case PolicyKind::kQuantaWindow: return "quanta-window";
    case PolicyKind::kExponential: return "ewma";
  }
  return "unknown";
}

int CpuManager::connect(const std::string& name, int nthreads) {
  assert(nthreads >= 1);
  const int id = next_id_++;
  apps_.emplace(id, ManagedApp(id, name, nthreads, cfg_.window_len,
                               cfg_.ewma_alpha));
  order_.push_back(id);
  // Every per-quantum buffer is bounded by the connected-app count. Sizing
  // them here, on the connect path, keeps the first quantum that elects
  // more apps than any before it from growing them mid-run.
  candidates_.reserve(order_.size());
  result_.elected.reserve(order_.size());
  running_.reserve(order_.size());

  // Crash recovery: a reattaching application adopts its journaled feed
  // state instead of cold-starting, provided the shape still matches (a
  // changed thread count invalidates per-thread rates).
  const auto pending = pending_restore_.find(name);
  if (pending != pending_restore_.end() &&
      pending->second.feed.nthreads == nthreads) {
    const FeedSnapshot& f = pending->second.feed;
    ManagedApp& app = apps_.at(id);
    app.tracker.restore(f.tracker);
    app.miss_streak = f.miss_streak;
    app.decayed_estimate =
        f.has_decayed_estimate ? f.decayed_estimate : std::nan("");
    app.quarantined = f.quarantined;
    const int pos = pending->second.pos;
    const bool was_running = pending->second.was_running;
    restore_pos_[id] = pos;
    pending_restore_.erase(pending);

    // Preserve the journaled rotation cursor: restored feeds form a prefix
    // of the list in journal order (reattach order is arbitrary — whoever
    // reconnects first must not jump the election queue); apps without
    // journaled state queue behind them in plain arrival order.
    order_.pop_back();
    auto it = order_.begin();
    for (; it != order_.end(); ++it) {
      const auto rp = restore_pos_.find(*it);
      if (rp == restore_pos_.end() || rp->second > pos) break;
    }
    order_.insert(it, id);

    // The journaled gang re-enters the running set (in journal order, so
    // the next rotation splices it identically no matter who reattached
    // first): its in-flight quantum folds on the next election.
    if (was_running) {
      auto rit = running_.begin();
      for (; rit != running_.end(); ++rit) {
        const auto rp = restore_pos_.find(*rit);
        if (rp != restore_pos_.end() && rp->second > pos) break;
      }
      running_.insert(rit, id);
    }
  }
  return id;
}

void CpuManager::disconnect(int app_id) {
  credit_.release(app_id);
  if (m_qos_reserved_apps_ != nullptr) {
    m_qos_reserved_apps_->set(static_cast<double>(credit_.reserved_count()));
  }
  apps_.erase(app_id);
  order_.remove(app_id);
  restore_pos_.erase(app_id);
  running_.erase(std::remove(running_.begin(), running_.end(), app_id),
                 running_.end());
}

void CpuManager::snapshot(ManagerSnapshot& out) const {
  out.quantum_index = quantum_index_;
  out.dead_feed_quanta = dead_feed_quanta_;
  out.degraded = degraded_;
  // Feeds are overwritten in place: a snapshot reused across quanta keeps
  // its names' and windows' capacity and, once every slot has held its
  // largest feed, fills without allocating.
  std::size_t n = 0;
  const auto emit = [&](int id) {
    const ManagedApp& app = apps_.at(id);
    if (n == out.feeds.size()) out.feeds.emplace_back();
    FeedSnapshot& f = out.feeds[n++];
    f.name = app.name;
    f.nthreads = app.nthreads;
    f.miss_streak = app.miss_streak;
    f.has_decayed_estimate = !std::isnan(app.decayed_estimate);
    f.decayed_estimate = f.has_decayed_estimate ? app.decayed_estimate : 0.0;
    f.quarantined = app.quarantined;
    app.tracker.snapshot(f.tracker);
  };
  // Emit pre-rotated: schedule_quantum() splices the currently running gang
  // to the tail before electing, and a restored manager has an empty
  // running set, so that rotation would be lost across a crash (the new
  // incarnation would re-elect the crash-time gang). Journaling the order
  // as it will be *after* the pending rotation keeps restored elections
  // identical to an uncrashed manager's (tests/test_journal.cc).
  for (int id : order_) {
    if (std::find(running_.begin(), running_.end(), id) == running_.end()) {
      emit(id);
    }
  }
  out.running_tail = 0;
  for (int id : running_) {
    if (apps_.count(id) != 0) {
      emit(id);
      ++out.running_tail;
    }
  }
  out.feeds.resize(n);
}

int CpuManager::restore(const ManagerSnapshot& snap) {
  assert(apps_.empty() && "restore() primes a fresh manager");
  quantum_index_ = snap.quantum_index;
  dead_feed_quanta_ = snap.dead_feed_quanta;
  degraded_ = snap.degraded;
  if (m_degradation_state_ != nullptr) {
    m_degradation_state_->set(degraded_ ? 1.0 : 0.0);
  }
  pending_restore_.clear();
  restore_pos_.clear();
  const std::size_t gang_start =
      snap.feeds.size() -
      std::min<std::size_t>(snap.feeds.size(),
                            static_cast<std::size_t>(
                                std::max(snap.running_tail, 0)));
  int parked = 0;
  for (std::size_t i = 0; i < snap.feeds.size(); ++i) {
    // Adoption is keyed by application name; with duplicate names only the
    // last journaled feed survives (reattach cannot tell twins apart).
    pending_restore_[snap.feeds[i].name] = {snap.feeds[i],
                                            static_cast<int>(i),
                                            i >= gang_start};
    ++parked;
  }
  return parked;
}

void CpuManager::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) {
    m_missed_quanta_ = nullptr;
    m_invalid_samples_ = nullptr;
    m_negative_deltas_ = nullptr;
    m_clamped_samples_ = nullptr;
    m_quarantines_ = nullptr;
    m_degraded_elections_ = nullptr;
    m_degradation_state_ = nullptr;
    m_qos_replenishes_ = nullptr;
    m_qos_violations_ = nullptr;
    m_qos_rejected_ = nullptr;
    m_qos_slack_elections_ = nullptr;
    m_qos_reserved_apps_ = nullptr;
    return;
  }
  m_missed_quanta_ = &metrics_->counter("manager.faults.missed_quanta");
  m_invalid_samples_ = &metrics_->counter("manager.faults.invalid_samples");
  m_negative_deltas_ = &metrics_->counter("manager.faults.negative_deltas");
  m_clamped_samples_ = &metrics_->counter("manager.faults.clamped_samples");
  m_quarantines_ = &metrics_->counter("manager.faults.quarantines");
  m_degraded_elections_ = &metrics_->counter("manager.degraded_elections");
  m_degradation_state_ = &metrics_->gauge("manager.degradation_state");
  m_degradation_state_->set(degraded_ ? 1.0 : 0.0);
  m_qos_replenishes_ = &metrics_->counter("manager.qos.replenishes");
  m_qos_violations_ =
      &metrics_->counter("manager.qos.reservation_violations");
  m_qos_rejected_ = &metrics_->counter("manager.qos.reservations_rejected");
  m_qos_slack_elections_ = &metrics_->counter("manager.qos.slack_elections");
  m_qos_reserved_apps_ = &metrics_->gauge("manager.qos.reserved_apps");
  m_qos_reserved_apps_->set(static_cast<double>(credit_.reserved_count()));
}

QosError CpuManager::set_reservation(int app_id, double frac,
                                     std::uint64_t now_us) {
  QosError err = QosError::kNone;
  if (!connected(app_id)) {
    err = QosError::kUnknownApp;
  } else {
    err = credit_.reserve(app_id, frac);
  }
  if (err != QosError::kNone) {
    if (m_qos_rejected_ != nullptr) m_qos_rejected_->inc();
    count_fault(obs::FaultKind::kReservationRejected, app_id, frac, now_us);
    return err;
  }
  if (m_qos_reserved_apps_ != nullptr) {
    m_qos_reserved_apps_->set(static_cast<double>(credit_.reserved_count()));
  }
  return err;
}

void CpuManager::count_fault(obs::FaultKind kind, int app_id, double value,
                             std::uint64_t now_us) {
  switch (kind) {
    case obs::FaultKind::kMissedQuantum:
      if (m_missed_quanta_ != nullptr) m_missed_quanta_->inc();
      break;
    case obs::FaultKind::kInvalidSample:
      if (m_invalid_samples_ != nullptr) m_invalid_samples_->inc();
      break;
    case obs::FaultKind::kNegativeDelta:
      if (m_negative_deltas_ != nullptr) m_negative_deltas_->inc();
      break;
    case obs::FaultKind::kClampedSample:
      if (m_clamped_samples_ != nullptr) m_clamped_samples_->inc();
      break;
    default:
      break;
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    // Non-finite magnitudes would poison the JSON exporters.
    tracer_->fault(now_us,
                   {app_id, kind, std::isfinite(value) ? value : 0.0});
  }
}

void CpuManager::record_sample(int app_id, double delta_transactions,
                               std::uint64_t now_us) {
  auto it = apps_.find(app_id);
  if (it == apps_.end()) return;  // app disconnected between sample and post
  ManagedApp& app = it->second;

  // Counter backends lie: validate before trusting (docs/ROBUSTNESS.md).
  if (!std::isfinite(delta_transactions)) {
    // A NaN/inf reading is a failed read, not a measurement — drop it
    // without bumping samples_this_quantum so it counts toward staleness.
    count_fault(obs::FaultKind::kInvalidSample, app_id, delta_transactions,
                now_us);
    return;
  }
  if (delta_transactions < 0.0) {
    // Counter wraparound shows up as a negative delta; the transactions of
    // the wrapped interval are unrecoverable, so clamp to "no traffic seen".
    count_fault(obs::FaultKind::kNegativeDelta, app_id, delta_transactions,
                now_us);
    delta_transactions = 0.0;
  }
  const double cap = cfg_.staleness.max_sample_factor * cfg_.total_bus_bw_tps *
                     static_cast<double>(cfg_.quantum_us);
  if (cap > 0.0 && delta_transactions > cap) {
    // No real bus could have carried this; a glitched or post-wrap read.
    count_fault(obs::FaultKind::kClampedSample, app_id, delta_transactions,
                now_us);
    delta_transactions = cap;
  }
  app.tracker.record_sample(delta_transactions);
  ++app.samples_this_quantum;
  // The validated delta also debits the app's credit: the same measurement
  // drives the fitness estimate and utilization_over_bandwidth.
  if (cfg_.qos.enabled) credit_.debit(app_id, delta_transactions);
}

void CpuManager::quarantine(int app_id, std::uint64_t now_us) {
  auto it = apps_.find(app_id);
  if (it == apps_.end()) return;
  ManagedApp& app = it->second;
  if (app.quarantined) return;
  const obs::DegradationState before = app.feed_state();
  app.quarantined = true;
  app.decayed_estimate = std::nan("");
  // Jump the miss streak to the ladder's quarantine rung so a subsequent
  // silent quantum keeps the feed where we put it instead of re-walking
  // hold → decay from scratch.
  app.miss_streak = std::max(app.miss_streak, cfg_.staleness.quarantine_after);
  if (m_quarantines_ != nullptr) m_quarantines_->inc();
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->degradation_change(
        now_us, {app_id, before, obs::DegradationState::kQuarantined});
  }
}

double CpuManager::policy_estimate(int app_id) const {
  const ManagedApp& app = apps_.at(app_id);
  // Degradation overrides, strongest first (docs/ROBUSTNESS.md ladder).
  if (app.quarantined) return cfg_.initial_estimate_tps;
  if (!std::isnan(app.decayed_estimate)) return app.decayed_estimate;
  if (!app.tracker.observed()) return cfg_.initial_estimate_tps;
  switch (cfg_.policy) {
    case PolicyKind::kLatestQuantum:
      return app.tracker.latest_per_thread();
    case PolicyKind::kQuantaWindow:
      return app.tracker.window_per_thread();
    case PolicyKind::kExponential:
      return app.tracker.ewma_per_thread();
  }
  return 0.0;
}

// Runs inside schedule_quantum on every quantum boundary.
void CpuManager::apply_staleness_policy(std::uint64_t now_us,
                                        std::uint64_t ran_us) {
  const double quantum =
      static_cast<double>(ran_us > 0 ? ran_us : cfg_.quantum_us);
  const StalenessConfig& st = cfg_.staleness;
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  int live_feeds = 0;

  // Zero samples only means a dead feed when a whole quantum actually
  // elapsed: a mid-quantum re-election (job disconnect) may legitimately
  // arrive before the first sampling point, and must fold exactly like the
  // pre-hardening manager did (bit-identical fault-free behaviour).
  const bool full_quantum =
      ran_us > 0 || now_us >= last_election_us_ + cfg_.quantum_us;

  for (int id : running_) {
    auto it = apps_.find(id);
    if (it == apps_.end()) continue;  // disconnected mid-quantum
    ManagedApp& app = it->second;
    const obs::DegradationState before = app.feed_state();

    if (app.samples_this_quantum > 0) {
      // Live feed: fold the quantum and walk straight back to kLive — a
      // single fresh measurement outranks any amount of stale history.
      app.tracker.end_quantum(quantum);
      app.miss_streak = 0;
      app.decayed_estimate = std::nan("");
      app.quarantined = false;
      ++live_feeds;
    } else if (!full_quantum) {
      // Mid-quantum election before any sampling point: fold as the
      // pre-hardening manager did, without touching the ladder — absence of
      // samples here says nothing about the feed's health.
      app.tracker.end_quantum(quantum);
    } else {
      // The app ran the whole quantum yet posted nothing: its feed is
      // silent. Do NOT fold (end_quantum would record a zero-bandwidth
      // quantum and poison the window); hold, then decay, then quarantine.
      ++app.miss_streak;
      count_fault(obs::FaultKind::kMissedQuantum, id,
                  static_cast<double>(app.miss_streak), now_us);
      if (app.miss_streak >= st.quarantine_after) {
        if (!app.quarantined) {
          app.quarantined = true;
          app.decayed_estimate = std::nan("");
          if (m_quarantines_ != nullptr) m_quarantines_->inc();
        }
      } else if (app.miss_streak > st.hold_quanta) {
        const double current = std::isnan(app.decayed_estimate)
                                   ? policy_estimate(id)
                                   : app.decayed_estimate;
        app.decayed_estimate =
            cfg_.initial_estimate_tps +
            (current - cfg_.initial_estimate_tps) * st.decay_factor;
      }
    }

    const obs::DegradationState after = app.feed_state();
    if (after != before && tracing) {
      tracer_->degradation_change(now_us, {id, before, after});
    }
  }

  // Manager-wide liveness: full quanta in which something ran but *no*
  // feed delivered. An idle manager (nothing elected) is not a dead one,
  // and mid-quantum elections say nothing either way.
  if (full_quantum) {
    if (!running_.empty() && live_feeds == 0) {
      ++dead_feed_quanta_;
    } else {
      dead_feed_quanta_ = 0;
    }
  }
  const bool degraded_now =
      st.dead_feed_quanta > 0 && dead_feed_quanta_ >= st.dead_feed_quanta;
  if (degraded_now != degraded_) {
    if (tracing) {
      tracer_->degradation_change(
          now_us, {-1,
                   degraded_ ? obs::DegradationState::kRoundRobin
                             : obs::DegradationState::kLive,
                   degraded_now ? obs::DegradationState::kRoundRobin
                                : obs::DegradationState::kLive});
    }
    degraded_ = degraded_now;
    if (m_degradation_state_ != nullptr) {
      m_degradation_state_->set(degraded_ ? 1.0 : 0.0);
    }
  }

  for (int id : order_) apps_.at(id).samples_this_quantum = 0;
}

// The per-quantum election path, run once per scheduling quantum.
const ElectionResult& CpuManager::schedule_quantum(int nprocs,
                                                   std::uint64_t now_us,
                                                   std::uint64_t ran_us) {
  // (1) Update statistics of the jobs that ran during the ending quantum,
  // advancing the staleness ladder of any feed that went silent.
  apply_staleness_policy(now_us, ran_us);

  // (2) Move previously running jobs to the end of the list, preserving
  // their relative order (splice: no node churn on the steady-state path).
  for (int id : running_) {
    auto pos = std::find(order_.begin(), order_.end(), id);
    if (pos != order_.end()) {
      order_.splice(order_.end(), order_, pos);
    }
  }

  // (3) Elect the next gang.
  candidates_.clear();
  for (int id : order_) {
    const ManagedApp& app = apps_.at(id);
    candidates_.push_back({id, app.nthreads, policy_estimate(id)});
  }
  const std::vector<Candidate>& candidates = candidates_;
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  // In degraded mode every estimate is fiction, so the election falls back
  // to plain round-robin gang scheduling: head-of-list first-fit, which the
  // post-election rotation turns into a fair rotor (docs/ROBUSTNESS.md).
  // The credit tier (when enabled and feeds are healthy) takes precedence
  // over the predictive election: guarantees outrank optimization. In
  // degraded mode neither runs — with every feed dead there are no debits,
  // so "credit remaining" is as fictional as any estimate; reservations
  // pause and the round-robin fallback takes over until feeds revive.
  const bool use_credit = cfg_.qos.enabled && !degraded_;
  const bool predictive = cfg_.use_predictive && !degraded_ && !use_credit;
  const ElectionRule rule =
      degraded_ ? ElectionRule::kFirstFit : cfg_.election_rule;
  if (use_credit) {
    const CreditScheduler::ReplenishReport rep =
        credit_.replenish_if_due(now_us, tracer_);
    if (rep.replenished > 0 && m_qos_replenishes_ != nullptr) {
      m_qos_replenishes_->inc(static_cast<double>(rep.replenished));
    }
    if (rep.violations > 0 && m_qos_violations_ != nullptr) {
      m_qos_violations_->inc(static_cast<double>(rep.violations));
    }
  }
  if (predictive) {
    elect_predictive_into(candidates, nprocs, cfg_.predictor,
                          cfg_.predictive_objective, result_);
  } else if (use_credit) {
    credit_.elect(candidates, nprocs, cfg_.total_bus_bw_tps, rule,
                  tracing ? &audit_ : nullptr, result_);
    if (credit_.last_slack_elected() > 0 &&
        m_qos_slack_elections_ != nullptr) {
      m_qos_slack_elections_->inc(
          static_cast<double>(credit_.last_slack_elected()));
    }
  } else {
    elect_into(candidates, nprocs, cfg_.total_bus_bw_tps, rule,
               tracing ? &audit_ : nullptr, result_);
  }
  const ElectionResult& result = result_;
  if (degraded_ && m_degraded_elections_ != nullptr) {
    m_degraded_elections_->inc();
  }

  if (tracing) {
    tracer_->quantum_start(
        now_us, {quantum_index_, nprocs, static_cast<std::int32_t>(
                                             candidates.size())});
    if (predictive) {
      // The predictive election has no per-round fitness scores; audit the
      // outcome only so the trace still explains who ran.
      audit_.resize(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        audit_[i] = CandidateDecision{};
        audit_[i].app_id = candidates[i].app_id;
        audit_[i].nthreads = candidates[i].nthreads;
        audit_[i].bbw_per_thread = candidates[i].bbw_per_thread;
        const auto pos = std::find(result.elected.begin(),
                                   result.elected.end(),
                                   candidates[i].app_id);
        if (pos != result.elected.end()) {
          audit_[i].elected = true;
          audit_[i].alloc_order =
              static_cast<int>(pos - result.elected.begin());
        }
      }
    }
    for (const CandidateDecision& d : audit_) {
      obs::ElectionDecisionPayload p;
      p.quantum = quantum_index_;
      p.app_id = d.app_id;
      p.nthreads = d.nthreads;
      p.bbw_per_thread = d.bbw_per_thread;
      p.abbw_per_proc = d.abbw_per_proc;
      p.score = d.score;
      p.alloc_order = static_cast<std::int16_t>(d.alloc_order);
      p.elected = d.elected ? 1 : 0;
      p.head_default = d.head_default ? 1 : 0;
      tracer_->election_decision(now_us, p);
    }
  }
  ++quantum_index_;
  last_election_us_ = now_us;

  running_ = result.elected;
  for (int id : order_) {
    apps_.at(id).ran_last_quantum =
        std::find(running_.begin(), running_.end(), id) != running_.end();
  }
  return result;
}

}  // namespace bbsched::core
