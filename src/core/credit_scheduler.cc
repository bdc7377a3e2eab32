#include "core/credit_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bbsched::core {

const char* to_string(QosError err) {
  switch (err) {
    case QosError::kNone: return "none";
    case QosError::kUnknownApp: return "unknown-app";
    case QosError::kInvalidFraction: return "invalid-fraction";
    case QosError::kOversubscribed: return "oversubscribed";
  }
  return "unknown";
}

QosError CreditScheduler::reserve(int app_id, double frac) {
  if (frac == 0.0) {
    release(app_id);
    return QosError::kNone;
  }
  if (!std::isfinite(frac) || frac < 0.0 || frac > 1.0) {
    return QosError::kInvalidFraction;
  }
  const auto it = accounts_.find(app_id);
  const double prev = it == accounts_.end() ? 0.0 : it->second.reservation_frac;
  // Admission control: the guarantees must be satisfiable. Refuse (without
  // touching the ledger) any reservation that would push the admitted sum
  // past the whole bus.
  if (reserved_sum_ - prev + frac > 1.0 + 1e-9) {
    return QosError::kOversubscribed;
  }
  reserved_sum_ += frac - prev;
  CreditAccount& acct = accounts_[app_id];
  acct.reservation_frac = frac;
  // A fresh (or resized) reservation takes effect immediately: grant the
  // full-period credit now rather than making the app wait out the period
  // it joined in the middle of.
  const double grant =
      frac * total_bus_bw_tps_ * static_cast<double>(cfg_.period_us);
  acct.credit_tx = grant;
  acct.granted_tx = grant;
  acct.spent_tx = 0.0;
  acct.quanta_elected = 0;
  if (it == accounts_.end()) {
    reserved_order_.insert(
        std::lower_bound(reserved_order_.begin(), reserved_order_.end(),
                         app_id),
        app_id);
  }
  return QosError::kNone;
}

void CreditScheduler::release(int app_id) {
  const auto it = accounts_.find(app_id);
  if (it == accounts_.end()) return;
  reserved_sum_ -= it->second.reservation_frac;
  if (reserved_sum_ < 0.0) reserved_sum_ = 0.0;  // float dust
  accounts_.erase(it);
  reserved_order_.erase(std::remove(reserved_order_.begin(),
                                    reserved_order_.end(), app_id),
                        reserved_order_.end());
}

void CreditScheduler::debit(int app_id, double transactions) {
  const auto it = accounts_.find(app_id);
  if (it == accounts_.end()) return;
  it->second.credit_tx -= transactions;
  it->second.spent_tx += transactions;
}

CreditScheduler::ReplenishReport CreditScheduler::replenish_if_due(
    std::uint64_t now_us, obs::Tracer* tracer) {
  ReplenishReport report;
  if (started_ && now_us < period_start_us_ + cfg_.period_us) return report;

  const bool closing = started_;  // first call only opens period 0
  const std::uint64_t elapsed_us = now_us - period_start_us_;
  const bool tracing = tracer != nullptr && tracer->enabled();

  for (int id : reserved_order_) {
    CreditAccount& acct = accounts_.at(id);
    const double reserved_tps = acct.reservation_frac * total_bus_bw_tps_;
    if (closing) {
      const double delivered_tps =
          elapsed_us > 0 ? acct.spent_tx / static_cast<double>(elapsed_us)
                         : 0.0;
      // A shortfall is a *violation* only when the scheduler denied the app
      // the CPU for part of the period; an always-elected app that spent
      // less than its reservation simply demanded less than it reserved.
      const bool shortfall =
          delivered_tps < reserved_tps * (1.0 - cfg_.violation_tolerance);
      if (shortfall && acct.quanta_elected < quanta_in_period_) {
        ++report.violations;
        if (tracing) {
          obs::ReservationViolationPayload p;
          p.app_id = id;
          p.period = period_index_;
          p.reserved_tps = reserved_tps;
          p.delivered_tps = delivered_tps;
          p.quanta_elected = acct.quanta_elected;
          p.quanta_in_period = quanta_in_period_;
          tracer->reservation_violation(now_us, p);
        }
      }
    }
    const double grant =
        acct.reservation_frac * total_bus_bw_tps_ *
        static_cast<double>(cfg_.period_us);
    if (tracing) {
      obs::CreditReplenishPayload p;
      p.app_id = id;
      p.period = closing ? period_index_ + 1 : period_index_;
      p.granted_tx = grant;
      p.spent_tx = closing ? acct.spent_tx : 0.0;
      p.leftover_tx = closing ? std::max(acct.credit_tx, 0.0) : 0.0;
      tracer->credit_replenish(now_us, p);
    }
    acct.credit_tx = grant;
    acct.granted_tx = grant;
    acct.spent_tx = 0.0;
    acct.quanta_elected = 0;
    ++report.replenished;
  }

  if (closing) ++period_index_;
  started_ = true;
  period_start_us_ = now_us;
  quanta_in_period_ = 0;
  return report;
}

// Per-quantum election path of the credit tier.
void CreditScheduler::elect(const std::vector<Candidate>& candidates,
                            int nprocs, double total_bus_bw,
                            ElectionRule slack_rule,
                            std::vector<CandidateDecision>* audit,
                            ElectionResult& out) {
  last_slack_elected_ = 0;
  if (accounts_.empty()) {
    // Zero reservations degenerate to the ordinary best-effort election by
    // construction — same code, not merely the same behaviour.
    elect_into(candidates, nprocs, total_bus_bw, slack_rule, audit, out);
  } else {
    assert(nprocs >= 0);
    out.elected.clear();
    out.allocated_bw = 0.0;
    out.idle_procs = nprocs;

    if (audit) {
      // audit is the caller's reused buffer.
      audit->resize(candidates.size());
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        (*audit)[i] = CandidateDecision{};
        (*audit)[i].app_id = candidates[i].app_id;
        (*audit)[i].nthreads = candidates[i].nthreads;
        (*audit)[i].bbw_per_thread = candidates[i].bbw_per_thread;
      }
    }
    // taken_ is a reused, size-stable member buffer.
    taken_.assign(candidates.size(), 0);

    auto allocate = [&](std::size_t idx) {
      const Candidate& c = candidates[idx];
      taken_[idx] = 1;
      if (audit) {
        (*audit)[idx].elected = true;
        (*audit)[idx].alloc_order = static_cast<int>(out.elected.size());
      }
      // out.elected is the caller's reused buffer.
      out.elected.push_back(c.app_id);
      out.idle_procs -= c.nthreads;
      out.allocated_bw += c.bbw_per_thread * static_cast<double>(c.nthreads);
    };

    // Phase 1 — the guarantee: every application holding credit is
    // allocated in applications-list order while its gang fits. Fitness
    // never passes over a paid-for reservation.
    bool guarding = false;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const auto it = accounts_.find(candidates[i].app_id);
      if (it == accounts_.end() || it->second.credit_tx <= 0.0) continue;
      if (candidates[i].nthreads > out.idle_procs) continue;
      if (audit) {
        // Surface the remaining-credit fraction as the "score" so a trace
        // explains phase-1 picks (head_default stays false: this is the
        // guarantee, not the starvation rule).
        (*audit)[i].score = it->second.granted_tx > 0.0
                                ? it->second.credit_tx / it->second.granted_tx
                                : 0.0;
      }
      allocate(i);
      guarding = true;
    }

    // Phase 2 — the slack: remaining processors go to the rest of the list
    // (best-effort apps, and reserved apps that spent their credit) under
    // the ordinary rule. Unused credit is work-conservingly redistributed;
    // but while guarantees are on the bus, admission refuses candidates
    // whose estimated demand would over-subscribe it.
    while (out.idle_procs > 0) {
      const double abbw =
          abbw_per_proc(total_bus_bw, out.allocated_bw, out.idle_procs);
      double best_score = -1.0;
      std::size_t best_idx = candidates.size();
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (taken_[i] != 0 || candidates[i].nthreads > out.idle_procs) {
          continue;
        }
        const double demand = candidates[i].bbw_per_thread *
                              static_cast<double>(candidates[i].nthreads);
        if (guarding && out.allocated_bw + demand > total_bus_bw) continue;
        double score = 0.0;
        switch (slack_rule) {
          case ElectionRule::kFitness:
            score = fitness(abbw, candidates[i].bbw_per_thread);
            break;
          case ElectionRule::kFirstFit:
            score = 1.0;  // strict '>' keeps the first fitting candidate
            break;
          case ElectionRule::kLowestFirst:
            score = 1.0 / (1.0 + candidates[i].bbw_per_thread);
            break;
          case ElectionRule::kHighestFirst:
            score = candidates[i].bbw_per_thread;
            break;
        }
        if (audit) {
          (*audit)[i].score = score;
          (*audit)[i].abbw_per_proc = abbw;
        }
        if (score > best_score) {
          best_score = score;
          best_idx = i;
        }
      }
      if (best_idx == candidates.size()) break;  // nothing admissible fits
      allocate(best_idx);
      if (guarding) ++last_slack_elected_;
    }

    // Safety net: if admission blocked everything (e.g. only bus hogs are
    // left and no reserved gang fits), fall back to the unconditional
    // head-of-list allocation — an idle machine helps nobody's guarantee.
    if (out.elected.empty()) {
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].nthreads <= out.idle_procs) {
          if (audit) (*audit)[i].head_default = true;
          allocate(i);
          break;
        }
      }
    }
  }

  // Period accounting for the violation check: this quantum happened, and
  // these reserved apps held the CPU for it.
  ++quanta_in_period_;
  for (int id : out.elected) {
    const auto it = accounts_.find(id);
    if (it != accounts_.end()) ++it->second.quanta_elected;
  }
}

}  // namespace bbsched::core
