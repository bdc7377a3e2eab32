// Tests for the transport-agnostic CPU manager: connection lifecycle, the
// applications-list rotation, bandwidth statistics (latest vs window), and
// quantum elections.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <vector>

#include "core/bandwidth_stats.h"
#include "core/cpu_manager.h"

namespace bbsched::core {
namespace {

ManagerConfig cfg(PolicyKind kind = PolicyKind::kLatestQuantum) {
  ManagerConfig c;
  c.policy = kind;
  c.quantum_us = 200 * sim::kUsPerMs;
  return c;
}

// ---- BandwidthTracker ----

TEST(BandwidthTracker, RateIsPerThreadPerMicrosecond) {
  BandwidthTracker t(/*nthreads=*/2);
  t.record_sample(1'000'000.0);  // 1M transactions over...
  t.end_quantum(200'000.0);      // ...a 200 ms quantum, 2 threads
  EXPECT_DOUBLE_EQ(t.latest_per_thread(), 2.5);
}

TEST(BandwidthTracker, SamplesAccumulateWithinQuantum) {
  BandwidthTracker t(1);
  t.record_sample(300.0);
  t.record_sample(700.0);  // two samples per quantum, as in the paper
  t.end_quantum(1000.0);
  EXPECT_DOUBLE_EQ(t.latest_per_thread(), 1.0);
  EXPECT_DOUBLE_EQ(t.pending(), 0.0);
}

TEST(BandwidthTracker, UnobservedReportsZeroAndFlag) {
  BandwidthTracker t(2);
  EXPECT_FALSE(t.observed());
  EXPECT_DOUBLE_EQ(t.latest_per_thread(), 0.0);
  EXPECT_DOUBLE_EQ(t.window_per_thread(), 0.0);
}

TEST(BandwidthTracker, WindowAveragesFiveQuanta) {
  BandwidthTracker t(1, /*window_len=*/5);
  for (double rate : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    t.record_sample(rate * 1000.0);
    t.end_quantum(1000.0);
  }
  EXPECT_DOUBLE_EQ(t.window_per_thread(), 3.0);
  // A sixth quantum evicts the first.
  t.record_sample(11.0 * 1000.0);
  t.end_quantum(1000.0);
  EXPECT_DOUBLE_EQ(t.window_per_thread(), 5.0);  // (2+3+4+5+11)/5
  EXPECT_DOUBLE_EQ(t.latest_per_thread(), 11.0);
}

TEST(BandwidthTracker, WindowDampsBurst) {
  // §4's motivation: the window filters short bursts that fool Eq. 1.
  BandwidthTracker t(1, 5);
  for (int i = 0; i < 5; ++i) {
    t.record_sample(10'000.0);
    t.end_quantum(1000.0);
  }
  t.record_sample(60'000.0);  // one-quantum burst
  t.end_quantum(1000.0);
  EXPECT_DOUBLE_EQ(t.latest_per_thread(), 60.0);
  EXPECT_DOUBLE_EQ(t.window_per_thread(), 20.0);
}

// ---- CpuManager ----

TEST(CpuManager, ConnectAssignsIdsAndListOrder) {
  CpuManager mgr(cfg());
  const int a = mgr.connect("a", 2);
  const int b = mgr.connect("b", 1);
  EXPECT_NE(a, b);
  EXPECT_EQ(mgr.app_count(), 2u);
  EXPECT_EQ(mgr.order().front(), a);
  EXPECT_EQ(mgr.order().back(), b);
}

TEST(CpuManager, DisconnectRemovesEverywhere) {
  CpuManager mgr(cfg());
  const int a = mgr.connect("a", 2);
  const int b = mgr.connect("b", 2);
  mgr.schedule_quantum(4);  // both elected
  mgr.disconnect(a);
  EXPECT_FALSE(mgr.connected(a));
  EXPECT_EQ(mgr.order().size(), 1u);
  for (int id : mgr.running()) EXPECT_NE(id, a);
  EXPECT_TRUE(mgr.connected(b));
}

TEST(CpuManager, UnobservedAppsUseFairShareEstimate) {
  ManagerConfig c = cfg();
  c.initial_estimate_tps = 7.375;
  CpuManager mgr(c);
  const int a = mgr.connect("a", 2);
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(a), 7.375);
}

TEST(CpuManager, RanJobsMoveToEndOfList) {
  CpuManager mgr(cfg());
  const int a = mgr.connect("a", 2);
  const int b = mgr.connect("b", 2);
  const int c = mgr.connect("c", 2);
  const auto r1 = mgr.schedule_quantum(4);
  // a and b fill the four processors.
  ASSERT_EQ(r1.elected.size(), 2u);
  EXPECT_EQ(r1.elected[0], a);
  EXPECT_EQ(r1.elected[1], b);
  mgr.schedule_quantum(4);
  // After rotation, c is at the head and must be elected first.
  const auto& order = mgr.order();
  EXPECT_EQ(order.back(), b);
  EXPECT_EQ(mgr.running().front(), c);
}

TEST(CpuManager, NoStarvationOverManyQuanta) {
  // Six 2-thread apps on 4 processors: every app must run regularly thanks
  // to the head-of-list guarantee, regardless of estimates.
  CpuManager mgr(cfg());
  std::vector<int> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(mgr.connect("app", 2));
  std::vector<int> runs(6, 0);
  for (int q = 0; q < 30; ++q) {
    mgr.record_sample(ids[0], 1e6);  // skew one app's stats arbitrarily
    const auto r = mgr.schedule_quantum(4);
    for (int id : r.elected) {
      ++runs[static_cast<std::size_t>(id - ids[0])];
    }
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_GE(runs[static_cast<std::size_t>(i)], 5) << "app " << i;
  }
}

TEST(CpuManager, LatestVsWindowEstimatesDiffer) {
  CpuManager latest(cfg(PolicyKind::kLatestQuantum));
  CpuManager window(cfg(PolicyKind::kQuantaWindow));
  for (CpuManager* mgr : {&latest, &window}) {
    const int id = mgr->connect("a", 1);
    ASSERT_EQ(id, 0);
    // Elect it so end_quantum applies to it.
    for (double rate : {10.0, 10.0, 10.0, 10.0, 60.0}) {
      mgr->schedule_quantum(4);
      mgr->record_sample(0, rate * 200'000.0);
    }
    mgr->schedule_quantum(4);  // folds the last sample
  }
  EXPECT_DOUBLE_EQ(latest.policy_estimate(0), 60.0);
  EXPECT_DOUBLE_EQ(window.policy_estimate(0), 20.0);
}

TEST(CpuManager, GridPacedElectionFoldsOverTheTimeTheGangRan) {
  // A late wake-up leaves the next grid quantum short, here 100 µs of a
  // 200 ms one. Its samples fold over the 100 µs the gang ran, so the
  // estimate is the gang's rate, not 1/2000 of it.
  const ManagerConfig c = cfg();
  CpuManager mgr(c);
  const int id = mgr.connect("a", 2);
  std::uint64_t now = 1'000'000;
  mgr.schedule_quantum(4, now, c.quantum_us);
  now += c.quantum_us;
  mgr.record_sample(id, 3.0 * 2 * static_cast<double>(c.quantum_us), now);
  mgr.schedule_quantum(4, now, c.quantum_us);
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(id), 3.0);
  now += 100;
  mgr.record_sample(id, 5.0 * 2 * 100, now);
  mgr.schedule_quantum(4, now, /*ran_us=*/100);
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(id), 5.0);
}

TEST(CpuManager, SampleForUnknownAppIsIgnored) {
  CpuManager mgr(cfg());
  mgr.record_sample(123, 1e6);  // no crash, no effect
  EXPECT_EQ(mgr.app_count(), 0u);
}

TEST(CpuManager, ElectionRespectsMachineSize) {
  CpuManager mgr(cfg());
  mgr.connect("a", 2);
  mgr.connect("b", 2);
  mgr.connect("c", 1);
  const auto r = mgr.schedule_quantum(2);
  int used = 0;
  for (int id : r.elected) used += mgr.app(id).nthreads;
  EXPECT_LE(used, 2);
}

TEST(CpuManager, PairsHighBandwidthAppWithLowBandwidthMicrobenchmarks) {
  // The paper's set-B behaviour: a high-bandwidth app is paired with nBBMA
  // instances instead of its twin.
  CpuManager mgr(cfg());
  const int a1 = mgr.connect("app1", 2);
  const int a2 = mgr.connect("app2", 2);
  const int n1 = mgr.connect("nbbma1", 1);
  const int n2 = mgr.connect("nbbma2", 1);

  // Seed observed statistics: apps at 11.5 trans/µs per thread (CG-class,
  // demand-side), microbenchmarks at ~0.
  auto seed = [&](int id, double rate) {
    // Run a fake quantum where only `id` is treated as running.
    while (mgr.running().empty() ||
           std::find(mgr.running().begin(), mgr.running().end(), id) ==
               mgr.running().end()) {
      mgr.schedule_quantum(4);
      for (int rid : mgr.running()) {
        const double r = rid == a1 || rid == a2 ? 11.5 : 0.002;
        (void)rate;
        mgr.record_sample(
            rid, r * 200'000.0 * mgr.app(rid).nthreads);
      }
    }
  };
  seed(a1, 11.5);
  seed(a2, 11.5);
  seed(n1, 0.002);
  seed(n2, 0.002);

  // Drive to steady state and inspect a quantum whose head is an app.
  bool saw_app_with_nbbma = false;
  for (int q = 0; q < 12; ++q) {
    const auto r = mgr.schedule_quantum(4);
    for (int rid : r.elected) {
      const double rate = (rid == a1 || rid == a2) ? 11.5 : 0.002;
      mgr.record_sample(rid, rate * 200'000.0 * mgr.app(rid).nthreads);
    }
    const bool has_a1 = std::find(r.elected.begin(), r.elected.end(), a1) !=
                        r.elected.end();
    const bool has_a2 = std::find(r.elected.begin(), r.elected.end(), a2) !=
                        r.elected.end();
    const bool has_nb = std::find(r.elected.begin(), r.elected.end(), n1) !=
                            r.elected.end() ||
                        std::find(r.elected.begin(), r.elected.end(), n2) !=
                            r.elected.end();
    if ((has_a1 || has_a2) && has_nb && !(has_a1 && has_a2)) {
      saw_app_with_nbbma = true;
    }
    // The twins must not saturate the bus together once observed.
    EXPECT_FALSE(has_a1 && has_a2)
        << "quantum " << q << ": twin instances co-scheduled";
  }
  EXPECT_TRUE(saw_app_with_nbbma);
}

}  // namespace
}  // namespace bbsched::core

namespace bbsched::core {
namespace {

TEST(BandwidthTracker, EwmaTracksAndSmooths) {
  BandwidthTracker t(1, 5, /*ewma_alpha=*/0.5);
  for (int i = 0; i < 6; ++i) {
    t.record_sample(10'000.0);
    t.end_quantum(1000.0);
  }
  EXPECT_NEAR(t.ewma_per_thread(), 10.0, 0.5);
  t.record_sample(60'000.0);  // burst
  t.end_quantum(1000.0);
  // EWMA reacts (alpha weight) but does not jump to the burst value.
  EXPECT_GT(t.ewma_per_thread(), 10.0);
  EXPECT_LT(t.ewma_per_thread(), 40.0);
}

TEST(CpuManager, ExponentialPolicyEstimates) {
  ManagerConfig c;
  c.policy = PolicyKind::kExponential;
  c.ewma_alpha = 0.5;
  CpuManager mgr(c);
  const int id = mgr.connect("a", 1);
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(id), c.initial_estimate_tps);
  for (double rate : {4.0, 8.0}) {
    mgr.schedule_quantum(4);
    mgr.record_sample(id, rate * 200'000.0);
  }
  mgr.schedule_quantum(4);
  // EWMA of 4 then 8 with alpha .5: 4 -> 6.
  EXPECT_NEAR(mgr.policy_estimate(id), 6.0, 1e-9);
}

TEST(PolicyKindNames, AllNamed) {
  EXPECT_STREQ(to_string(PolicyKind::kLatestQuantum), "latest-quantum");
  EXPECT_STREQ(to_string(PolicyKind::kQuantaWindow), "quanta-window");
  EXPECT_STREQ(to_string(PolicyKind::kExponential), "ewma");
}

// ---- staleness policy / degraded mode (docs/ROBUSTNESS.md) ----

/// Config with a short staleness ladder so tests walk it in few quanta.
ManagerConfig staleness_cfg() {
  ManagerConfig c;
  c.policy = PolicyKind::kLatestQuantum;
  c.quantum_us = 200'000;
  c.staleness.hold_quanta = 1;
  c.staleness.decay_factor = 0.5;
  c.staleness.quarantine_after = 4;
  c.staleness.dead_feed_quanta = 2;
  return c;
}

TEST(StalenessPolicy, HoldThenDecayThenQuarantine) {
  const ManagerConfig c = staleness_cfg();
  CpuManager mgr(c);
  const int live = mgr.connect("live", 1);
  const int silent = mgr.connect("silent", 1);

  std::uint64_t now = 0;
  auto advance = [&] {
    now += c.quantum_us;
    mgr.schedule_quantum(4, now);
  };

  // Quantum 1: both feeds deliver; 'silent' measures 4.0 BBW/thread.
  mgr.schedule_quantum(4, now);
  mgr.record_sample(live, 2.0 * 200'000.0, now);
  mgr.record_sample(silent, 4.0 * 200'000.0, now);
  advance();
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(silent), 4.0);
  EXPECT_EQ(mgr.feed_state(silent), obs::DegradationState::kLive);

  // Miss 1 (== hold_quanta): the last-good estimate is held unchanged.
  mgr.record_sample(live, 2.0 * 200'000.0, now);
  advance();
  EXPECT_EQ(mgr.feed_state(silent), obs::DegradationState::kHolding);
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(silent), 4.0);

  // Miss 2: decay begins, geometric toward the initial estimate.
  mgr.record_sample(live, 2.0 * 200'000.0, now);
  advance();
  EXPECT_EQ(mgr.feed_state(silent), obs::DegradationState::kDecaying);
  const double initial = c.initial_estimate_tps;
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(silent),
                   initial + (4.0 - initial) * 0.5);

  // Miss 3: another decay step.
  mgr.record_sample(live, 2.0 * 200'000.0, now);
  advance();
  const double step2 = initial + (initial + (4.0 - initial) * 0.5 - initial) * 0.5;
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(silent), step2);

  // Miss 4 (== quarantine_after): written off to the initial estimate.
  mgr.record_sample(live, 2.0 * 200'000.0, now);
  advance();
  EXPECT_EQ(mgr.feed_state(silent), obs::DegradationState::kQuarantined);
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(silent), initial);

  // One fresh sample fully revives the feed.
  mgr.record_sample(live, 2.0 * 200'000.0, now);
  mgr.record_sample(silent, 6.0 * 200'000.0, now);
  advance();
  EXPECT_EQ(mgr.feed_state(silent), obs::DegradationState::kLive);
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(silent), 6.0);
}

TEST(StalenessPolicy, AllFeedsDeadFallsBackToRoundRobin) {
  const ManagerConfig c = staleness_cfg();
  CpuManager mgr(c);
  const int a = mgr.connect("a", 1);
  const int b = mgr.connect("b", 1);
  const int d = mgr.connect("c", 1);

  std::uint64_t now = 0;
  auto advance = [&] {
    now += c.quantum_us;
    return mgr.schedule_quantum(1, now);  // 1 proc: one app per quantum
  };

  advance();  // first election; nothing ran before it
  EXPECT_FALSE(mgr.degraded());
  advance();  // dead full quantum 1
  advance();  // dead full quantum 2 == dead_feed_quanta
  EXPECT_TRUE(mgr.degraded());

  // Degraded elections are round-robin: over the next three quanta every
  // application gets a turn (head first-fit + post-election rotation).
  std::set<int> elected;
  for (int i = 0; i < 3; ++i) {
    const ElectionResult r = advance();
    ASSERT_EQ(r.elected.size(), 1u);
    elected.insert(r.elected[0]);
  }
  EXPECT_EQ(elected, (std::set<int>{a, b, d}));

  // Any live sample ends the fallback.
  mgr.record_sample(mgr.running().front(), 1000.0, now);
  advance();
  EXPECT_FALSE(mgr.degraded());
}

TEST(StalenessPolicy, MidQuantumElectionDoesNotAdvanceLadder) {
  const ManagerConfig c = staleness_cfg();
  CpuManager mgr(c);
  const int id = mgr.connect("a", 1);

  std::uint64_t now = 0;
  mgr.schedule_quantum(4, now);
  now += c.quantum_us;
  mgr.record_sample(id, 4.0 * 200'000.0, now);
  mgr.schedule_quantum(4, now);
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(id), 4.0);

  // A re-election a few µs later (mid-quantum, e.g. a job disconnected)
  // folds like the pre-hardening manager — zero pending transactions push a
  // zero rate — but must NOT count as a missed quantum.
  now += 10;
  mgr.schedule_quantum(4, now);
  EXPECT_EQ(mgr.feed_state(id), obs::DegradationState::kLive);
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(id), 0.0);
  EXPECT_FALSE(mgr.degraded());
}

TEST(StalenessPolicy, RecordSampleValidatesInput) {
  ManagerConfig c = staleness_cfg();
  c.staleness.max_sample_factor = 8.0;  // cap = 8 * 29.5 * 200000
  CpuManager mgr(c);
  obs::MetricsRegistry metrics;
  mgr.set_metrics(&metrics);
  const int id = mgr.connect("a", 1);

  std::uint64_t now = 0;
  mgr.schedule_quantum(4, now);

  // Non-finite: rejected outright (counts as a missed sample downstream).
  now += c.quantum_us;
  mgr.record_sample(id, std::nan(""), now);
  EXPECT_DOUBLE_EQ(metrics.counter("manager.faults.invalid_samples").value(),
                   1.0);
  // Negative (wraparound): clamped to zero traffic.
  mgr.record_sample(id, -5000.0, now);
  EXPECT_DOUBLE_EQ(metrics.counter("manager.faults.negative_deltas").value(),
                   1.0);
  mgr.schedule_quantum(4, now);
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(id), 0.0);

  // Implausibly large: clamped to the staleness ceiling.
  now += c.quantum_us;
  mgr.record_sample(id, 1e12, now);
  mgr.schedule_quantum(4, now);
  EXPECT_DOUBLE_EQ(metrics.counter("manager.faults.clamped_samples").value(),
                   1.0);
  const double cap_rate = 8.0 * 29.5;  // cap / quantum_us, 1 thread
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(id), cap_rate);
}

TEST(StalenessPolicy, MissedQuantaAreCountedAndTraced) {
  const ManagerConfig c = staleness_cfg();
  CpuManager mgr(c);
  obs::MetricsRegistry metrics;
  obs::Tracer tracer(obs::TracerConfig{true, 1024});
  mgr.set_metrics(&metrics);
  mgr.set_tracer(&tracer);
  mgr.connect("a", 1);

  std::uint64_t now = 0;
  for (int i = 0; i < 6; ++i) {
    now += c.quantum_us;
    mgr.schedule_quantum(4, now);
  }
  // 5 running-but-silent quanta (the first election had nothing running).
  EXPECT_DOUBLE_EQ(metrics.counter("manager.faults.missed_quanta").value(),
                   5.0);
  EXPECT_DOUBLE_EQ(metrics.counter("manager.faults.quarantines").value(), 1.0);
  EXPECT_GT(metrics.counter("manager.degraded_elections").value(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("manager.degradation_state").value(), 1.0);

  int fault_events = 0, degradation_events = 0;
  tracer.events().for_each([&](const obs::TraceEvent& e) {
    if (e.type == obs::EventType::kFault) ++fault_events;
    if (e.type == obs::EventType::kDegradationChange) ++degradation_events;
  });
  EXPECT_EQ(fault_events, 5);
  EXPECT_GE(degradation_events, 3);  // hold, decay, quarantine, round-robin
}

// Ladder edge: every feed walks the ladder in lockstep, so all of them
// quarantine in the SAME quantum; a single fresh sample later must lift the
// manager out of round-robin within one quantum, and the trace's
// DegradationChange events must pair up (manager enter/exit, per-feed
// transitions chaining live → ... → quarantined → live).
TEST(StalenessPolicy, LockstepQuarantineAndSingleQuantumRecovery) {
  const ManagerConfig c = staleness_cfg();
  CpuManager mgr(c);
  obs::Tracer tracer(obs::TracerConfig{true, 1024});
  mgr.set_tracer(&tracer);
  const int a = mgr.connect("a", 1);
  const int b = mgr.connect("b", 1);
  const int d = mgr.connect("c", 1);

  std::uint64_t now = 0;
  auto advance = [&] {
    now += c.quantum_us;
    mgr.schedule_quantum(4, now);  // 4 procs: all three run every quantum
  };

  // Quantum 1: every feed delivers.
  mgr.schedule_quantum(4, now);
  for (int id : {a, b, d}) mgr.record_sample(id, 4.0 * 200'000.0, now);
  advance();
  for (int id : {a, b, d}) {
    EXPECT_EQ(mgr.feed_state(id), obs::DegradationState::kLive);
  }

  // Then total silence: the feeds advance in lockstep. After
  // dead_feed_quanta=2 full-miss quanta the manager degrades; at
  // quarantine_after=4 misses all three feeds quarantine together.
  advance();  // miss 1 — hold
  EXPECT_FALSE(mgr.degraded());
  advance();  // miss 2 — decay; dead quanta reaches 2 → round-robin
  EXPECT_TRUE(mgr.degraded());
  advance();  // miss 3 — decay
  advance();  // miss 4 — quarantine, all in this same quantum
  for (int id : {a, b, d}) {
    EXPECT_EQ(mgr.feed_state(id), obs::DegradationState::kQuarantined);
  }
  EXPECT_TRUE(mgr.degraded());

  // One feed revives. Degraded first-fit still runs all three (4 procs),
  // so the next boundary folds the fresh sample and must exit round-robin
  // in exactly one quantum — with the other two still quarantined.
  mgr.record_sample(a, 6.0 * 200'000.0, now);
  advance();
  EXPECT_FALSE(mgr.degraded());
  EXPECT_EQ(mgr.feed_state(a), obs::DegradationState::kLive);
  EXPECT_EQ(mgr.feed_state(b), obs::DegradationState::kQuarantined);
  EXPECT_EQ(mgr.feed_state(d), obs::DegradationState::kQuarantined);
  EXPECT_DOUBLE_EQ(mgr.policy_estimate(a), 6.0);

  // Trace audit. Manager-wide events (app_id == -1) must be a matched
  // enter/exit pair; the quarantine transitions of all feeds must share one
  // timestamp; each feed's transitions must chain (from == previous to).
  std::vector<obs::DegradationPayload> manager_events;
  std::vector<std::uint64_t> quarantine_ts;
  std::map<int, std::vector<obs::DegradationPayload>> feed_events;
  tracer.events().for_each([&](const obs::TraceEvent& e) {
    if (e.type != obs::EventType::kDegradationChange) return;
    if (e.degradation.app_id == -1) {
      manager_events.push_back(e.degradation);
    } else {
      feed_events[e.degradation.app_id].push_back(e.degradation);
      if (e.degradation.to == obs::DegradationState::kQuarantined) {
        quarantine_ts.push_back(e.time_us);
      }
    }
  });

  ASSERT_EQ(manager_events.size(), 2u);
  EXPECT_EQ(manager_events[0].from, obs::DegradationState::kLive);
  EXPECT_EQ(manager_events[0].to, obs::DegradationState::kRoundRobin);
  EXPECT_EQ(manager_events[1].from, obs::DegradationState::kRoundRobin);
  EXPECT_EQ(manager_events[1].to, obs::DegradationState::kLive);

  ASSERT_EQ(quarantine_ts.size(), 3u);
  EXPECT_EQ(quarantine_ts[0], quarantine_ts[1]);
  EXPECT_EQ(quarantine_ts[1], quarantine_ts[2]);

  for (const auto& [id, events] : feed_events) {
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().from, obs::DegradationState::kLive);
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_EQ(events[i].from, events[i - 1].to) << "feed " << id;
    }
    EXPECT_EQ(events.back().to, id == a
                                    ? obs::DegradationState::kLive
                                    : obs::DegradationState::kQuarantined);
  }
}

}  // namespace
}  // namespace bbsched::core
