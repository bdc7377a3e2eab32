// Observability layer: ring buffer semantics, tracer gating, exporter
// well-formedness (validated with the in-tree JSON parser), metrics
// round-trips and the election audit records.
#include <gtest/gtest.h>

#include <sstream>

#include "core/election.h"
#include "experiments/runner.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/ring_buffer.h"
#include "obs/tracer.h"
#include "workload/workload.h"

namespace bbsched {
namespace {

// ---- ring buffer ----------------------------------------------------------

TEST(RingBuffer, FillsThenOverwritesOldest) {
  obs::RingBuffer<int> ring(4);
  EXPECT_EQ(ring.size(), 0u);
  for (int i = 0; i < 4; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring[0], 0);
  EXPECT_EQ(ring[3], 3);

  // Two more: 0 and 1 fall out, order stays oldest-first.
  ring.push(4);
  ring.push(5);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total_pushed(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring[0], 2);
  EXPECT_EQ(ring[1], 3);
  EXPECT_EQ(ring[2], 4);
  EXPECT_EQ(ring[3], 5);
}

TEST(RingBuffer, WrapsManyTimesAndForEachMatchesIndexing) {
  obs::RingBuffer<int> ring(8);
  for (int i = 0; i < 1000; ++i) ring.push(i);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 992u);
  std::vector<int> seen;
  ring.for_each([&](const int& v) { seen.push_back(v); });
  ASSERT_EQ(seen.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(seen[i], 992 + static_cast<int>(i));
    EXPECT_EQ(ring[i], seen[i]);
  }
}

TEST(RingBuffer, ClearResetsContentsButKeepsCapacity) {
  obs::RingBuffer<int> ring(4);
  for (int i = 0; i < 10; ++i) ring.push(i);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 4u);
  ring.push(42);
  EXPECT_EQ(ring[0], 42);
}

// ---- tracer gating --------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing) {
  obs::Tracer tracer({.enabled = false, .capacity = 16});
  tracer.bus_resolution(1, {});
  tracer.quantum_start(2, {});
  tracer.election_decision(3, {});
  tracer.job_state_change(4, {});
  tracer.counter_sample(5, {});
  EXPECT_EQ(tracer.events().size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, OnlyAnEnabledTracerHoldsItsRing) {
  obs::Tracer off;
  EXPECT_EQ(off.events().capacity(), 1u);
  off.quantum_start(1, {});
  EXPECT_TRUE(off.events().empty());
  const obs::Tracer on({.enabled = true});
  EXPECT_EQ(on.events().capacity(), obs::TracerConfig{}.capacity);
}

TEST(Tracer, EnabledRecordsTypedEventsInOrder) {
  obs::Tracer tracer({.enabled = true, .capacity = 16});
  tracer.quantum_start(100, {.index = 7, .nprocs = 4, .candidates = 3});
  tracer.bus_resolution(150, {.utilization = 0.5});
  ASSERT_EQ(tracer.events().size(), 2u);
  const auto& q = tracer.events()[0];
  EXPECT_EQ(q.time_us, 100u);
  EXPECT_EQ(q.type, obs::EventType::kQuantumStart);
  EXPECT_EQ(q.quantum_start.index, 7u);
  EXPECT_EQ(tracer.events()[1].type, obs::EventType::kBusResolution);
  EXPECT_DOUBLE_EQ(tracer.events()[1].bus.utilization, 0.5);
}

TEST(Tracer, RingWraparoundKeepsNewestEvents) {
  obs::Tracer tracer({.enabled = true, .capacity = 4});
  for (std::uint64_t t = 0; t < 10; ++t) tracer.bus_resolution(t, {});
  EXPECT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.events()[0].time_us, 6u);
  EXPECT_EQ(tracer.events()[3].time_us, 9u);
}

// ---- JSON parser ----------------------------------------------------------

TEST(Json, ParsesDocumentsAndReportsErrors) {
  obs::json::Value v;
  ASSERT_TRUE(obs::json::parse(
      R"({"a": [1, 2.5, -3e2], "s": "x\n\"y\"", "b": true, "n": null})", v));
  ASSERT_TRUE(v.is_object());
  const auto* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  EXPECT_EQ(v.find("s")->string, "x\n\"y\"");
  EXPECT_TRUE(v.find("b")->boolean);

  std::string err;
  EXPECT_FALSE(obs::json::parse("{\"a\": }", v, &err));
  EXPECT_NE(err.find("offset"), std::string::npos);
  EXPECT_FALSE(obs::json::parse("[1, 2", v, &err));
  EXPECT_FALSE(obs::json::parse("", v, &err));
}

// ---- exporters ------------------------------------------------------------

/// A small real traced run shared by the exporter tests.
obs::Tracer traced_run() {
  obs::Tracer tracer({.enabled = true});
  experiments::ExperimentConfig cfg;
  cfg.time_scale = 0.02;
  cfg.tracer = &tracer;
  const auto w = workload::fig2_saturated(
      workload::paper_application("SP"), cfg.machine.bus);
  auto engine = experiments::make_engine(
      w, experiments::SchedulerKind::kLatestQuantum, cfg);
  (void)engine->run();
  return tracer;
}

TEST(Export, ChromeTraceIsWellFormedAndCoversQuanta) {
  const obs::Tracer tracer = traced_run();
  ASSERT_GT(tracer.events().size(), 0u);

  std::ostringstream os;
  obs::write_chrome_trace(os, tracer);
  obs::json::Value doc;
  std::string err;
  ASSERT_TRUE(obs::json::parse(os.str(), doc, &err)) << err;

  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::size_t quanta = 0, elections = 0, bus = 0;
  for (const auto& e : events->array) {
    const std::string name = e.string_or("name", "");
    if (name == "QuantumStart") ++quanta;
    if (name == "ElectionDecision") ++elections;
    if (name == "BusResolution") {
      ++bus;
      EXPECT_EQ(e.string_or("ph", ""), "C");  // counter track
      ASSERT_NE(e.find("args"), nullptr);
      EXPECT_NE(e.find("args")->find("utilization"), nullptr);
    }
  }
  EXPECT_GT(quanta, 0u);
  EXPECT_GE(elections, quanta);  // >= one decision record per election
  EXPECT_GT(bus, 0u);
}

TEST(Export, JsonlEveryLineParsesAndRoundTripsFields) {
  const obs::Tracer tracer = traced_run();
  std::ostringstream os;
  obs::write_jsonl(os, tracer);
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0, elections = 0;
  while (std::getline(in, line)) {
    obs::json::Value v;
    std::string err;
    ASSERT_TRUE(obs::json::parse(line, v, &err)) << "line " << lines + 1
                                                 << ": " << err;
    ASSERT_TRUE(v.is_object());
    ASSERT_NE(v.find("t"), nullptr);
    if (v.string_or("type", "") == "ElectionDecision") {
      ++elections;
      EXPECT_NE(v.find("score"), nullptr);
      EXPECT_NE(v.find("elected"), nullptr);
    }
    ++lines;
  }
  EXPECT_EQ(lines, tracer.events().size());
  EXPECT_GT(elections, 0u);
}

// ---- metrics --------------------------------------------------------------

TEST(Metrics, SnapshotRoundTripsThroughJson) {
  obs::MetricsRegistry reg;
  reg.counter("ticks").inc(12345);
  reg.counter("ticks").inc(0.5);
  reg.gauge("utilization").set(0.97531);
  auto& h = reg.histogram("stretch", {1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket <= 1.0
  h.observe(3.0);   // bucket <= 4.0
  h.observe(100.0);  // overflow bucket

  std::ostringstream os;
  reg.write_json(os);
  obs::json::Value doc;
  std::string err;
  ASSERT_TRUE(obs::json::parse(os.str(), doc, &err)) << err;

  EXPECT_DOUBLE_EQ(doc.find("counters")->number_or("ticks", 0), 12345.5);
  EXPECT_DOUBLE_EQ(doc.find("gauges")->number_or("utilization", 0), 0.97531);
  const auto* hist = doc.find("histograms")->find("stretch");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->find("counts")->array.size(), 4u);  // 3 bounds + overflow
  EXPECT_DOUBLE_EQ(hist->find("counts")->array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(hist->find("counts")->array[2].number, 1.0);
  EXPECT_DOUBLE_EQ(hist->find("counts")->array[3].number, 1.0);
  EXPECT_DOUBLE_EQ(hist->number_or("count", 0), 3.0);
  EXPECT_DOUBLE_EQ(hist->number_or("sum", 0), 103.5);
}

TEST(Metrics, InstrumentsAreStableAcrossRegistryGrowth) {
  obs::MetricsRegistry reg;
  auto& first = reg.counter("a");
  for (int i = 0; i < 100; ++i) {
    reg.counter("c" + std::to_string(i)).inc();
  }
  first.inc(7);  // pointer must still be valid after 100 insertions
  EXPECT_DOUBLE_EQ(reg.counter("a").value(), 7.0);
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
}

// ---- election audit -------------------------------------------------------

TEST(ElectionAudit, RecordsEveryCandidateAndAllocationOrder) {
  // 4 procs, head-default takes 2, fitness round picks the best match of
  // the remaining three candidates for the last 2 procs.
  const std::vector<core::Candidate> cands = {
      {.app_id = 10, .nthreads = 2, .bbw_per_thread = 5.0},
      {.app_id = 11, .nthreads = 2, .bbw_per_thread = 9.0},
      {.app_id = 12, .nthreads = 2, .bbw_per_thread = 2.0},
      {.app_id = 13, .nthreads = 4, .bbw_per_thread = 1.0},  // doesn't fit
  };
  std::vector<core::CandidateDecision> audit;
  const auto result = core::elect(cands, 4, 29.5,
                                  core::ElectionRule::kFitness, &audit);

  ASSERT_EQ(audit.size(), cands.size());
  // Head-of-list default allocation.
  EXPECT_EQ(audit[0].app_id, 10);
  EXPECT_TRUE(audit[0].elected);
  EXPECT_TRUE(audit[0].head_default);
  EXPECT_EQ(audit[0].alloc_order, 0);
  // Everyone that was scored carries a positive score.
  EXPECT_GT(audit[1].score, 0.0);
  EXPECT_GT(audit[2].score, 0.0);
  // The 4-thread candidate never fits on the 2 remaining procs.
  EXPECT_FALSE(audit[3].elected);
  EXPECT_EQ(audit[3].alloc_order, -1);

  // Exactly one fitness winner, and the audit agrees with the result.
  int elected_count = 0;
  for (const auto& d : audit) {
    if (d.elected) ++elected_count;
  }
  EXPECT_EQ(static_cast<std::size_t>(elected_count), result.elected.size());
  for (std::size_t i = 0; i < result.elected.size(); ++i) {
    for (const auto& d : audit) {
      if (d.app_id == result.elected[i]) {
        EXPECT_EQ(d.alloc_order, static_cast<int>(i));
      }
    }
  }

  // Audit is optional: the same election without it returns the same picks.
  const auto bare = core::elect(cands, 4, 29.5);
  EXPECT_EQ(bare.elected, result.elected);
}

}  // namespace
}  // namespace bbsched
