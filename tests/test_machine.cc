// Machine / placement bookkeeping tests.
#include <gtest/gtest.h>

#include <memory>

#include "sim/machine.h"

namespace bbsched::sim {
namespace {

JobSpec spec2(const std::string& name, int nthreads = 2) {
  JobSpec s;
  s.name = name;
  s.nthreads = nthreads;
  s.work_us = 1000.0;
  s.demand = std::make_shared<SteadyDemand>(1.0);
  return s;
}

TEST(Machine, AddJobCreatesThreads) {
  Machine m(MachineConfig{});
  const int a = m.add_job(spec2("a", 2));
  const int b = m.add_job(spec2("b", 3));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(m.store().size(), 5u);
  EXPECT_EQ(m.job(a).thread_ids.size(), 2u);
  EXPECT_EQ(m.job(b).thread_ids.size(), 3u);
  // Threads know their owner and index.
  EXPECT_EQ(m.store().app_id[2], b);
  EXPECT_EQ(m.store().tidx[2], 0);
  EXPECT_EQ(m.store().tidx[4], 2);
}

TEST(Machine, PlaceAndVacate) {
  Machine m(MachineConfig{});
  m.add_job(spec2("a"));
  m.place(1, 0);
  EXPECT_EQ(m.cpus()[1].thread, 0);
  EXPECT_EQ(m.cpu_of(0), 1);
  m.vacate(1);
  EXPECT_EQ(m.cpus()[1].thread, Cpu::kIdle);
  EXPECT_EQ(m.cpu_of(0), -1);
}

TEST(Machine, FirstPlacementIsNotAMigration) {
  Machine m(MachineConfig{});
  m.add_job(spec2("a"));
  m.place(2, 0);
  EXPECT_EQ(m.store().migrations[0], 0u);
  EXPECT_EQ(m.store().last_cpu[0], 2);
}

TEST(Machine, MigrationCountsAndResetsWarmth) {
  Machine m(MachineConfig{});
  m.add_job(spec2("a"));
  m.place(0, 0);
  m.store().warmth[0] = 0.9;
  m.vacate(0);
  m.place(3, 0);  // different CPU
  EXPECT_EQ(m.store().migrations[0], 1u);
  EXPECT_DOUBLE_EQ(m.store().warmth[0], 0.0);
  EXPECT_EQ(m.store().last_cpu[0], 3);
}

TEST(Machine, RepeatPlacementOnSameCpuKeepsWarmth) {
  Machine m(MachineConfig{});
  m.add_job(spec2("a"));
  m.place(0, 0);
  m.store().warmth[0] = 0.7;
  m.vacate(0);
  m.place(0, 0);
  EXPECT_EQ(m.store().migrations[0], 0u);
  EXPECT_DOUBLE_EQ(m.store().warmth[0], 0.7);
}

TEST(Machine, VacateAllClearsEveryCpu) {
  Machine m(MachineConfig{});
  m.add_job(spec2("a", 4));
  for (int c = 0; c < 4; ++c) m.place(c, c);
  m.vacate_all();
  for (const auto& cpu : m.cpus()) EXPECT_EQ(cpu.thread, Cpu::kIdle);
}

TEST(Machine, AllFiniteJobsDone) {
  Machine m(MachineConfig{});
  const int fin = m.add_job(spec2("fin", 1));
  JobSpec inf = spec2("inf", 1);
  inf.work_us = JobSpec::kInfiniteWork;
  m.add_job(inf);
  EXPECT_FALSE(m.all_finite_jobs_done());
  m.job(fin).completed = true;
  EXPECT_TRUE(m.all_finite_jobs_done());  // infinite job is exempt
}

TEST(Machine, TransactionAggregation) {
  Machine m(MachineConfig{});
  const int a = m.add_job(spec2("a", 2));
  m.store().bus_transactions[0] = 100.0;
  m.store().bus_transactions[1] = 50.0;
  m.store().bus_attempts[0] = 130.0;
  m.store().bus_attempts[1] = 60.0;
  EXPECT_DOUBLE_EQ(m.job_bus_transactions(m.job(a)), 150.0);
  EXPECT_DOUBLE_EQ(m.job_bus_attempts(m.job(a)), 190.0);
}

#ifndef NDEBUG
TEST(MachineDeath, DoublePlacementAsserts) {
  Machine m(MachineConfig{});
  m.add_job(spec2("a"));
  m.place(0, 0);
  EXPECT_DEATH(m.place(1, 0), "already placed");
}
#endif

}  // namespace
}  // namespace bbsched::sim
