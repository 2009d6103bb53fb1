// Failure-injection and concurrency stress tests for the elasticity
// machinery: rapid repeated tuning, concurrent tuning from multiple
// threads, aborts racing DOP switches, and end-to-end exactness under
// all of it. Row counts must stay exact no matter what the dynamic
// scheduler is doing — the engine's core invariant.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/fault_injector.h"
#include "plan/builder.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

constexpr double kSf = 0.01;

AccordionCluster::Options StressOptions(double scale) {
  AccordionCluster::Options options;
  options.num_workers = 4;
  options.num_storage_nodes = 4;
  options.scale_factor = kSf;
  options.engine.cost.scale = scale;
  options.engine.rpc_latency_ms = 0;
  options.engine.memory.initial_buffer_bytes = 2048;
  options.engine.memory.max_buffer_bytes = 16 * 1024;
  return options;
}

int64_t ExactLineitemRows() {
  TpchSplitGenerator gen("lineitem", kSf, 0, 1, 4096);
  return gen.TotalRows();
}

int64_t SingleInt(const std::vector<PagePtr>& pages) {
  for (const auto& p : pages) {
    if (p->num_rows() > 0) return p->column(0).IntAt(0);
  }
  return -1;
}

TEST(StressTest, RapidRepeatedStageTuningStaysExact) {
  AccordionCluster cluster(StressOptions(0.8));
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto rel = b.Scan("lineitem", {"l_orderkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "l_orderkey", "cnt"}});
  auto id = cluster.coordinator()->Submit(b.Output(rel));
  ASSERT_TRUE(id.ok());

  // Oscillate the scan stage DOP as fast as the coordinator allows.
  for (int round = 0; round < 6; ++round) {
    SleepForMillis(120);
    if (cluster.coordinator()->IsFinished(*id)) break;
    (void)cluster.coordinator()->SetStageDop(*id, 1, round % 2 == 0 ? 4 : 1);
  }
  auto result = cluster.coordinator()->Wait(*id, 180000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows());
}

TEST(StressTest, RepeatedDopSwitchesStayExact) {
  AccordionCluster cluster(StressOptions(1.2));
  QueryOptions qopts;
  qopts.stage_dop = 2;
  auto id = cluster.coordinator()->Submit(
      TpchQ2JPlan(cluster.coordinator()->catalog()), qopts);
  ASSERT_TRUE(id.ok());

  // Multiple back-to-back partitioned-join switches, both up and down.
  for (int dop : {4, 3, 6, 2}) {
    SleepForMillis(300);
    if (cluster.coordinator()->IsFinished(*id)) break;
    (void)cluster.coordinator()->SetStageDop(*id, 1, dop);
  }
  auto result = cluster.coordinator()->Wait(*id, 300000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows());
}

TEST(StressTest, ConcurrentTunersDoNotCorruptResults) {
  AccordionCluster cluster(StressOptions(1.0));
  QueryOptions qopts;
  qopts.stage_dop = 2;
  auto id = cluster.coordinator()->Submit(
      TpchQ2JPlan(cluster.coordinator()->catalog()), qopts);
  ASSERT_TRUE(id.ok());

  // Three threads fire tuning requests at different stages concurrently;
  // the coordinator's control mutex must serialize them safely.
  std::atomic<bool> stop{false};
  std::vector<std::thread> tuners;
  tuners.emplace_back([&] {
    int dop = 2;
    while (!stop.load()) {
      (void)cluster.coordinator()->SetStageDop(*id, 1, (dop++ % 4) + 2);
      SleepForMillis(150);
    }
  });
  tuners.emplace_back([&] {
    int dop = 1;
    while (!stop.load()) {
      (void)cluster.coordinator()->SetStageDop(*id, 2, (dop++ % 3) + 1);
      SleepForMillis(180);
    }
  });
  tuners.emplace_back([&] {
    int dop = 1;
    while (!stop.load()) {
      (void)cluster.coordinator()->SetTaskDop(*id, 2, (dop++ % 3) + 1);
      SleepForMillis(110);
    }
  });

  auto result = cluster.coordinator()->Wait(*id, 300000);
  stop = true;
  for (auto& t : tuners) t.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows());
}

TEST(StressTest, AbortDuringDopSwitchShutsDownCleanly) {
  AccordionCluster cluster(StressOptions(2.0));
  QueryOptions qopts;
  qopts.stage_dop = 2;
  auto id = cluster.coordinator()->Submit(
      TpchQ2JPlan(cluster.coordinator()->catalog()), qopts);
  ASSERT_TRUE(id.ok());

  std::thread switcher([&] {
    SleepForMillis(200);
    (void)cluster.coordinator()->SetStageDop(*id, 1, 6);
  });
  SleepForMillis(350);  // land inside the switch window
  ASSERT_TRUE(cluster.coordinator()->Abort(*id).ok());
  switcher.join();
  auto result = cluster.coordinator()->Wait(*id, 60000);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(cluster.coordinator()->IsFinished(*id));
  // Cluster destruction (joins every driver thread) must not hang; the
  // test completing is the assertion.
}

TEST(StressTest, ManyConcurrentQueries) {
  AccordionCluster cluster(StressOptions(0.1));
  std::vector<std::string> ids;
  for (int q = 0; q < 6; ++q) {
    auto id = cluster.coordinator()->Submit(
        TpchQ2JPlan(cluster.coordinator()->catalog()));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (const auto& id : ids) {
    auto result = cluster.coordinator()->Wait(id, 300000);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(SingleInt(*result), ExactLineitemRows());
  }
}

// Fault-sweep mode: the elasticity machinery (rapid stage retuning) and
// the fault machinery (transient errors + dropped data-plane responses)
// active at once, across several seeds. Tuning RPCs may individually
// fail and are (void)'d — but the row count must stay exact: retries and
// sequence-resumed fetches may never duplicate or drop a page.
TEST(StressTest, FaultSweepTuningStaysExact) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    FaultInjector injector(seed);
    FaultPolicy transient;
    transient.kind = FaultKind::kTransientError;
    transient.probability = 0.03;
    injector.AddPolicy("rpc.", transient);
    FaultPolicy drop;
    drop.kind = FaultKind::kDropResponse;
    drop.probability = 0.03;
    injector.AddPolicy("rpc.GetPages", drop);

    AccordionCluster::Options options = StressOptions(0.8);
    options.engine.fault_injector = &injector;
    // Sized for the injected fault rate (see tests/chaos_test.cc): keeps
    // consecutive-fault retry exhaustion a ~1e-9 tail event even on
    // sanitizer-slowed runs that issue thousands of fetches.
    options.engine.rpc_retry.max_attempts = 10;
    options.engine.rpc_retry.attempt_deadline_ms = 10000;
    AccordionCluster cluster(options);
    Catalog catalog = MakeTpchCatalog(kSf, 4);
    PlanBuilder b(&catalog);
    auto rel = b.Scan("lineitem", {"l_orderkey"});
    rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "l_orderkey", "cnt"}});
    auto id = cluster.coordinator()->Submit(b.Output(rel));
    ASSERT_TRUE(id.ok()) << "seed=" << seed << ": " << id.status().ToString();

    for (int round = 0; round < 4; ++round) {
      SleepForMillis(120);
      if (cluster.coordinator()->IsFinished(*id)) break;
      (void)cluster.coordinator()->SetStageDop(*id, 1, round % 2 == 0 ? 4 : 1);
    }
    auto result = cluster.coordinator()->Wait(*id, 180000);
    ASSERT_TRUE(result.ok())
        << "seed=" << seed << ": " << result.status().ToString();
    EXPECT_EQ(SingleInt(*result), ExactLineitemRows()) << "seed=" << seed;
  }
}

TEST(StressTest, TuningUnknownStageOrQueryFailsGracefully) {
  AccordionCluster cluster(StressOptions(0));
  auto id = cluster.coordinator()->Submit(
      TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(cluster.coordinator()->SetStageDop("ghost", 1, 2).ok());
  EXPECT_FALSE(cluster.coordinator()->SetStageDop(*id, 99, 2).ok());
  EXPECT_FALSE(cluster.coordinator()->SetTaskDop(*id, 99, 2).ok());
  EXPECT_FALSE(cluster.coordinator()->SetStageDop(*id, 1, 0).ok());
  (void)cluster.coordinator()->Wait(*id, 120000);
}

}  // namespace
}  // namespace accordion
