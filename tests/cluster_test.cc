#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/session.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "plan/builder.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"
#include "tuner/auto_tuner.h"

namespace accordion {
namespace {

constexpr double kSf = 0.01;

AccordionCluster::Options FastOptions() {
  AccordionCluster::Options options;
  options.num_workers = 4;
  options.num_storage_nodes = 4;
  options.scale_factor = kSf;
  options.engine.cost.scale = 0;    // no simulated compute time
  options.engine.rpc_latency_ms = 0;  // no simulated network latency
  return options;
}

/// Two workers and two storage nodes: the shape of the Pacer tests.
AccordionCluster::Options SmallOptions() {
  AccordionCluster::Options options = FastOptions();
  options.num_workers = 2;
  options.num_storage_nodes = 2;
  return options;
}

/// Runs TPC-H Q6 from its SQL text, waiting up to `timeout_ms`; a query
/// still running at the deadline is aborted.
Result<std::vector<PagePtr>> RunQ6(AccordionCluster* cluster,
                                   int64_t timeout_ms) {
  Session session(cluster->coordinator());
  auto query = session.Execute(TpchQuerySql(6));
  if (!query.ok()) return query.status();
  auto result = (*query)->Wait(timeout_ms);
  if (!result.ok()) (void)(*query)->Abort();
  return result;
}

/// Q6's single revenue cell.
double Q6Revenue(const std::vector<PagePtr>& pages) {
  std::vector<double> cells;
  for (const auto& p : pages) {
    for (int64_t r = 0; r < p->num_rows(); ++r) {
      cells.push_back(p->column(0).NumericAt(r));
    }
  }
  EXPECT_EQ(cells.size(), 1u);
  return cells.empty() ? -1 : cells[0];
}

int64_t ExactLineitemRows(double sf) {
  int64_t rows = 0;
  TpchSplitGenerator gen("lineitem", sf, 0, 1, 4096);
  return gen.TotalRows() + rows;
}

int64_t SingleInt(const std::vector<PagePtr>& pages) {
  int64_t total_rows = 0;
  for (const auto& p : pages) total_rows += p->num_rows();
  EXPECT_EQ(total_rows, 1);
  for (const auto& p : pages) {
    if (p->num_rows() > 0) return p->column(0).IntAt(0);
  }
  return -1;
}

TEST(ClusterTest, GlobalCountOverScan) {
  AccordionCluster cluster(FastOptions());
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto rel = b.Scan("customer", {"c_custkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "c_custkey", "cnt"}});
  auto submitted = cluster.coordinator()->Submit(b.Output(rel));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto result = cluster.coordinator()->Wait(*submitted, 60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), 1500);
}

TEST(ClusterTest, Q2JCountsEveryLineitemExactlyOnce) {
  AccordionCluster cluster(FastOptions());
  auto submitted =
      cluster.coordinator()->Submit(TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  auto result = cluster.coordinator()->Wait(*submitted, 120000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));
}

TEST(ClusterTest, Q2JWithInitialStageDop) {
  auto options = FastOptions();
  AccordionCluster cluster(options);
  QueryOptions qopts;
  qopts.stage_dop = 3;
  qopts.task_dop = 2;
  auto submitted = cluster.coordinator()->Submit(
      TpchQ2JPlan(cluster.coordinator()->catalog()), qopts);
  ASSERT_TRUE(submitted.ok());
  auto result = cluster.coordinator()->Wait(*submitted, 120000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));
}

TEST(ClusterTest, ScanStageDopIncreaseKeepsCountExact) {
  auto options = FastOptions();
  options.engine.cost.scale = 0.15;  // slow enough to tune mid-flight
  AccordionCluster cluster(options);
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto rel = b.Scan("lineitem", {"l_orderkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "l_orderkey", "cnt"}});
  auto submitted = cluster.coordinator()->Submit(b.Output(rel));
  ASSERT_TRUE(submitted.ok());

  SleepForMillis(300);
  // The lineitem scan stage is stage 1 (0 = final agg/output).
  Status st = cluster.coordinator()->SetStageDop(*submitted, 1, 4);
  EXPECT_TRUE(st.ok()) << st.ToString();

  auto result = cluster.coordinator()->Wait(*submitted, 180000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));

  auto snapshot = cluster.coordinator()->Snapshot(*submitted);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->stage(1)->dop, 4);
}

TEST(ClusterTest, ScanStageDopDecreaseKeepsCountExact) {
  auto options = FastOptions();
  options.engine.cost.scale = 1.0;
  AccordionCluster cluster(options);
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto rel = b.Scan("lineitem", {"l_orderkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "l_orderkey", "cnt"}});
  QueryOptions qopts;
  qopts.stage_dop = 4;
  auto submitted = cluster.coordinator()->Submit(b.Output(rel), qopts);
  ASSERT_TRUE(submitted.ok());

  SleepForMillis(300);
  Status st = cluster.coordinator()->SetStageDop(*submitted, 1, 1);
  EXPECT_TRUE(st.ok()) << st.ToString();

  auto result = cluster.coordinator()->Wait(*submitted, 180000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));
  auto snapshot = cluster.coordinator()->Snapshot(*submitted);
  EXPECT_EQ(snapshot->stage(1)->dop, 1);
}

TEST(ClusterTest, IntraTaskDopTuningKeepsCountExact) {
  auto options = FastOptions();
  options.engine.cost.scale = 1.0;
  AccordionCluster cluster(options);
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto rel = b.Scan("lineitem", {"l_orderkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "l_orderkey", "cnt"}});
  auto submitted = cluster.coordinator()->Submit(b.Output(rel));
  ASSERT_TRUE(submitted.ok());

  SleepForMillis(200);
  Status st = cluster.coordinator()->SetTaskDop(*submitted, 1, 3);
  EXPECT_TRUE(st.ok()) << st.ToString();
  auto snapshot = cluster.coordinator()->Snapshot(*submitted);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->stage(1)->task_dop, 3);

  auto result = cluster.coordinator()->Wait(*submitted, 180000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));
}

TEST(ClusterTest, DopSwitchOnPartitionedJoinKeepsCountExact) {
  auto options = FastOptions();
  options.engine.cost.scale = 1.0;
  AccordionCluster cluster(options);
  QueryOptions qopts;
  qopts.stage_dop = 2;
  auto submitted = cluster.coordinator()->Submit(
      TpchQ2JPlan(cluster.coordinator()->catalog()), qopts);
  ASSERT_TRUE(submitted.ok());

  SleepForMillis(400);
  DopSwitchReport report;
  Status st = cluster.coordinator()->SetStageDop(*submitted, 1, 4, &report);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(report.total_seconds, 0);

  auto result = cluster.coordinator()->Wait(*submitted, 180000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(kSf));

  auto snapshot = cluster.coordinator()->Snapshot(*submitted);
  EXPECT_EQ(snapshot->stage(1)->dop, 4);
}

/// One run of `SELECT count(*), count(o.o_orderkey) FROM orders o <kind>
/// JOIN customer c ...` at stage DOP 2 on a simulated cluster. Once 20% of
/// the orders are scanned it asks the request filter, then the
/// coordinator, to switch the join stage to DOP 4.
struct JoinSwitchRun {
  Status filter_status;
  Status switch_status;
  std::vector<int64_t> counts;  // count(*), count(o_orderkey)
};

JoinSwitchRun RunWithJoinSwitch(const std::string& kind) {
  auto options = FastOptions();
  options.engine.cost.scale = 1.0;  // slow enough to switch mid-scan
  AccordionCluster cluster(options);
  Session session(cluster.coordinator());
  QueryOptions qopts;
  qopts.stage_dop = 2;
  JoinSwitchRun run;
  auto query = session.Execute(
      "SELECT count(*), count(o.o_orderkey) FROM orders o " + kind +
          " JOIN customer c ON o.o_custkey = c.c_custkey",
      qopts);
  if (!query.ok()) {
    ADD_FAILURE() << kind << ": " << query.status().ToString();
    return run;
  }
  run.switch_status = Status::Internal("the scan ended before the switch");
  const int64_t switch_at = TpchRowCount("orders", kSf) / 5;
  while (!(*query)->Finished()) {
    auto snapshot = (*query)->Snapshot();
    if (!snapshot.ok()) break;
    int join_stage = -1;
    int64_t orders_scanned = 0;
    for (const auto& stage : snapshot->stages) {
      if (stage.has_join) join_stage = stage.stage_id;
      if (stage.scan_table == "orders") orders_scanned = stage.scan_rows;
    }
    if (join_stage >= 0 && orders_scanned >= switch_at) {
      AutoTuner tuner(cluster.coordinator());
      run.filter_status = tuner.filter()->Check((*query)->id(), join_stage, 4);
      run.switch_status = (*query)->SetStageDop(join_stage, 4);
      break;
    }
    SleepForMillis(1);
  }
  auto result = (*query)->Wait(180000);
  if (!result.ok()) {
    ADD_FAILURE() << kind << ": " << result.status().ToString();
    return run;
  }
  for (const auto& page : *result) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      run.counts.push_back(page->column(0).IntAt(r));
      run.counts.push_back(page->column(1).IntAt(r));
    }
  }
  return run;
}

TEST(ClusterTest, OuterBuildJoinStageSwitchIsRejectedAndExact) {
  // Every customer has orders, so no row is NULL-extended. A right/full
  // join drains unmatched build rows per task group; switching its stage
  // DOP would emit customers the other group matched, so it is refused.
  const std::vector<int64_t> exact = {15000, 15000};
  for (const char* kind : {"RIGHT", "FULL"}) {
    JoinSwitchRun run = RunWithJoinSwitch(kind);
    EXPECT_EQ(run.filter_status.code(), StatusCode::kUnimplemented) << kind;
    EXPECT_EQ(run.switch_status.code(), StatusCode::kUnimplemented)
        << kind << ": " << run.switch_status.ToString();
    EXPECT_EQ(run.counts, exact) << kind;
  }
  // A left join drains no build rows: its switch runs and stays exact.
  JoinSwitchRun left = RunWithJoinSwitch("LEFT");
  EXPECT_TRUE(left.switch_status.ok()) << left.switch_status.ToString();
  EXPECT_EQ(left.counts, exact);
}

TEST(ClusterTest, FinalStageDopChangeIsRejected) {
  AccordionCluster cluster(FastOptions());
  auto submitted =
      cluster.coordinator()->Submit(TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  Status st = cluster.coordinator()->SetStageDop(*submitted, 0, 4);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 120000).ok());
}

TEST(ClusterTest, TuningFinishedQueryIsRejected) {
  AccordionCluster cluster(FastOptions());
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto rel = b.Scan("region", {"r_regionkey"});
  rel = b.Aggregate(rel, {}, {{AggFunc::kCount, "r_regionkey", "cnt"}});
  auto submitted = cluster.coordinator()->Submit(b.Output(rel));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 60000).ok());
  Status st = cluster.coordinator()->SetStageDop(*submitted, 1, 2);
  EXPECT_FALSE(st.ok());
}

TEST(ClusterTest, SnapshotExposesStageTree) {
  AccordionCluster cluster(FastOptions());
  auto submitted =
      cluster.coordinator()->Submit(TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 120000).ok());

  auto snapshot = cluster.coordinator()->Snapshot(*submitted);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, QueryState::kFinished);
  ASSERT_EQ(snapshot->stages.size(), 4u);
  const auto* s1 = snapshot->stage(1);
  ASSERT_NE(s1, nullptr);
  EXPECT_TRUE(s1->has_join);
  EXPECT_TRUE(s1->hash_tables_built);
  const auto* s2 = snapshot->stage(2);
  EXPECT_EQ(s2->scan_table, "lineitem");
  EXPECT_EQ(s2->scan_rows, ExactLineitemRows(kSf));
  EXPECT_GT(snapshot->initial_schedule_requests, 0);
  EXPECT_GT(snapshot->end_ms, 0);
}

TEST(ClusterTest, RealModeCountsProcessedRowsPerStage) {
  // cost.scale = 0 charges no simulated CPU; processed rows are still
  // counted on every stage that moved rows.
  AccordionCluster cluster(FastOptions());
  auto submitted = cluster.coordinator()->Submit(
      TpchQueryPlan(3, cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 120000).ok());

  auto snapshot = cluster.coordinator()->Snapshot(*submitted);
  ASSERT_TRUE(snapshot.ok());
  int moving_stages = 0;
  for (const auto& stage : snapshot->stages) {
    if (stage.output_rows == 0) continue;
    ++moving_stages;
    EXPECT_GT(stage.processed_rows, 0) << "stage " << stage.stage_id;
  }
  EXPECT_GT(moving_stages, 1);
}

TEST(ClusterTest, RealModeIgnoresSimulatedNics) {
  // cost.scale = 0 builds no Pacer, so NodeConfig is ignored: NICs this
  // slow would keep Q6's scan running far past the deadline.
  AccordionCluster reference(SmallOptions());
  auto expected = RunQ6(&reference, 60000);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  AccordionCluster::Options options = SmallOptions();
  options.worker_node.nic_bytes_per_sec = 256 * 1024;
  options.worker_node.nic_burst_bytes = 64 * 1024;
  options.storage_node = options.worker_node;
  AccordionCluster cluster(options);
  for (int w = 0; w < cluster.num_workers(); ++w) {
    EXPECT_EQ(cluster.worker(w)->pacer(), nullptr);
  }
  for (int n = 0; n < cluster.storage()->num_nodes(); ++n) {
    EXPECT_EQ(cluster.storage()->pacer(n), nullptr);
  }
  auto result = RunQ6(&cluster, 10000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  double want = Q6Revenue(*expected);
  EXPECT_NEAR(Q6Revenue(*result), want, 1e-9 * std::abs(want));
}

TEST(ClusterTest, SimulatedModeChargesCpuAndNics) {
  AccordionCluster::Options options = SmallOptions();
  options.engine.cost.scale = 0.01;
  AccordionCluster cluster(options);
  auto result = RunQ6(&cluster, 60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  double storage_nic = 0, worker_nic = 0, worker_cpu = 0;
  for (int n = 0; n < cluster.storage()->num_nodes(); ++n) {
    ASSERT_NE(cluster.storage()->pacer(n), nullptr);
    storage_nic += cluster.storage()->pacer(n)->nic().TotalConsumed();
  }
  for (int w = 0; w < cluster.num_workers(); ++w) {
    const Pacer* pacer = cluster.worker(w)->pacer();
    ASSERT_NE(pacer, nullptr);
    worker_nic += pacer->nic().TotalConsumed();
    worker_cpu += pacer->cpu().TotalConsumed();
  }
  EXPECT_GT(storage_nic, 0);
  EXPECT_GT(worker_nic, 0);
  EXPECT_GT(worker_cpu, 0);
}

TEST(ClusterTest, BroadcastJoinStageScalesWithGenericPath) {
  auto options = FastOptions();
  options.engine.cost.scale = 2.0;
  AccordionCluster cluster(options);
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  PlanBuilder b(&catalog);
  auto orders = b.Scan("orders", {"o_orderkey", "o_custkey"});
  auto customer = b.Scan("customer", {"c_custkey", "c_nationkey"});
  auto joined = b.Join(orders, customer, {"o_custkey"}, {"c_custkey"},
                       {"c_nationkey"}, /*broadcast=*/true);
  auto agg = b.Aggregate(joined, {}, {{AggFunc::kCount, "o_orderkey", "cnt"}});
  auto submitted = cluster.coordinator()->Submit(b.Output(agg));
  ASSERT_TRUE(submitted.ok());

  SleepForMillis(200);
  Status st = cluster.coordinator()->SetStageDop(*submitted, 1, 3);
  EXPECT_TRUE(st.ok()) << st.ToString();

  auto result = cluster.coordinator()->Wait(*submitted, 120000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), TpchRowCount("orders", kSf));
}

/// Waits up to one second for the cluster's pool to hold no units.
int UnitsLeftAfterOneSecond(AccordionCluster* cluster) {
  Stopwatch sw;
  while (cluster->scheduler()->num_units() > 0 && sw.ElapsedMillis() < 1000) {
    SleepForMillis(1);
  }
  return cluster->scheduler()->num_units();
}

TEST(ClusterTest, FinishedQueryLeavesNoSchedulerUnits) {
  // Every driver, exchange fetcher and shuffle executor of a drained query
  // finishes: none stays parked (or re-arms a timer) after its input ended.
  AccordionCluster cluster(SmallOptions());
  Session session(cluster.coordinator());
  QueryOptions qopts;
  qopts.stage_dop = 2;
  qopts.task_dop = 2;
  auto query = session.Execute(TpchQuerySql(7), qopts);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto pages = (*query)->Cursor().Drain(120000);
  ASSERT_TRUE(pages.ok()) << pages.status().ToString();
  EXPECT_EQ(UnitsLeftAfterOneSecond(&cluster), 0);
}

TEST(ClusterTest, RealModeWaitsNeverHitTheFallback) {
  // Parked units keep a fallback timer only to bound a lost wakeup. A unit
  // that timer resumes and that then finds work counts as a lost wake, so
  // the count stays 0 while every wait is woken by its event: TPC-H at DOP
  // 2x2, a partitioned-join DOP switch up and down, and an abort.
  {
    AccordionCluster cluster(SmallOptions());
    Session session(cluster.coordinator());
    QueryOptions qopts;
    qopts.stage_dop = 2;
    qopts.task_dop = 2;
    for (int q = 1; q <= 12; ++q) {
      auto query = session.Execute(TpchQuerySql(q), qopts);
      ASSERT_TRUE(query.ok()) << "Q" << q << ": " << query.status().ToString();
      auto pages = (*query)->Cursor().Drain(120000);
      ASSERT_TRUE(pages.ok()) << "Q" << q << ": " << pages.status().ToString();
    }
    EXPECT_EQ(cluster.scheduler()->fallback_resumes(), 0);
  }
  // Q2J scans long enough in real mode at SF 0.2 to switch twice mid-scan.
  auto options = SmallOptions();
  options.scale_factor = 0.2;
  AccordionCluster cluster(options);
  Session session(cluster.coordinator());
  auto switched = session.Execute(TpchQ2JPlan(session.catalog()));
  ASSERT_TRUE(switched.ok()) << switched.status().ToString();
  Status up = (*switched)->SetStageDop(1, 2);
  EXPECT_TRUE(up.ok()) << up.ToString();
  Status down = (*switched)->SetStageDop(1, 1);
  EXPECT_TRUE(down.ok()) << down.ToString();
  auto result = (*switched)->Wait(120000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SingleInt(*result), ExactLineitemRows(0.2));

  auto aborted = session.Execute(TpchQ2JPlan(session.catalog()));
  ASSERT_TRUE(aborted.ok()) << aborted.status().ToString();
  ResultCursor cursor = (*aborted)->Cursor();
  SleepForMillis(20);
  ASSERT_TRUE((*aborted)->Abort().ok());
  EXPECT_EQ(cursor.Next(30000).status().code(), StatusCode::kAborted);
  EXPECT_EQ(UnitsLeftAfterOneSecond(&cluster), 0);
  EXPECT_EQ(cluster.scheduler()->fallback_resumes(), 0);
}

TEST(ClusterTest, AbortStopsQuery) {
  auto options = FastOptions();
  options.engine.cost.scale = 1.0;  // long-running
  AccordionCluster cluster(options);
  auto submitted =
      cluster.coordinator()->Submit(TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  SleepForMillis(100);
  ASSERT_TRUE(cluster.coordinator()->Abort(*submitted).ok());
  auto result = cluster.coordinator()->Wait(*submitted, 30000);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(cluster.coordinator()->IsFinished(*submitted));
}

TEST(ClusterTest, WaitTimeoutIsDistinctAndLeavesQueryRunning) {
  auto options = FastOptions();
  options.engine.cost.scale = 2.0;  // long-running
  AccordionCluster cluster(options);
  auto submitted = cluster.coordinator()->Submit(
      TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());

  // A blown deadline is reported as kDeadlineExceeded (not a generic
  // failure), and the query keeps running...
  auto timed_out = cluster.coordinator()->Wait(*submitted, 1);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(cluster.coordinator()->IsFinished(*submitted));

  // ...so it can still be aborted, after which Wait reports kAborted.
  ASSERT_TRUE(cluster.coordinator()->Abort(*submitted).ok());
  auto aborted = cluster.coordinator()->Wait(*submitted, 30000);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kAborted);
  EXPECT_TRUE(cluster.coordinator()->IsFinished(*submitted));
}

TEST(ClusterTest, RpcRequestsAreCounted) {
  AccordionCluster cluster(FastOptions());
  int64_t before = cluster.coordinator()->total_rpc_requests();
  auto submitted =
      cluster.coordinator()->Submit(TpchQ2JPlan(cluster.coordinator()->catalog()));
  ASSERT_TRUE(submitted.ok());
  ASSERT_TRUE(cluster.coordinator()->Wait(*submitted, 120000).ok());
  EXPECT_GT(cluster.coordinator()->total_rpc_requests(), before + 10);
}

}  // namespace
}  // namespace accordion
