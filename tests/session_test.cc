#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include <vector>

#include "api/session.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/fault_injector.h"
#include "plan/builder.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

constexpr double kSf = 0.005;

AccordionCluster::Options FastOptions() {
  AccordionCluster::Options options;
  options.num_workers = 2;
  options.num_storage_nodes = 2;
  options.scale_factor = kSf;
  options.engine.cost.scale = 0;
  options.engine.rpc_latency_ms = 0;
  return options;
}

/// Small buffers so backpressure is observable at test scale.
AccordionCluster::Options StreamingOptions() {
  AccordionCluster::Options options = FastOptions();
  options.engine.memory.initial_buffer_bytes = 2 * 1024;
  options.engine.memory.max_buffer_bytes = 8 * 1024;
  return options;
}

/// Single-stage streaming plan: scan lineitem straight to the client.
PlanNodePtr StreamingScanPlan(const Catalog& catalog) {
  PlanBuilder b(&catalog);
  auto rel = b.Scan("lineitem", {"l_orderkey", "l_extendedprice"});
  return b.Output(rel);
}

TEST(SessionTest, SqlRoundTrip) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  auto query = session.Execute(
      "SELECT count(c_custkey) AS n FROM customer");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto pages = (*query)->Wait();
  ASSERT_TRUE(pages.ok()) << pages.status().ToString();
  ASSERT_FALSE(pages->empty());
  EXPECT_EQ((*pages)[0]->column(0).IntAt(0), TpchRowCount("customer", kSf));
  EXPECT_TRUE((*query)->Finished());
}

// The core streaming claim: result pages reach the client while the query
// is still running, and the engine does NOT run ahead unboundedly — the
// elastic output buffer backpressures the scan until the cursor consumes.
TEST(SessionTest, CursorStreamsPagesBeforeCompletion) {
  AccordionCluster cluster(StreamingOptions());
  Session session(cluster.coordinator());
  auto query = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  ResultCursor cursor = (*query)->Cursor();
  auto first = cursor.Next(60000);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_NE(*first, nullptr);
  // A page arrived while the query is still executing.
  EXPECT_FALSE((*query)->Finished());

  // Give producers time to run as far ahead as buffering allows; bounded
  // peak buffering means the scan must stall well short of completion.
  SleepForMillis(300);
  auto snapshot = (*query)->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  const StageSnapshot* root = snapshot->stage(0);
  ASSERT_NE(root, nullptr);
  // Mid-scan, the denominator is already the whole table, not the splits
  // opened so far.
  const int64_t lineitem_rows =
      TpchSplitGenerator("lineitem", kSf, 0, 1).TotalRows();
  EXPECT_EQ(root->scan_total_rows, lineitem_rows);
  EXPECT_LT(root->scan_rows, root->scan_total_rows)
      << "scan ran to completion while the cursor was idle — results are "
         "being materialized instead of streamed with backpressure";
  EXPECT_FALSE((*query)->Finished());

  // Now drain; every row must arrive exactly once. (Lineitem counts
  // derive from orders' per-order line counts, so ask the generator.)
  int64_t rows = (*first)->num_rows();
  while (true) {
    auto page = cursor.Next(60000);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    if (*page == nullptr) break;
    rows += (*page)->num_rows();
  }
  EXPECT_EQ(rows, lineitem_rows);
  EXPECT_TRUE(cursor.Done());
  EXPECT_TRUE((*query)->Finished());
}

TEST(SessionTest, AbortWhileCursorDraining) {
  AccordionCluster cluster(StreamingOptions());
  cluster.coordinator();
  Session session(cluster.coordinator());
  auto query = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(query.ok());

  ResultCursor cursor = (*query)->Cursor();
  auto first = cursor.Next(60000);
  ASSERT_TRUE(first.ok());
  ASSERT_NE(*first, nullptr);

  // Abort from another thread racing the cursor's fetch loop.
  std::atomic<bool> aborted{false};
  std::thread aborter([&] {
    SleepForMillis(20);
    (void)(*query)->Abort();
    aborted = true;
  });

  Status final_status = Status::OK();
  while (true) {
    auto page = cursor.Next(60000);
    if (!page.ok()) {
      final_status = page.status();
      break;
    }
    if (*page == nullptr) break;  // completed before the abort landed
  }
  aborter.join();
  ASSERT_TRUE(aborted.load());
  // Either the abort surfaced as kAborted, or the query legitimately
  // finished first; it must never crash or hang.
  if (!final_status.ok()) {
    EXPECT_EQ(final_status.code(), StatusCode::kAborted);
  }
  EXPECT_TRUE((*query)->Finished());
}

TEST(SessionTest, CursorOutlivesQueryHandleAndQuery) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  ResultCursor cursor = [&] {
    auto query = session.Execute(
        "SELECT count(c_custkey) AS n FROM customer");
    EXPECT_TRUE(query.ok());
    return (*query)->Cursor();
  }();  // handle destroyed here; query still running

  int64_t rows = 0;
  while (true) {
    auto page = cursor.Next(60000);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    if (*page == nullptr) break;
    rows += (*page)->num_rows();
  }
  EXPECT_EQ(rows, 1);
  // Further pulls on a finished stream stay clean.
  auto again = cursor.Next();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, nullptr);
}

TEST(SessionTest, CursorOnAbortedQueryReturnsAbortedStatus) {
  AccordionCluster::Options options = StreamingOptions();
  options.engine.cost.scale = 2.0;  // slow enough to abort mid-flight
  AccordionCluster cluster(options);
  Session session(cluster.coordinator());
  auto query = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE((*query)->Abort().ok());
  ResultCursor cursor = (*query)->Cursor();
  auto page = cursor.Next(10000);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.status().code(), StatusCode::kAborted);
}

// Pages consumed off the output buffer by a timed-out Wait / Drain must
// not be lost: a retry sees the complete stream.
TEST(SessionTest, TimedOutWaitResumesLosslessly) {
  AccordionCluster::Options options = StreamingOptions();
  options.engine.cost.scale = 0.3;  // slow enough that 1ms times out
  AccordionCluster cluster(options);
  Session session(cluster.coordinator());
  auto query = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(query.ok());

  int64_t expected = TpchSplitGenerator("lineitem", kSf, 0, 1).TotalRows();

  // First Wait times out after having consumed some pages.
  auto timed_out = (*query)->Wait(1);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  // Retry with a real deadline: every row arrives exactly once.
  auto pages = (*query)->Wait(120000);
  ASSERT_TRUE(pages.ok()) << pages.status().ToString();
  int64_t rows = 0;
  for (const auto& page : *pages) rows += page->num_rows();
  EXPECT_EQ(rows, expected);
}

TEST(SessionTest, TimedOutDrainResumesLosslessly) {
  AccordionCluster::Options options = StreamingOptions();
  options.engine.cost.scale = 0.3;
  AccordionCluster cluster(options);
  Session session(cluster.coordinator());
  auto query = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(query.ok());

  int64_t expected = TpchSplitGenerator("lineitem", kSf, 0, 1).TotalRows();

  // A deadline long enough to collect some pages first, so the timeout
  // surfaces mid-stream (from inside Next) with pages already in hand —
  // those must be handed back to the cursor, not dropped.
  ResultCursor cursor = (*query)->Cursor();
  auto timed_out = cursor.Drain(250);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cursor.rows_seen(), 0);  // nothing was delivered to the caller

  auto pages = cursor.Drain(120000);
  ASSERT_TRUE(pages.ok()) << pages.status().ToString();
  int64_t rows = 0;
  for (const auto& page : *pages) rows += page->num_rows();
  EXPECT_EQ(rows, expected);
  // Counters reflect delivered pages only — exactly the full stream.
  EXPECT_EQ(cursor.rows_seen(), expected);
}

TEST(SessionTest, NextDeadlineHoldsWithPrefetchInFlight) {
  // Every result fetch takes 200 ms of simulated RPC latency, so a
  // background prefetch is still in flight when the buffered batch runs
  // out. Next must give up at its own deadline, not at the prefetch's
  // arrival, and the prefetch must still reach a later call.
  AccordionCluster::Options options = FastOptions();
  options.engine.rpc_latency_ms = 200;
  AccordionCluster cluster(options);
  Session session(cluster.coordinator());
  auto query = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const int64_t expected =
      TpchSplitGenerator("lineitem", kSf, 0, 1).TotalRows();

  ResultCursor cursor = (*query)->Cursor();
  int64_t rows = 0;
  // Read until the cursor issues its background fetch of the next batch.
  while (cursor.prefetches_issued() == 0) {
    auto page = cursor.Next(60000);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_NE(*page, nullptr) << "the stream ended before a prefetch";
    rows += (*page)->num_rows();
  }
  // Hand out the rest of the batch; the call after that finds only the
  // prefetch, in flight for another ~200 ms.
  Stopwatch sw;
  Result<PagePtr> page = PagePtr(nullptr);
  while (true) {
    sw.Restart();
    page = cursor.Next(20);
    if (!page.ok()) break;
    ASSERT_NE(*page, nullptr) << "the stream ended before the deadline test";
    rows += (*page)->num_rows();
  }
  EXPECT_EQ(page.status().code(), StatusCode::kDeadlineExceeded)
      << page.status().ToString();
  EXPECT_LT(sw.ElapsedMillis(), 150)
      << "Next waited for the in-flight prefetch past its 20 ms deadline";

  auto rest = cursor.Drain(60000);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  for (const auto& page : *rest) rows += page->num_rows();
  EXPECT_EQ(rows, expected);
  EXPECT_GT(cursor.prefetch_hits(), 0);
}

TEST(SessionTest, DoubleAbortIsIdempotent) {
  AccordionCluster cluster(StreamingOptions());
  Session session(cluster.coordinator());
  auto query = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(query.ok());

  // Racing aborts from several threads: exactly one wins the state
  // transition, every call returns OK, nothing deadlocks.
  std::vector<std::thread> racers;
  std::atomic<int> failures{0};
  for (int i = 0; i < 4; ++i) {
    racers.emplace_back([&] {
      if (!(*query)->Abort().ok()) ++failures;
    });
  }
  for (auto& t : racers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE((*query)->Finished());

  // Sequential re-abort of an already-aborted query is also a no-op.
  EXPECT_TRUE((*query)->Abort().ok());
  auto snapshot = (*query)->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, QueryState::kAborted);
}

TEST(SessionTest, ZeroTimeoutWaitPreservesStream) {
  AccordionCluster::Options options = StreamingOptions();
  options.engine.cost.scale = 0.3;
  AccordionCluster cluster(options);
  Session session(cluster.coordinator());
  auto query = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(query.ok());

  int64_t expected = TpchSplitGenerator("lineitem", kSf, 0, 1).TotalRows();

  // timeout_ms = 0: the degenerate deadline. Must come back immediately
  // with kDeadlineExceeded — not hang, not error — and must not consume
  // the caller's stream position.
  auto timed_out = (*query)->Wait(0);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded);

  auto pages = (*query)->Wait(120000);
  ASSERT_TRUE(pages.ok()) << pages.status().ToString();
  int64_t rows = 0;
  for (const auto& page : *pages) rows += page->num_rows();
  EXPECT_EQ(rows, expected);
}

TEST(SessionTest, DeadlineDuringRetryPreservesStream) {
  // A sustained data-plane outage at query start: the 2nd through 31st
  // GetPages calls all fail. Fetchers sit in retry/backoff when the
  // caller's deadline expires — that must surface as kDeadlineExceeded
  // (not kUnavailable: the outage is curable), and once the outage
  // lifts a patient Wait must still deliver every row exactly once.
  FaultInjector injector(13);
  FaultPolicy outage;
  outage.kind = FaultKind::kTransientError;
  outage.trigger_on_nth = 2;
  outage.burst = 30;
  injector.AddPolicy("rpc.GetPages", outage);

  AccordionCluster::Options options = StreamingOptions();
  options.engine.fault_injector = &injector;
  // Survive the outage: plenty of attempts, slow enough backoff that the
  // short Wait below reliably lands inside the retry window.
  options.engine.rpc_retry.max_attempts = 60;
  options.engine.rpc_retry.initial_backoff_ms = 5;
  options.engine.rpc_retry.max_backoff_ms = 16;
  AccordionCluster cluster(options);
  Session session(cluster.coordinator());
  auto query = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  int64_t expected = TpchSplitGenerator("lineitem", kSf, 0, 1).TotalRows();

  auto timed_out = (*query)->Wait(25);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded)
      << timed_out.status().ToString();

  auto pages = (*query)->Wait(120000);
  ASSERT_TRUE(pages.ok()) << pages.status().ToString();
  int64_t rows = 0;
  for (const auto& page : *pages) rows += page->num_rows();
  EXPECT_EQ(rows, expected);

  auto snapshot = (*query)->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->state, QueryState::kFinished);
  EXPECT_GT(snapshot->rpc_retries, 0);
}

TEST(SessionTest, AdmissionCapRejectsThenRecovers) {
  AccordionCluster::Options options = FastOptions();
  options.engine.cost.scale = 2.0;  // keep the first query running
  AccordionCluster cluster(options);
  SessionOptions session_options;
  session_options.max_concurrent_queries = 1;
  Session session(cluster.coordinator(), session_options);

  auto first = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(session.active_queries(), 1);

  auto second = session.Execute("SELECT count(c_custkey) AS n FROM customer");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);

  // Freeing the slot (abort counts as finished) re-admits.
  ASSERT_TRUE((*first)->Abort().ok());
  auto third = session.Execute("SELECT count(c_custkey) AS n FROM customer");
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  auto pages = (*third)->Wait();
  ASSERT_TRUE(pages.ok()) << pages.status().ToString();
}

TEST(SessionTest, SessionDefaultOptionsApply) {
  AccordionCluster cluster(FastOptions());
  SessionOptions session_options;
  session_options.query_defaults.stage_dop = 2;
  Session session(cluster.coordinator(), session_options);
  auto query = session.Execute(TpchQ2JPlan(session.catalog()));
  ASSERT_TRUE(query.ok());
  auto snapshot = (*query)->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  const StageSnapshot* join_stage = snapshot->stage(1);
  ASSERT_NE(join_stage, nullptr);
  EXPECT_EQ(join_stage->dop, 2);
  (void)(*query)->Wait();
}

TEST(SessionTest, PreparedStatementBindAndRebind) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  auto prepared = session.Prepare(
      "SELECT count(c_custkey) AS n FROM customer "
      "WHERE c_mktsegment = ? AND c_acctbal > ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->parameter_count(), 2);

  // Arity mismatch is a typed error.
  auto missing = session.Execute(*prepared, {Value::Str("BUILDING")});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  auto run = [&](const std::string& segment) -> int64_t {
    auto query = session.Execute(
        *prepared, {Value::Str(segment), Value::Double(-10000.0)});
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto pages = (*query)->Wait();
    EXPECT_TRUE(pages.ok());
    return (*pages)[0]->column(0).IntAt(0);
  };
  // Independent reference counts from the generator.
  auto expected = [&](const std::string& segment) {
    int64_t n = 0;
    for (const auto& page : GenerateSplit("customer", kSf, 0, 1)) {
      for (int64_t r = 0; r < page->num_rows(); ++r) {
        n += page->column(6).StrAt(r) == segment;
      }
    }
    return n;
  };
  EXPECT_EQ(run("BUILDING"), expected("BUILDING"));
  EXPECT_EQ(run("MACHINERY"), expected("MACHINERY"));
}

TEST(SessionTest, PreparedPlaceholderInsideSubqueryBinds) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  // `?` ordinals are global across subquery boundaries: one parameter in
  // the outer WHERE, one inside the EXISTS body.
  auto prepared = session.Prepare(
      "SELECT count(*) AS n FROM orders WHERE o_orderkey > ? AND EXISTS "
      "(SELECT * FROM lineitem WHERE l_orderkey = o_orderkey "
      "AND l_quantity > ?)");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->parameter_count(), 2);

  auto run = [&](int64_t min_key, double min_qty) -> int64_t {
    auto query = session.Execute(
        *prepared, {Value::Int(min_key), Value::Double(min_qty)});
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto pages = (*query)->Wait();
    EXPECT_TRUE(pages.ok());
    return (*pages)[0]->column(0).IntAt(0);
  };
  auto expected = [&](int64_t min_key, double min_qty) {
    std::set<int64_t> orderkeys;
    for (const auto& page : GenerateSplit("lineitem", kSf, 0, 1)) {
      for (int64_t r = 0; r < page->num_rows(); ++r) {
        if (page->column(4).DoubleAt(r) > min_qty) {
          orderkeys.insert(page->column(0).IntAt(r));
        }
      }
    }
    int64_t n = 0;
    for (int64_t key : orderkeys) n += key > min_key;
    return n;
  };
  EXPECT_EQ(run(0, 0.0), expected(0, 0.0));
  EXPECT_EQ(run(100, 25.0), expected(100, 25.0));
}

TEST(SessionTest, PreparedDateParameterCoerces) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  auto prepared = session.Prepare(
      "SELECT count(o_orderkey) AS n FROM orders WHERE o_orderdate < ?");
  ASSERT_TRUE(prepared.ok());
  auto query = session.Execute(*prepared, {Value::Str("1995-01-01")});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto pages = (*query)->Wait();
  ASSERT_TRUE(pages.ok());
  int64_t expected = 0;
  int64_t cutoff = ParseDate("1995-01-01");
  for (const auto& page : GenerateSplit("orders", kSf, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      expected += page->column(4).IntAt(r) < cutoff;
    }
  }
  EXPECT_EQ((*pages)[0]->column(0).IntAt(0), expected);
}

TEST(SessionTest, PreparedDateParameterRejectsMalformed) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  auto prepared = session.Prepare(
      "SELECT count(o_orderkey) AS n FROM orders WHERE o_orderdate < ?");
  ASSERT_TRUE(prepared.ok());
  auto query = session.Execute(*prepared, {Value::Str("not-a-date")});
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, ExecuteRejectsUnboundPlaceholders) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  auto query = session.Execute(
      "SELECT count(c_custkey) AS n FROM customer WHERE c_mktsegment = ?");
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, ExplainRendersStageTree) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  auto text = session.Explain(
      "SELECT count(l_orderkey) AS n FROM lineitem INNER JOIN orders ON "
      "l_orderkey = o_orderkey");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("Stage 0"), std::string::npos);
  EXPECT_NE(text->find("Stage 1"), std::string::npos);
  EXPECT_NE(text->find("TableScan(lineitem)"), std::string::npos);
  EXPECT_NE(text->find("TableScan(orders)"), std::string::npos);
  EXPECT_NE(text->find("join"), std::string::npos);
  // The cost-based optimizer's decision report precedes the stage tree,
  // and its cardinality estimates annotate the plan nodes.
  EXPECT_NE(text->find("-- optimizer --"), std::string::npos);
  EXPECT_NE(text->find("join order:"), std::string::npos);
  EXPECT_NE(text->find("build="), std::string::npos);
  EXPECT_NE(text->find("[est. rows:"), std::string::npos);

  auto bad = session.Explain("SELECT nope FROM ghosts");
  EXPECT_FALSE(bad.ok());
}

TEST(SessionTest, ExplainTextFormatIsDefaultAndByteStable) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  const std::string sql =
      "SELECT count(l_orderkey) AS n FROM lineitem INNER JOIN orders ON "
      "l_orderkey = o_orderkey";
  auto plain = session.Explain(sql);
  ExplainOptions text_options;
  auto with_options = session.Explain(sql, text_options);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_TRUE(with_options.ok()) << with_options.status().ToString();
  EXPECT_EQ(*plain, *with_options);
}

TEST(SessionTest, ExplainJsonCarriesStagesAndOptimizerReport) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  ExplainOptions json_options;
  json_options.format = ExplainFormat::kJson;
  auto json = session.Explain(
      "SELECT count(l_orderkey) AS n FROM lineitem INNER JOIN orders ON "
      "l_orderkey = o_orderkey",
      json_options);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  // Envelope shape: a stage array plus the optimizer report.
  EXPECT_EQ(json->front(), '{');
  EXPECT_EQ(json->back(), '}');
  EXPECT_NE(json->find("\"stages\":["), std::string::npos);
  EXPECT_NE(json->find("\"stage\":0"), std::string::npos);
  EXPECT_NE(json->find("\"stage\":1"), std::string::npos);
  EXPECT_NE(json->find("\"parent_stage\":"), std::string::npos);
  EXPECT_NE(json->find("\"sources\":["), std::string::npos);
  EXPECT_NE(json->find("\"optimizer_report\":\""), std::string::npos);
  // Plan tree nodes with kinds, children, and cost-model estimates.
  EXPECT_NE(json->find("\"node\":\"TableScan(lineitem)\""), std::string::npos);
  EXPECT_NE(json->find("\"node\":\"TableScan(orders)\""), std::string::npos);
  EXPECT_NE(json->find("\"kind\":"), std::string::npos);
  EXPECT_NE(json->find("\"children\":["), std::string::npos);
  EXPECT_NE(json->find("\"estimated_rows\":"), std::string::npos);
  // The report is escaped into a single JSON string: no raw newlines.
  EXPECT_EQ(json->find('\n'), std::string::npos);
}

TEST(SessionTest, ExplainJsonForHandBuiltPlanOmitsReport) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  PlanNodePtr plan = StreamingScanPlan(session.catalog());
  ExplainOptions json_options;
  json_options.format = ExplainFormat::kJson;
  auto json = session.Explain(plan, json_options);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_NE(json->find("\"node\":\"TableScan(lineitem)\""), std::string::npos);
  // The plan overload has no SQL analysis phase, so no report key.
  EXPECT_EQ(json->find("\"optimizer_report\""), std::string::npos);
}

// Double-buffered cursor: consuming past the half of a fetched batch
// starts a background fetch of the next one, overlapping result transfer
// with client-side processing. Counters prove the overlap happened; the
// row total proves it never duplicates or drops pages.
TEST(SessionTest, CursorPrefetchOverlapsConsumption) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  auto query = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ResultCursor cursor = (*query)->Cursor();
  int64_t rows = 0;
  while (true) {
    auto page = cursor.Next(60000);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    if (*page == nullptr) break;
    rows += (*page)->num_rows();
  }
  EXPECT_EQ(rows, TpchSplitGenerator("lineitem", kSf, 0, 1).TotalRows());
  EXPECT_GT(cursor.prefetches_issued(), 0);
  EXPECT_GT(cursor.prefetch_hits(), 0);
  EXPECT_LE(cursor.prefetch_hits(), cursor.prefetches_issued());
}

TEST(SessionTest, WaitShimMatchesCursorResults) {
  AccordionCluster cluster(FastOptions());
  Session session(cluster.coordinator());
  const char* sql =
      "SELECT c_mktsegment, count(*) AS n FROM customer "
      "GROUP BY c_mktsegment ORDER BY c_mktsegment LIMIT 10";
  auto via_wait = session.Execute(sql);
  ASSERT_TRUE(via_wait.ok());
  auto wait_pages = (*via_wait)->Wait();
  ASSERT_TRUE(wait_pages.ok());

  auto via_cursor = session.Execute(sql);
  ASSERT_TRUE(via_cursor.ok());
  auto cursor_pages = (*via_cursor)->Cursor().Drain();
  ASSERT_TRUE(cursor_pages.ok());

  auto rows = [](const std::vector<PagePtr>& pages) {
    int64_t n = 0;
    for (const auto& p : pages) n += p->num_rows();
    return n;
  };
  EXPECT_EQ(rows(*wait_pages), 5);
  EXPECT_EQ(rows(*cursor_pages), 5);
}

// Regression for the Submit reservation leak: every failing Submit used
// to be able to strand its reserved_ slot, so enough failures wedged the
// session cap shut permanently. Hammer the exact boundary — reservation
// taken, then the coordinator (global cap) or the analyzer (bad SQL)
// rejects — and prove the cap still admits afterwards.
TEST(SessionTest, FailedSubmitsNeverWedgeTheAdmissionCap) {
  AccordionCluster::Options options = StreamingOptions();
  options.engine.max_concurrent_queries = 1;  // coordinator rejects all else
  AccordionCluster cluster(options);
  SessionOptions session_options;
  session_options.max_concurrent_queries = 2;
  Session session(cluster.coordinator(), session_options);

  // Pin the single global slot with an unconsumed streaming query.
  auto running = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(running.ok()) << running.status().ToString();

  // Each of these reserves the session's second slot, then fails in the
  // coordinator. If any reservation leaked, the session cap (2) would
  // start rejecting with its own "session admission cap" error instead.
  for (int i = 0; i < 100; ++i) {
    auto q = session.Execute(StreamingScanPlan(session.catalog()));
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(q.status().ToString().find("session admission cap"),
              std::string::npos)
        << "iteration " << i << " tripped the session cap — a reservation "
        << "leaked: " << q.status().ToString();
  }

  // Same boundary under contention: concurrent failing submits (bad SQL
  // fails in analysis, bad plans fail in the coordinator).
  std::vector<std::thread> hammers;
  std::atomic<int> unexpected{0};
  for (int t = 0; t < 4; ++t) {
    hammers.emplace_back([&session, &unexpected, t] {
      for (int i = 0; i < 25; ++i) {
        if ((t + i) % 2 == 0) {
          auto q = session.Execute("SELECT nope FROM no_such_table");
          if (q.ok()) unexpected.fetch_add(1);
        } else {
          auto q = session.Execute(StreamingScanPlan(session.catalog()));
          if (q.ok()) unexpected.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : hammers) t.join();
  EXPECT_EQ(unexpected.load(), 0);

  // The cap never wedged: free the global slot and a valid query both
  // admits and completes.
  ASSERT_TRUE((*running)->Abort().ok());
  Stopwatch sw;
  Result<QueryHandlePtr> fresh = Status::ResourceExhausted("not yet");
  while (sw.ElapsedMillis() < 10000) {
    fresh = session.Execute("SELECT count(l_orderkey) AS n FROM lineitem");
    if (fresh.ok()) break;
    ASSERT_EQ(fresh.status().code(), StatusCode::kResourceExhausted)
        << fresh.status().ToString();
    SleepForMillis(5);
  }
  ASSERT_TRUE(fresh.ok()) << "admission cap wedged after failed submits";
  auto pages = (*fresh)->Wait();
  ASSERT_TRUE(pages.ok()) << pages.status().ToString();
  EXPECT_EQ(session.active_queries(), 0);
}

}  // namespace
}  // namespace accordion
