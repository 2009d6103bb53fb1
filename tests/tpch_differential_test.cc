#include <gtest/gtest.h>

#include "api/session.h"
#include "cluster/cluster.h"
#include "tests/reference_eval.h"
#include "tpch/queries.h"

namespace accordion {
namespace {

// Differential harness: every standalone TPC-H query is recomputed by the
// deliberately-naive scalar reference evaluator (tests/reference_eval) and
// the engine's result row multiset must match it — at dop 1 and 4 and at
// two scan page sizes, so the vectorized hash paths, exchange routing and
// page chunking all face the same oracle. The reference is evaluated once
// per query and shared across the four engine configurations.

constexpr double kScaleFactor = 0.005;

AccordionCluster::Options ClusterOptions(int64_t batch_rows) {
  AccordionCluster::Options options;
  options.num_workers = 2;
  options.num_storage_nodes = 2;
  options.scale_factor = kScaleFactor;
  options.engine.batch_rows = batch_rows;
  options.engine.cost.scale = 0;
  options.engine.rpc_latency_ms = 0;
  return options;
}

class TpchDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchDifferentialTest, EngineMatchesScalarReference) {
  const int q = GetParam();
  RefRelation expected;
  {
    // Build the plan against any catalog instance — plans are
    // deterministic, so the reference and all engine runs agree on it.
    AccordionCluster cluster(ClusterOptions(256));
    expected = ReferenceEvaluate(
        TpchQueryPlan(q, cluster.coordinator()->catalog()), kScaleFactor);
  }
  for (int64_t batch_rows : {256, 1024}) {
    for (int dop : {1, 4}) {
      AccordionCluster cluster(ClusterOptions(batch_rows));
      Session session(cluster.coordinator());
      QueryOptions options;
      options.stage_dop = dop;
      options.task_dop = dop;
      auto query =
          session.Execute(TpchQueryPlan(q, session.catalog()), options);
      ASSERT_TRUE(query.ok()) << query.status().ToString();
      auto result = (*query)->Wait(120000);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::string diff = DiffRows(expected, *result);
      EXPECT_TRUE(diff.empty())
          << "Q" << q << " dop=" << dop << " batch_rows=" << batch_rows
          << ": " << diff;
    }
  }
}

// SQL-text front door vs the scalar oracle of the hand-built plan: the
// analyzer's lowering (join ordering, pushdown, self-join aliasing,
// expression group keys, subquery decorrelation, two-phase aggregation)
// must reproduce exactly the same result relation for every TPC-H query —
// all twelve are in the SQL subset now — at dop {1,4} x page {256,1024},
// streamed through a cursor, not materialized by Wait.
class TpchSqlDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchSqlDifferentialTest, SqlTextMatchesScalarReference) {
  const int q = GetParam();
  std::string sql = TpchQuerySql(q);
  ASSERT_FALSE(sql.empty()) << "Q" << q << " has no SQL text";
  RefRelation expected;
  {
    AccordionCluster cluster(ClusterOptions(256));
    expected = ReferenceEvaluate(
        TpchQueryPlan(q, cluster.coordinator()->catalog()), kScaleFactor);
  }
  for (int64_t batch_rows : {256, 1024}) {
    for (int dop : {1, 4}) {
      AccordionCluster cluster(ClusterOptions(batch_rows));
      Session session(cluster.coordinator());
      QueryOptions options;
      options.stage_dop = dop;
      options.task_dop = dop;
      auto query = session.Execute(sql, options);
      ASSERT_TRUE(query.ok()) << "Q" << q << ": " << query.status().ToString();
      auto pages = (*query)->Cursor().Drain(120000);
      ASSERT_TRUE(pages.ok()) << pages.status().ToString();
      std::string diff = DiffRows(expected, *pages);
      EXPECT_TRUE(diff.empty())
          << "Q" << q << " (SQL) dop=" << dop << " batch_rows=" << batch_rows
          << ": " << diff;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SqlSubsetQueries, TpchSqlDifferentialTest,
                         ::testing::Range(1, 13));

// Out-of-cache join paths vs the same oracle: one pass with a build-side
// memory budget tiny enough that every nontrivial hash join is forced
// through the grace-spill path (partition files, pairwise drain,
// recursion on skew), and one with the radix threshold dropped so every
// join build takes the in-memory partitioned index. Both must be
// invisible in the result relation for all twelve queries.
class TpchSpillDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchSpillDifferentialTest, ForcedSpillMatchesScalarReference) {
  const int q = GetParam();
  RefRelation expected;
  {
    AccordionCluster cluster(ClusterOptions(256));
    expected = ReferenceEvaluate(
        TpchQueryPlan(q, cluster.coordinator()->catalog()), kScaleFactor);
  }
  int64_t spill_bytes_seen = 0;
  for (int dop : {1, 4}) {
    AccordionCluster::Options options = ClusterOptions(256);
    options.engine.memory.query_build_bytes = 4096;  // force grace spill
    options.engine.memory.spill_chunk_bytes = 16384;
    AccordionCluster cluster(options);
    Session session(cluster.coordinator());
    QueryOptions query_options;
    query_options.stage_dop = dop;
    query_options.task_dop = dop;
    auto query =
        session.Execute(TpchQueryPlan(q, session.catalog()), query_options);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto result = (*query)->Wait(120000);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string diff = DiffRows(expected, *result);
    EXPECT_TRUE(diff.empty())
        << "Q" << q << " forced-spill dop=" << dop << ": " << diff;
    auto snapshot = (*query)->Snapshot();
    ASSERT_TRUE(snapshot.ok());
    spill_bytes_seen += snapshot->spill_bytes_written;
    EXPECT_GE(snapshot->peak_build_bytes, 0);
  }
  // Queries with build sides beyond a few pages must actually have
  // spilled under a 4KB budget (Q1/Q6 are join-free and the rest can
  // legitimately fit when every build table is tiny at this scale).
  switch (q) {
    case 3:
    case 4:
    case 5:
    case 7:
    case 8:
    case 9:
    case 10:
    case 12:
      EXPECT_GT(spill_bytes_seen, 0) << "Q" << q << " never spilled";
      break;
    default:
      break;
  }
}

TEST_P(TpchSpillDifferentialTest, ForcedRadixMatchesScalarReference) {
  const int q = GetParam();
  RefRelation expected;
  {
    AccordionCluster cluster(ClusterOptions(256));
    expected = ReferenceEvaluate(
        TpchQueryPlan(q, cluster.coordinator()->catalog()), kScaleFactor);
  }
  for (int dop : {1, 4}) {
    AccordionCluster::Options options = ClusterOptions(256);
    options.engine.join.radix_min_build_rows = 64;  // radix on tiny builds
    options.engine.join.radix_partition_rows = 256;
    AccordionCluster cluster(options);
    Session session(cluster.coordinator());
    QueryOptions query_options;
    query_options.stage_dop = dop;
    query_options.task_dop = dop;
    auto query =
        session.Execute(TpchQueryPlan(q, session.catalog()), query_options);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    auto result = (*query)->Wait(120000);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::string diff = DiffRows(expected, *result);
    EXPECT_TRUE(diff.empty())
        << "Q" << q << " forced-radix dop=" << dop << ": " << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueriesForcedPaths, TpchSpillDifferentialTest,
                         ::testing::Range(1, 13));

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchDifferentialTest,
                         ::testing::Range(1, 13));

// Plan-space fuzzing: OptimizerMode::kFuzz draws every plan decision —
// join order (any connected permutation), build-side flips, broadcast vs
// partitioned exchanges, filter/projection pushdown on/off — from a seed,
// and every one of these legal rewrites must produce the oracle's exact
// result relation. 12 queries x 17 seeds = 204 plan variants. A failure
// names the (query, seed) pair, which replays deterministically.
class TpchPlanFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchPlanFuzzTest, RandomizedPlanRewritesMatchScalarReference) {
  const int q = GetParam();
  std::string sql = TpchQuerySql(q);
  RefRelation expected;
  {
    AccordionCluster cluster(ClusterOptions(256));
    expected = ReferenceEvaluate(
        TpchQueryPlan(q, cluster.coordinator()->catalog()), kScaleFactor);
  }
  AccordionCluster cluster(ClusterOptions(256));
  Session session(cluster.coordinator());
  for (uint64_t seed = 0; seed < 17; ++seed) {
    QueryOptions options;
    options.stage_dop = 2;
    options.optimizer = OptimizerOptions::Fuzz(seed);
    auto query = session.Execute(sql, options);
    ASSERT_TRUE(query.ok())
        << "Q" << q << " fuzz_seed=" << seed << ": "
        << query.status().ToString();
    auto result = (*query)->Wait(120000);
    ASSERT_TRUE(result.ok()) << "Q" << q << " fuzz_seed=" << seed << ": "
                             << result.status().ToString();
    std::string diff = DiffRows(expected, *result);
    EXPECT_TRUE(diff.empty())
        << "Q" << q << " fuzz_seed=" << seed << ": " << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(PlanFuzz, TpchPlanFuzzTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace accordion
