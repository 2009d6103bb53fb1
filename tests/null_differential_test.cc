#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/session.h"
#include "cluster/cluster.h"
#include "sql/analyzer.h"
#include "tests/reference_eval.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

// Three-valued-logic differential harness: TPC-H tables with NULLs
// injected at scan time (content-keyed, so every dop / batch size / spill
// shape sees identical data — see vector/page.h InjectNulls) run the same
// plan through the engine and through the scalar reference oracle, whose
// Value-level 3VL semantics are spelled out row by row. Any divergence in
// NULL join-key matching, outer-join padding, null-aware anti semantics,
// NULL grouping, Kleene AND/OR or null-skipping accumulators shows up as
// a row-multiset diff.

constexpr double kScaleFactor = 0.005;
constexpr uint64_t kSeeds[] = {17, 1031, 998244353};
constexpr double kRates[] = {0.0, 0.01, 0.30};

// Each query targets a construct whose NULL behavior is easy to get
// wrong. No ORDER BY: DiffRows compares row multisets, and a limit over
// ties would make results legitimately ambiguous.
const char* kQueries[] = {
    // LEFT outer join: NULL probe keys match nothing and survive padded;
    // the ON build-side filter is the one placement pushable below it.
    "SELECT o_orderkey, o_totalprice, c_name FROM orders "
    "LEFT JOIN customer ON o_custkey = c_custkey AND c_acctbal > 0",
    // RIGHT outer join with a probe-side ON filter; unmatched customers
    // drain NULL-padded from the build.
    "SELECT c_custkey, c_acctbal, o_totalprice FROM orders "
    "RIGHT JOIN customer ON o_custkey = c_custkey AND o_totalprice > 200000",
    // FULL outer join: both sides pad.
    "SELECT o_orderkey, o_orderdate, c_custkey FROM orders "
    "FULL OUTER JOIN customer ON o_custkey = c_custkey",
    // Left semi join (IN): NULL probe keys never qualify.
    "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey IN "
    "(SELECT c_custkey FROM customer WHERE c_acctbal > 0)",
    // Null-aware anti join (NOT IN): one NULL inner key empties the
    // result; NULL probe keys never qualify.
    "SELECT o_orderkey FROM orders WHERE o_custkey NOT IN "
    "(SELECT c_custkey FROM customer WHERE c_acctbal > 5000)",
    // Plain anti join (NOT EXISTS): NULL correlation keys DO qualify.
    "SELECT count(*) AS n FROM orders WHERE NOT EXISTS "
    "(SELECT * FROM customer WHERE c_custkey = o_custkey AND "
    "c_acctbal > 5000)",
    // DISTINCT: NULL is one group per column, and grouped pairs must
    // survive shuffles and merges intact.
    "SELECT DISTINCT o_orderpriority, o_shippriority FROM orders",
    // CASE with and without ELSE, IS NULL, Kleene AND in WHERE, plus the
    // full set of null-skipping accumulators over a nullable group key.
    "SELECT CASE WHEN o_totalprice > 200000 THEN 'big' "
    "WHEN o_totalprice IS NULL THEN 'unknown' END AS bucket, "
    "count(*) AS rows_n, count(o_totalprice) AS vals_n, "
    "sum(o_totalprice) AS total, avg(o_totalprice) AS mean, "
    "min(o_orderdate) AS first_date, max(o_orderdate) AS last_date "
    "FROM orders WHERE o_orderkey IS NOT NULL AND "
    "(o_totalprice > 1000 OR o_totalprice IS NULL) GROUP BY bucket",
    // Outer join feeding aggregation: padded NULLs must be skipped by
    // sum/count(col) but counted by count(*), under a nullable group key.
    "SELECT c_mktsegment, count(*) AS all_n, count(o_orderkey) AS n, "
    "sum(o_totalprice) AS total FROM orders "
    "RIGHT JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment",
};

AccordionCluster::Options ClusterOptions(double rate, uint64_t seed) {
  AccordionCluster::Options options;
  options.num_workers = 2;
  options.num_storage_nodes = 2;
  options.scale_factor = kScaleFactor;
  options.engine.batch_rows = 256;
  options.engine.cost.scale = 0;
  options.engine.rpc_latency_ms = 0;
  options.engine.null_injection_rate = rate;
  options.engine.null_injection_seed = seed;
  return options;
}

void RunDifferential(const AccordionCluster::Options& base_options,
                     const std::string& label) {
  // Plans are built once against a plain catalog: statistics ignore
  // injection, so every engine configuration and the oracle agree on the
  // plan tree byte for byte.
  Catalog catalog = MakeTpchCatalog(kScaleFactor, 2);
  for (const char* sql : kQueries) {
    auto plan = SqlToPlan(sql, catalog);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    RefRelation expected =
        ReferenceEvaluate(*plan, kScaleFactor,
                          base_options.engine.null_injection_rate,
                          base_options.engine.null_injection_seed);
    for (int dop : {1, 4}) {
      AccordionCluster cluster(base_options);
      Session session(cluster.coordinator());
      QueryOptions query_options;
      query_options.stage_dop = dop;
      query_options.task_dop = dop;
      auto query = session.Execute(*plan, query_options);
      ASSERT_TRUE(query.ok()) << sql << ": " << query.status().ToString();
      auto result = (*query)->Wait(120000);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
      std::string diff = DiffRows(expected, *result);
      EXPECT_TRUE(diff.empty()) << label << " dop=" << dop << "\n"
                                << sql << "\n"
                                << diff;
    }
  }
}

class NullDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(NullDifferentialTest, EngineMatchesOracleUnderNullInjection) {
  const uint64_t seed = kSeeds[GetParam()];
  for (double rate : kRates) {
    RunDifferential(ClusterOptions(rate, seed),
                    "seed=" + std::to_string(seed) +
                        " rate=" + std::to_string(rate));
  }
}

// The grace-spill join path must implement the same NULL semantics: a
// build budget small enough to force spilling (partition files + pairwise
// drain).
TEST_P(NullDifferentialTest, ForcedSpillMatchesOracleUnderNullInjection) {
  const uint64_t seed = kSeeds[GetParam()];
  AccordionCluster::Options options = ClusterOptions(0.30, seed);
  options.engine.memory.query_build_bytes = 4096;
  options.engine.memory.spill_chunk_bytes = 16384;
  RunDifferential(options, "forced-spill seed=" + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(ThreeSeeds, NullDifferentialTest,
                         ::testing::Range(0, 3));

// Sanity check on the injection function itself: deterministic across
// page shapes, approximately the requested rate, zeroed payloads.
TEST(NullInjectionTest, ContentKeyedAndShapeInvariant) {
  std::vector<PagePtr> small = GenerateSplit("customer", kScaleFactor, 0, 1, 64);
  std::vector<PagePtr> big = GenerateSplit("customer", kScaleFactor, 0, 1, 4096);
  auto flatten = [](const std::vector<PagePtr>& pages, double rate,
                    uint64_t seed) {
    std::vector<PagePtr> out;
    for (const auto& p : pages) out.push_back(InjectNulls(p, rate, seed));
    return Page::Concat(out);
  };
  PagePtr a = flatten(small, 0.3, 42);
  PagePtr b = flatten(big, 0.3, 42);
  ASSERT_EQ(a->num_rows(), b->num_rows());
  int64_t nulls = 0;
  for (int c = 0; c < a->num_columns(); ++c) {
    for (int64_t r = 0; r < a->num_rows(); ++r) {
      ASSERT_EQ(a->column(c).IsNull(r), b->column(c).IsNull(r))
          << "row " << r << " col " << c;
      if (a->column(c).IsNull(r)) {
        ++nulls;
        // Zeroed-payload invariant (join key encoding relies on it).
        switch (a->column(c).type()) {
          case DataType::kDouble:
            EXPECT_EQ(a->column(c).DoubleAt(r), 0.0);
            break;
          case DataType::kString:
            EXPECT_TRUE(a->column(c).StrAt(r).empty());
            break;
          default:
            EXPECT_EQ(a->column(c).IntAt(r), 0);
            break;
        }
      }
    }
  }
  const double cells =
      static_cast<double>(a->num_rows()) * a->num_columns();
  const double observed = static_cast<double>(nulls) / cells;
  EXPECT_GT(observed, 0.25);
  EXPECT_LT(observed, 0.35);
  // Different seeds draw different cells; rate 0 is the identity.
  PagePtr c = flatten(small, 0.3, 43);
  bool any_diff = false;
  for (int col = 0; col < a->num_columns() && !any_diff; ++col) {
    for (int64_t r = 0; r < a->num_rows(); ++r) {
      if (a->column(col).IsNull(r) != c->column(col).IsNull(r)) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
  for (const auto& p : small) EXPECT_EQ(InjectNulls(p, 0.0, 42).get(), p.get());
}

}  // namespace
}  // namespace accordion
