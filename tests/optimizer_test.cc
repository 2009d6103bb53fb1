// Unit tests for the cost-based optimizer: catalog statistics collection
// (row counts, min/max, KMV NDV sketches) including the edge cases the
// estimator must survive (empty tables, single rows, constant columns,
// skew), selectivity estimation over the filter grammar, the join-order
// DP, and the end-to-end evidence that TPC-H Q5/Q7/Q8/Q9 pick a
// non-textual join order that Explain() renders.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "optimizer/cardinality.h"
#include "optimizer/join_order.h"
#include "optimizer/options.h"
#include "optimizer/stats.h"
#include "sql/analyzer.h"
#include "sql/parser.h"
#include "storage/page_source.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

/// PageSource over pre-built pages (test fixture data).
class VectorPageSource : public PageSource {
 public:
  explicit VectorPageSource(std::vector<PagePtr> pages)
      : pages_(std::move(pages)) {}

  PagePtr Next() override {
    if (next_ >= pages_.size()) return nullptr;
    return pages_[next_++];
  }

 private:
  std::vector<PagePtr> pages_;
  size_t next_ = 0;
};

TableSchema TwoIntSchema() {
  return TableSchema("t", {{"a", DataType::kInt64}, {"b", DataType::kInt64}});
}

PagePtr IntsPage(const std::vector<int64_t>& a, const std::vector<int64_t>& b) {
  Column ca(DataType::kInt64);
  Column cb(DataType::kInt64);
  for (int64_t v : a) ca.AppendInt(v);
  for (int64_t v : b) cb.AppendInt(v);
  return Page::Make({std::move(ca), std::move(cb)});
}

// --- statistics edge cases -------------------------------------------------

TEST(StatsTest, EmptyTable) {
  VectorPageSource source({});
  TableStats stats = CollectStats(TwoIntSchema(), &source);
  EXPECT_EQ(stats.row_count, 0);
  ASSERT_EQ(stats.columns.size(), 2u);
  for (const auto& c : stats.columns) {
    EXPECT_EQ(c.row_count, 0);
    EXPECT_FALSE(c.has_min_max);
    EXPECT_EQ(c.ndv, 0);
    EXPECT_EQ(c.NdvOrOne(), 1.0);  // selectivity math must not divide by 0
  }
}

TEST(StatsTest, SingleRow) {
  VectorPageSource source({IntsPage({42}, {-7})});
  TableStats stats = CollectStats(TwoIntSchema(), &source);
  EXPECT_EQ(stats.row_count, 1);
  ASSERT_TRUE(stats.columns[0].has_min_max);
  EXPECT_EQ(stats.columns[0].min.i64, 42);
  EXPECT_EQ(stats.columns[0].max.i64, 42);
  EXPECT_EQ(stats.columns[0].ndv, 1);
  EXPECT_EQ(stats.columns[1].min.i64, -7);
  EXPECT_EQ(stats.columns[1].ndv, 1);
}

TEST(StatsTest, AllEqualColumn) {
  std::vector<int64_t> a(5000, 13);
  std::vector<int64_t> b(5000);
  for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<int64_t>(i);
  VectorPageSource source({IntsPage(a, b)});
  TableStats stats = CollectStats(TwoIntSchema(), &source);
  EXPECT_EQ(stats.row_count, 5000);
  EXPECT_EQ(stats.columns[0].ndv, 1);  // constant column
  EXPECT_EQ(stats.columns[0].min.i64, 13);
  EXPECT_EQ(stats.columns[0].max.i64, 13);
  EXPECT_EQ(stats.columns[1].ndv, 5000);  // unique column, exact via sketch
}

TEST(StatsTest, SkewedNdvAccuracy) {
  // Heavy skew: half the rows are one hot value, the rest cycle through
  // 20000 distinct values — far beyond the sketch's k, so the estimate is
  // approximate. It must stay within 15% of the truth.
  std::vector<PagePtr> pages;
  std::vector<int64_t> a;
  std::vector<int64_t> b;
  for (int64_t i = 0; i < 60000; ++i) {
    a.push_back(i % 2 == 0 ? 999999 : i % 20000);
    b.push_back(0);
    if (a.size() == 4096) {
      pages.push_back(IntsPage(a, b));
      a.clear();
      b.clear();
    }
  }
  if (!a.empty()) pages.push_back(IntsPage(a, b));
  VectorPageSource source(std::move(pages));
  TableStats stats = CollectStats(TwoIntSchema(), &source);
  // True distinct count: odd i yields the 10000 odd residues mod 20000,
  // plus the hot value 999999.
  double truth = 10001;
  double estimate = static_cast<double>(stats.columns[0].ndv);
  EXPECT_GT(estimate, truth * 0.85);
  EXPECT_LT(estimate, truth * 1.15);
  EXPECT_EQ(stats.columns[1].ndv, 1);
}

TEST(StatsTest, ExtrapolationScalesUniqueAndSaturatesLowCardinality) {
  // 1000-row sample of a 100000-row table: a near-unique column's NDV
  // scales with the table, a 10-value column's NDV stays put.
  std::vector<int64_t> unique_col(1000);
  std::vector<int64_t> lowcard_col(1000);
  for (int64_t i = 0; i < 1000; ++i) {
    unique_col[i] = i;
    lowcard_col[i] = i % 10;
  }
  VectorPageSource source({IntsPage(unique_col, lowcard_col)});
  TableStats stats = CollectStats(TwoIntSchema(), &source,
                                  /*sample_rows=*/1000,
                                  /*actual_rows=*/100000);
  EXPECT_EQ(stats.row_count, 100000);
  EXPECT_GT(stats.columns[0].ndv, 50000);  // scaled up with the table
  EXPECT_EQ(stats.columns[1].ndv, 10);     // saturated
}

// --- selectivity -----------------------------------------------------------

/// Parses `pred` out of a WHERE clause.
SqlExprPtr Pred(const std::string& pred) {
  auto query = ParseSqlQuery("SELECT a FROM t WHERE " + pred);
  ACC_CHECK(query.ok()) << query.status().ToString();
  ACC_CHECK(!query->conjuncts.empty());
  return query->conjuncts[0];
}

/// Resolver serving one column "a": 1000 rows, values [0, 100], NDV 50.
/// The parser upper-cases identifiers, so the resolver matches "A".
class OneColumnResolver {
 public:
  OneColumnResolver() {
    stats_.type = DataType::kInt64;
    stats_.row_count = 1000;
    stats_.has_min_max = true;
    stats_.min = Value::Int(0);
    stats_.max = Value::Int(100);
    stats_.ndv = 50;
  }
  ColumnStatsResolver Fn() const {
    return [this](const SqlExpr& col) -> const ColumnStats* {
      return col.text == "A" ? &stats_ : nullptr;
    };
  }

 private:
  ColumnStats stats_;
};

TEST(SelectivityTest, EqualityUsesNdv) {
  OneColumnResolver r;
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Pred("a = 7"), r.Fn()), 1.0 / 50);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Pred("a <> 7"), r.Fn()), 1.0 - 1.0 / 50);
  // Unknown column: System R default.
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Pred("zz = 7"), r.Fn()), 0.1);
}

TEST(SelectivityTest, RangeUsesMinMaxSpan) {
  OneColumnResolver r;
  EXPECT_NEAR(EstimateSelectivity(Pred("a < 25"), r.Fn()), 0.25, 1e-9);
  EXPECT_NEAR(EstimateSelectivity(Pred("a >= 75"), r.Fn()), 0.25, 1e-9);
  // Mirrored literal-on-the-left form must match.
  EXPECT_NEAR(EstimateSelectivity(Pred("25 > a"), r.Fn()), 0.25, 1e-9);
  // Out-of-range constants clamp, never go negative (but stay >= 1e-4).
  EXPECT_NEAR(EstimateSelectivity(Pred("a > 500"), r.Fn()), 1e-4, 1e-9);
  EXPECT_NEAR(EstimateSelectivity(Pred("a < 500"), r.Fn()), 1.0, 1e-9);
}

TEST(SelectivityTest, BetweenInAndBooleans) {
  OneColumnResolver r;
  EXPECT_NEAR(EstimateSelectivity(Pred("a BETWEEN 10 AND 30"), r.Fn()), 0.2,
              1e-9);
  EXPECT_NEAR(EstimateSelectivity(Pred("a IN (1, 2, 3)"), r.Fn()), 3.0 / 50,
              1e-9);
  double eq = 1.0 / 50;
  // The parser AND-splits WHERE conjuncts, so build the AND node directly.
  auto conj = std::make_shared<SqlExpr>();
  conj->kind = SqlExpr::Kind::kBinary;
  conj->text = "AND";
  conj->children = {Pred("a = 1"), Pred("a < 25")};
  EXPECT_NEAR(EstimateSelectivity(conj, r.Fn()), eq * 0.25, 1e-9);
  EXPECT_NEAR(EstimateSelectivity(Pred("a = 1 OR a = 2"), r.Fn()),
              eq + eq - eq * eq, 1e-9);
  EXPECT_NEAR(EstimateSelectivity(Pred("NOT a = 1"), r.Fn()), 1.0 - eq, 1e-9);
  EXPECT_DOUBLE_EQ(EstimateSelectivity(Pred("a LIKE '%x%'"), r.Fn()), 0.15);
}

TEST(SelectivityTest, ExprNdvColumnAndFallback) {
  OneColumnResolver r;
  EXPECT_DOUBLE_EQ(EstimateExprNdv(Pred("a = 1")->children[0], r.Fn(), 1e6),
                   50.0);
  // NDV can never exceed the input cardinality.
  EXPECT_DOUBLE_EQ(EstimateExprNdv(Pred("a = 1")->children[0], r.Fn(), 20.0),
                   20.0);
  // Unknown expressions fall back to sqrt(input).
  SqlExprPtr sum = Pred("a + a = 1")->children[0];
  EXPECT_DOUBLE_EQ(EstimateExprNdv(sum, r.Fn(), 10000.0), 100.0);
}

// --- join-order DP ---------------------------------------------------------

/// Star graph: huge fact table 0, small dims 1 and 2; the filter on dim 2
/// makes it the cheapest start.
JoinGraph StarGraph() {
  JoinGraph g;
  g.tables = {{"fact", 1e6}, {"dim1", 1000}, {"dim2", 5}};
  g.edges = {{0, 1, 1000, 1000}, {0, 2, 50, 5}};
  return g;
}

TEST(JoinOrderTest, DpStartsFromSmallestFilteredTable) {
  OptimizerOptions on;
  auto plan = PlanJoinOrder(StarGraph(), on);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->steps[0].table, 2);  // dim2 first, not textual fact-first
  EXPECT_TRUE(plan->reordered);
  // Estimates shrink through the most selective edge first.
  EXPECT_LT(plan->steps[1].est_rows, 1e6);
}

TEST(JoinOrderTest, PastSixteenTablesKeepsTextualOrder) {
  // The DP stops at 16 tables; a larger connected graph keeps FROM order
  // even when a later table is the cheaper start.
  JoinGraph g;
  for (int t = 0; t < 17; ++t) {
    g.tables.push_back({"t" + std::to_string(t), t == 16 ? 5.0 : 1e6});
  }
  for (int t = 0; t + 1 < 17; ++t) g.edges.push_back({t, t + 1, 1000, 1000});
  auto plan = PlanJoinOrder(g, OptimizerOptions{});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->steps.size(), 17u);
  for (int t = 0; t < 17; ++t) EXPECT_EQ(plan->steps[t].table, t);
  EXPECT_FALSE(plan->reordered);
}

TEST(JoinOrderTest, BuildSideAndBroadcastFollowEstimates) {
  OptimizerOptions on;
  on.broadcast_row_limit = 100;
  JoinGraph g;
  g.tables = {{"small", 10}, {"big", 100000}};
  g.edges = {{0, 1, 10, 10000}};
  auto plan = PlanJoinOrder(g, on);
  ASSERT_TRUE(plan.ok());
  // The accumulated (small) side becomes the build side, small enough to
  // broadcast.
  EXPECT_EQ(plan->steps[0].table, 0);
  EXPECT_TRUE(plan->steps[1].flip);
  EXPECT_TRUE(plan->steps[1].broadcast);

  on.broadcast_row_limit = 5;  // too small now
  plan = PlanJoinOrder(g, on);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->steps[1].broadcast);

  on.build_side_selection = false;
  plan = PlanJoinOrder(g, on);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->steps[1].flip);
}

TEST(JoinOrderTest, DisconnectedGraphRejected) {
  JoinGraph g;
  g.tables = {{"x", 10}, {"y", 10}};
  auto plan = PlanJoinOrder(g, OptimizerOptions{});
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(PlanJoinOrder(g, OptimizerOptions::Fuzz(3)).ok());
}

TEST(JoinOrderTest, FuzzIsDeterministicPerSeedAndVariesAcrossSeeds) {
  JoinGraph g;
  g.tables = {{"a", 100}, {"b", 200}, {"c", 300}, {"d", 400}};
  g.edges = {{0, 1, 10, 10}, {1, 2, 10, 10}, {2, 3, 10, 10}, {0, 3, 10, 10}};
  auto a = PlanJoinOrder(g, OptimizerOptions::Fuzz(7));
  auto b = PlanJoinOrder(g, OptimizerOptions::Fuzz(7));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->steps.size(), b->steps.size());
  for (size_t i = 0; i < a->steps.size(); ++i) {
    EXPECT_EQ(a->steps[i].table, b->steps[i].table);
    EXPECT_EQ(a->steps[i].flip, b->steps[i].flip);
    EXPECT_EQ(a->steps[i].broadcast, b->steps[i].broadcast);
  }
  // Across seeds, some decision must eventually differ.
  bool differs = false;
  for (uint64_t seed = 0; seed < 32 && !differs; ++seed) {
    auto other = PlanJoinOrder(g, OptimizerOptions::Fuzz(seed));
    ASSERT_TRUE(other.ok());
    for (size_t i = 0; i < a->steps.size(); ++i) {
      differs |= other->steps[i].table != a->steps[i].table ||
                 other->steps[i].flip != a->steps[i].flip ||
                 other->steps[i].broadcast != a->steps[i].broadcast;
    }
  }
  EXPECT_TRUE(differs);
}

// --- end-to-end over the TPC-H catalog ------------------------------------

class TpchOptimizerTest : public ::testing::Test {
 protected:
  static Catalog MakeCatalog() { return MakeTpchCatalog(0.01, 2); }
};

TEST_F(TpchOptimizerTest, NonTextualJoinOrderOnQ5Q7Q8Q9) {
  Catalog catalog = MakeCatalog();
  for (int q : {5, 7, 8, 9}) {
    auto query = ParseSqlQuery(TpchQuerySql(q));
    ASSERT_TRUE(query.ok());
    auto analyzed = AnalyzeSqlWithReport(*query, catalog);
    ASSERT_TRUE(analyzed.ok()) << "Q" << q << ": "
                               << analyzed.status().ToString();
    EXPECT_NE(analyzed->optimizer_report.find("[reordered"), std::string::npos)
        << "Q" << q << " kept the textual join order:\n"
        << analyzed->optimizer_report;
  }
}

TEST_F(TpchOptimizerTest, ReportRendersCardinalitiesAndKnobs) {
  Catalog catalog = MakeCatalog();
  auto query = ParseSqlQuery(TpchQuerySql(5));
  ASSERT_TRUE(query.ok());
  auto analyzed = AnalyzeSqlWithReport(*query, catalog);
  ASSERT_TRUE(analyzed.ok());
  const std::string& report = analyzed->optimizer_report;
  EXPECT_NE(report.find("join order:"), std::string::npos);
  EXPECT_NE(report.find("est rows"), std::string::npos);
  EXPECT_NE(report.find("build="), std::string::npos);
  EXPECT_NE(report.find("filter pushdown: on"), std::string::npos);
  // The plan itself carries per-node row estimates that Explain renders.
  EXPECT_NE(analyzed->plan->ToString().find("[est. rows:"), std::string::npos);
}

TEST_F(TpchOptimizerTest, EmptyAndTinyTableStatsStillPlan) {
  // A catalog whose stats say "empty" must not break planning: estimates
  // clamp to >= 1 row.
  Catalog catalog;
  catalog.AddTable(TwoIntSchema(), TableLayout{1, 1});
  TableSchema other("u", {{"k", DataType::kInt64}});
  catalog.AddTable(other, TableLayout{1, 1});
  VectorPageSource empty({});
  catalog.SetStats("t", CollectStats(TwoIntSchema(), &empty));
  VectorPageSource single({[] {
    Column c(DataType::kInt64);
    c.AppendInt(5);
    return Page::Make({std::move(c)});
  }()});
  catalog.SetStats("u", CollectStats(other, &single));

  auto query = ParseSqlQuery("SELECT a FROM t, u WHERE a = k AND b < 10");
  ASSERT_TRUE(query.ok());
  auto analyzed = AnalyzeSqlWithReport(*query, catalog);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->optimizer_report.find("join order:"), std::string::npos);
}

}  // namespace
}  // namespace accordion
