#include <gtest/gtest.h>

#include "plan/builder.h"
#include "plan/fragment.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

Catalog TestCatalog() { return MakeTpchCatalog(0.01, 10); }

const PlanFragment* FindStage(const std::vector<PlanFragment>& fragments,
                              int stage_id) {
  for (const auto& f : fragments) {
    if (f.stage_id == stage_id) return &f;
  }
  return nullptr;
}

TEST(PlanBuilderTest, ScanPrunesColumns) {
  Catalog catalog = TestCatalog();
  PlanBuilder b(&catalog);
  auto rel = b.Scan("orders", {"o_orderkey", "o_orderdate"});
  EXPECT_EQ(rel.names.size(), 2u);
  EXPECT_EQ(rel.node->output_types().size(), 2u);
  EXPECT_EQ(rel.TypeOf("o_orderdate"), DataType::kDate);
  EXPECT_EQ(rel.Ch("o_orderkey"), 0);

  // The scan node itself carries the column list: no pruning Project.
  auto lineitem = b.Scan("lineitem", {"l_shipdate", "l_orderkey"});
  ASSERT_EQ(lineitem.node->kind(), PlanNodeKind::kTableScan);
  const auto& scan = static_cast<const TableScanNode&>(*lineitem.node);
  EXPECT_EQ(scan.columns(), (std::vector<int>{10, 0}));
  EXPECT_EQ(scan.output_types(),
            (std::vector<DataType>{DataType::kDate, DataType::kInt64}));
  EXPECT_DEATH(b.Scan("lineitem", {"l_orderkey", "l_orderkey"}), "twice");
}

TEST(PlanBuilderTest, FullScanIsIdentity) {
  Catalog catalog = TestCatalog();
  PlanBuilder b(&catalog);
  std::vector<std::string> all;
  TableSchema region_schema = TpchSchema("region");
  for (const auto& def : region_schema.columns()) all.push_back(def.name);
  auto rel = b.Scan("region", all);
  EXPECT_EQ(rel.node->kind(), PlanNodeKind::kTableScan);
}

TEST(PlanBuilderTest, JoinCreatesExchangesAndLocalExchange) {
  Catalog catalog = TestCatalog();
  PlanBuilder b(&catalog);
  auto orders = b.Scan("orders", {"o_orderkey", "o_custkey"});
  auto customer = b.Scan("customer", {"c_custkey", "c_nationkey"});
  auto joined = b.Join(orders, customer, {"o_custkey"}, {"c_custkey"},
                       {"c_nationkey"});
  ASSERT_EQ(joined.node->kind(), PlanNodeKind::kHashJoin);
  const auto& join = static_cast<const HashJoinNode&>(*joined.node);
  EXPECT_EQ(join.probe()->kind(), PlanNodeKind::kExchange);
  EXPECT_EQ(join.build()->kind(), PlanNodeKind::kLocalExchange);
  EXPECT_EQ(join.build()->children()[0]->kind(), PlanNodeKind::kExchange);
  // Output names: probe columns then selected build columns.
  EXPECT_EQ(joined.names.size(), 3u);
  EXPECT_EQ(joined.names[2], "c_nationkey");
}

TEST(PlanBuilderTest, BroadcastJoinUsesBroadcastBuild) {
  Catalog catalog = TestCatalog();
  PlanBuilder b(&catalog);
  auto supplier = b.Scan("supplier", {"s_suppkey", "s_nationkey"});
  auto nation = b.Scan("nation", {"n_nationkey", "n_name"});
  auto joined = b.Join(supplier, nation, {"s_nationkey"}, {"n_nationkey"},
                       {"n_name"}, /*broadcast=*/true);
  const auto& join = static_cast<const HashJoinNode&>(*joined.node);
  const auto& probe_ex = static_cast<const ExchangeNode&>(*join.probe());
  EXPECT_EQ(probe_ex.partitioning(), Partitioning::kArbitrary);
  const auto& build_ex =
      static_cast<const ExchangeNode&>(*join.build()->children()[0]);
  EXPECT_EQ(build_ex.partitioning(), Partitioning::kBroadcast);
}

TEST(PlanBuilderTest, AggregateIsTwoPhase) {
  Catalog catalog = TestCatalog();
  PlanBuilder b(&catalog);
  auto l = b.Scan("lineitem", {"l_orderkey", "l_quantity"});
  auto agg = b.Aggregate(l, {"l_orderkey"},
                         {{AggFunc::kSum, "l_quantity", "total"}});
  ASSERT_EQ(agg.node->kind(), PlanNodeKind::kFinalAggregation);
  const auto& exchange = *agg.node->children()[0];
  ASSERT_EQ(exchange.kind(), PlanNodeKind::kExchange);
  EXPECT_EQ(static_cast<const ExchangeNode&>(exchange).partitioning(),
            Partitioning::kGather);
  EXPECT_EQ(exchange.children()[0]->kind(),
            PlanNodeKind::kPartialAggregation);
  EXPECT_EQ(agg.names[1], "total");
  // sum(double) result is double.
  EXPECT_EQ(agg.node->output_types()[1], DataType::kDouble);
}

TEST(PlanBuilderTest, AvgPartialStateIsTwoColumns) {
  Catalog catalog = TestCatalog();
  PlanBuilder b(&catalog);
  auto l = b.Scan("lineitem", {"l_orderkey", "l_quantity"});
  auto agg =
      b.Aggregate(l, {"l_orderkey"}, {{AggFunc::kAvg, "l_quantity", "aq"}});
  const auto& partial = *agg.node->children()[0]->children()[0];
  // key + (sum, count)
  EXPECT_EQ(partial.output_types().size(), 3u);
  EXPECT_EQ(partial.output_types()[1], DataType::kDouble);
  EXPECT_EQ(partial.output_types()[2], DataType::kInt64);
  EXPECT_EQ(agg.node->output_types()[1], DataType::kDouble);
}

TEST(PlanBuilderTest, OrderByLimitAfterAggStaysInStage) {
  Catalog catalog = TestCatalog();
  PlanBuilder b(&catalog);
  auto l = b.Scan("lineitem", {"l_orderkey", "l_quantity"});
  auto agg = b.Aggregate(l, {"l_orderkey"},
                         {{AggFunc::kSum, "l_quantity", "total"}});
  auto sorted = b.OrderByLimit(agg, {{"total", false}}, 10);
  // No exchange inserted: final TopN sits directly on the final agg.
  ASSERT_EQ(sorted.node->kind(), PlanNodeKind::kTopN);
  EXPECT_FALSE(static_cast<const TopNNode&>(*sorted.node).partial());
  EXPECT_EQ(sorted.node->children()[0]->kind(),
            PlanNodeKind::kFinalAggregation);
}

TEST(PlanBuilderTest, OrderByLimitOnScanUsesPartialTopN) {
  Catalog catalog = TestCatalog();
  PlanBuilder b(&catalog);
  auto c = b.Scan("customer", {"c_custkey", "c_acctbal"});
  auto sorted = b.OrderByLimit(c, {{"c_acctbal", false}}, 5);
  ASSERT_EQ(sorted.node->kind(), PlanNodeKind::kTopN);
  const auto& final_topn = static_cast<const TopNNode&>(*sorted.node);
  EXPECT_FALSE(final_topn.partial());
  const auto& exchange = *sorted.node->children()[0];
  ASSERT_EQ(exchange.kind(), PlanNodeKind::kExchange);
  const auto& partial = *exchange.children()[0];
  ASSERT_EQ(partial.kind(), PlanNodeKind::kTopN);
  EXPECT_TRUE(static_cast<const TopNNode&>(partial).partial());
}

TEST(FragmenterTest, SingleStageWithoutExchanges) {
  Catalog catalog = TestCatalog();
  PlanBuilder b(&catalog);
  auto rel = b.Scan("region", {"r_regionkey", "r_name"});
  auto fragments = FragmentPlan(b.Output(rel));
  ASSERT_EQ(fragments.size(), 1u);
  EXPECT_EQ(fragments[0].stage_id, 0);
  EXPECT_EQ(fragments[0].parent_stage_id, -1);
  EXPECT_EQ(fragments[0].scan_table, "region");
}

TEST(FragmenterTest, Q3MatchesPaperFigure21) {
  Catalog catalog = TestCatalog();
  auto fragments = FragmentPlan(TpchQueryPlan(3, catalog));
  ASSERT_EQ(fragments.size(), 6u);

  const auto* s0 = FindStage(fragments, 0);
  ASSERT_NE(s0, nullptr);
  EXPECT_TRUE(s0->has_final_stateful);
  EXPECT_EQ(s0->source_stage_ids, std::vector<int>{1});

  const auto* s1 = FindStage(fragments, 1);
  ASSERT_NE(s1, nullptr);
  EXPECT_TRUE(s1->has_join);
  EXPECT_EQ(s1->parent_stage_id, 0);
  EXPECT_EQ(s1->source_stage_ids, (std::vector<int>{2, 3}));

  const auto* s2 = FindStage(fragments, 2);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s2->scan_table, "lineitem");
  EXPECT_EQ(s2->parent_stage_id, 1);
  EXPECT_EQ(s2->output_partitioning, Partitioning::kHash);

  const auto* s3 = FindStage(fragments, 3);
  ASSERT_NE(s3, nullptr);
  EXPECT_TRUE(s3->has_join);
  EXPECT_EQ(s3->parent_stage_id, 1);
  EXPECT_EQ(s3->source_stage_ids, (std::vector<int>{4, 5}));

  const auto* s4 = FindStage(fragments, 4);
  ASSERT_NE(s4, nullptr);
  EXPECT_EQ(s4->scan_table, "orders");

  const auto* s5 = FindStage(fragments, 5);
  ASSERT_NE(s5, nullptr);
  EXPECT_EQ(s5->scan_table, "customer");
}

TEST(FragmenterTest, Q2JMatchesPaperFigure15) {
  Catalog catalog = TestCatalog();
  auto fragments = FragmentPlan(TpchQ2JPlan(catalog));
  ASSERT_EQ(fragments.size(), 4u);
  EXPECT_TRUE(FindStage(fragments, 0)->has_final_stateful);
  EXPECT_TRUE(FindStage(fragments, 1)->has_join);
  EXPECT_EQ(FindStage(fragments, 2)->scan_table, "lineitem");
  EXPECT_EQ(FindStage(fragments, 3)->scan_table, "orders");
  EXPECT_EQ(FindStage(fragments, 2)->output_partitioning,
            Partitioning::kHash);
}

TEST(FragmenterTest, ShuffleStageIsDetected) {
  Catalog catalog = TestCatalog();
  auto fragments = FragmentPlan(ShuffleBottleneckPlan(catalog, true));
  // Fig 27: output, join(+final agg upstream), shuffle stage, orders scan,
  // customer scan.
  bool found_shuffle = false;
  for (const auto& f : fragments) {
    if (f.is_shuffle_stage) {
      found_shuffle = true;
      EXPECT_TRUE(f.scan_table.empty());
      ASSERT_EQ(f.source_stage_ids.size(), 1u);
      EXPECT_EQ(FindStage(fragments, f.source_stage_ids[0])->scan_table,
                "orders");
    }
  }
  EXPECT_TRUE(found_shuffle);
  auto without = FragmentPlan(ShuffleBottleneckPlan(catalog, false));
  for (const auto& f : without) EXPECT_FALSE(f.is_shuffle_stage);
}

TEST(FragmenterTest, AllTwelveQueriesFragmentCleanly) {
  Catalog catalog = TestCatalog();
  for (int q = 1; q <= 12; ++q) {
    auto fragments = FragmentPlan(TpchQueryPlan(q, catalog));
    ASSERT_GE(fragments.size(), 2u) << "Q" << q;
    // Exactly one root.
    int roots = 0;
    for (const auto& f : fragments) roots += f.parent_stage_id == -1;
    EXPECT_EQ(roots, 1) << "Q" << q;
    // Parent/child ids are consistent and acyclic (child id > parent id).
    for (const auto& f : fragments) {
      for (int src : f.source_stage_ids) {
        const auto* child = FindStage(fragments, src);
        ASSERT_NE(child, nullptr) << "Q" << q;
        EXPECT_EQ(child->parent_stage_id, f.stage_id) << "Q" << q;
        EXPECT_GT(src, f.stage_id) << "Q" << q;
      }
    }
    // Every leaf fragment scans a base table.
    for (const auto& f : fragments) {
      if (f.source_stage_ids.empty()) {
        EXPECT_TRUE(f.IsScanStage()) << "Q" << q << " stage " << f.stage_id;
      }
    }
  }
}

TEST(FragmenterTest, PlanPrintingMentionsStages) {
  Catalog catalog = TestCatalog();
  auto fragments = FragmentPlan(TpchQueryPlan(3, catalog));
  std::string all;
  for (const auto& f : fragments) all += f.ToString();
  EXPECT_NE(all.find("TableScan(lineitem)"), std::string::npos);
  EXPECT_NE(all.find("RemoteSource"), std::string::npos);
  EXPECT_NE(all.find("HashJoin"), std::string::npos);
}

}  // namespace
}  // namespace accordion
