#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "api/session.h"
#include "cluster/cluster.h"
#include "plan/fragment.h"
#include "sql/analyzer.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

Catalog TestCatalog() { return MakeTpchCatalog(0.005, 2); }

TEST(LexerTest, TokenizesKeywordsNumbersStrings) {
  auto tokens = Tokenize("SELECT x, 42, 3.14, 'it''s' FROM t -- comment");
  ASSERT_TRUE(tokens.ok());
  ASSERT_GE(tokens->size(), 9u);
  EXPECT_TRUE((*tokens)[0].IsKeyword("SELECT"));
  EXPECT_EQ((*tokens)[2].text, ",");
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kInteger);
  EXPECT_EQ((*tokens)[5].kind, TokenKind::kDecimal);
  EXPECT_EQ((*tokens)[7].text, "it's");
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(LexerTest, MultiCharOperators) {
  auto tokens = Tokenize("a <= b <> c != d >= e");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "<=");
  EXPECT_EQ((*tokens)[3].text, "<>");
  EXPECT_EQ((*tokens)[5].text, "<>");  // != normalized
  EXPECT_EQ((*tokens)[7].text, ">=");
}

TEST(LexerTest, RejectsUnterminatedString) {
  EXPECT_FALSE(Tokenize("SELECT 'oops").ok());
}

TEST(ParserTest, ParsesSelectFromWhere) {
  auto query = ParseSqlQuery(
      "SELECT o_orderkey FROM orders WHERE o_orderdate < DATE '1995-03-15'");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->select_items.size(), 1u);
  EXPECT_EQ(query->from.size(), 1u);
  EXPECT_EQ(query->from[0].table, "ORDERS");
  EXPECT_EQ(query->conjuncts.size(), 1u);
}

TEST(ParserTest, SplitsAndConjunct) {
  auto query = ParseSqlQuery(
      "SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->conjuncts.size(), 3u);
}

TEST(ParserTest, ParsesJoinOnIntoConjuncts) {
  auto query = ParseSqlQuery(
      "SELECT o_orderkey FROM lineitem JOIN orders ON l_orderkey = "
      "o_orderkey");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->from.size(), 2u);
  EXPECT_EQ(query->conjuncts.size(), 1u);
}

TEST(ParserTest, ParsesGroupOrderLimit) {
  auto query = ParseSqlQuery(
      "SELECT l_shipmode, count(*) AS n FROM lineitem GROUP BY l_shipmode "
      "ORDER BY n DESC LIMIT 5");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->group_by.size(), 1u);
  ASSERT_EQ(query->order_by.size(), 1u);
  EXPECT_FALSE(query->order_by[0].ascending);
  EXPECT_EQ(query->limit, 5);
}

TEST(ParserTest, ParsesCaseInBetweenExtract) {
  auto query = ParseSqlQuery(
      "SELECT CASE WHEN a IN ('X','Y') THEN 1 ELSE 0 END, "
      "EXTRACT(YEAR FROM d) FROM t WHERE b BETWEEN 1 AND 5");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->select_items[0].expr->kind, SqlExpr::Kind::kCaseWhen);
  EXPECT_EQ(query->select_items[1].expr->kind, SqlExpr::Kind::kExtractYear);
  EXPECT_EQ(query->conjuncts[0]->kind, SqlExpr::Kind::kBetween);
}

TEST(ParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseSqlQuery("SELEKT x FROM t").ok());
  EXPECT_FALSE(ParseSqlQuery("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSqlQuery("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSqlQuery("SELECT a FROM t LIMIT abc").ok());
  EXPECT_FALSE(ParseSqlQuery("SELECT o_orderkey FROM orders AS").ok());
  EXPECT_FALSE(
      ParseSqlQuery("SELECT o_orderkey FROM orders AS WHERE x > 1").ok());
}

TEST(AnalyzerTest, LowersScanFilterProject) {
  Catalog catalog = TestCatalog();
  auto plan = SqlToPlan(
      "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > "
      "100000",
      catalog);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto fragments = FragmentPlan(*plan);
  EXPECT_EQ(fragments.size(), 1u);
  EXPECT_EQ(fragments[0].scan_table, "orders");
}

TEST(AnalyzerTest, LowersJoinWithPushdown) {
  Catalog catalog = TestCatalog();
  auto plan = SqlToPlan(
      "SELECT count(l_orderkey) FROM lineitem, orders "
      "WHERE l_orderkey = o_orderkey AND o_orderdate < DATE '1995-01-01'",
      catalog);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto fragments = FragmentPlan(*plan);
  // join stage + 2 scan stages + final agg stage.
  EXPECT_EQ(fragments.size(), 4u);
  bool has_join = false;
  for (const auto& f : fragments) has_join |= f.has_join;
  EXPECT_TRUE(has_join);
}

TEST(AnalyzerTest, UnknownTableAndColumnFail) {
  Catalog catalog = TestCatalog();
  auto no_table = SqlToPlan("SELECT x FROM ghosts", catalog);
  ASSERT_FALSE(no_table.ok());
  EXPECT_EQ(no_table.status().code(), StatusCode::kNotFound);
  auto no_column = SqlToPlan("SELECT ghost_col FROM orders", catalog);
  ASSERT_FALSE(no_column.ok());
  EXPECT_EQ(no_column.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      SqlToPlan("SELECT o_orderkey FROM orders, customer", catalog).ok());
}

// Every malformed or out-of-subset query must come back as a Status; none
// of these may abort the process (they used to trip ACC_CHECKs in the
// expression factories / plan builder).
TEST(AnalyzerTest, TypeMismatchesReturnStatusNotAbort) {
  Catalog catalog = TestCatalog();
  const char* bad[] = {
      // Arithmetic on strings / booleans.
      "SELECT c_mktsegment + 1 FROM customer",
      "SELECT c_name - c_address FROM customer",
      // String vs non-string comparison.
      "SELECT c_custkey FROM customer WHERE c_mktsegment > 5",
      "SELECT c_custkey FROM customer WHERE c_acctbal = 'rich'",
      // Logical operators over non-booleans.
      "SELECT c_custkey FROM customer WHERE c_acctbal AND c_custkey",
      "SELECT c_custkey FROM customer WHERE NOT c_acctbal",
      // LIKE / EXTRACT on wrong types.
      "SELECT c_custkey FROM customer WHERE c_acctbal LIKE 'x%'",
      "SELECT EXTRACT(YEAR FROM c_name) FROM customer",
      // IN / BETWEEN literal type mismatches.
      "SELECT c_custkey FROM customer WHERE c_acctbal IN ('a', 'b')",
      "SELECT c_custkey FROM customer WHERE c_mktsegment BETWEEN 1 AND 5",
      // CASE branch type mismatch / non-bool WHEN.
      "SELECT CASE WHEN c_custkey = 1 THEN 'x' ELSE 0 END FROM customer",
      "SELECT CASE WHEN c_custkey THEN 1 ELSE 0 END FROM customer",
      // Aggregate misuse.
      "SELECT sum(c_mktsegment) FROM customer",
      "SELECT sum(count(c_custkey)) FROM customer",
      "SELECT c_custkey FROM customer WHERE count(c_custkey) > 1",
      // Unknown GROUP BY / ORDER BY columns.
      "SELECT count(*) AS n FROM customer GROUP BY ghost",
      "SELECT c_custkey FROM customer ORDER BY ghost",
      // Aggregates over grouped output that isn't projected.
      "SELECT c_name, count(*) AS n FROM customer GROUP BY c_mktsegment",
  };
  for (const char* sql : bad) {
    auto plan = SqlToPlan(sql, catalog);
    EXPECT_FALSE(plan.ok()) << "accepted: " << sql;
  }
}

TEST(AnalyzerTest, MalformedDatesAreInvalidArgument) {
  Catalog catalog = TestCatalog();
  const char* bad[] = {
      // DATE literals.
      "SELECT count(*) AS n FROM orders WHERE o_orderdate < DATE 'banana'",
      "SELECT count(*) AS n FROM orders WHERE o_orderdate < DATE '1995-02-30'",
      "SELECT count(*) AS n FROM orders WHERE o_orderdate < DATE '1995-13-45'",
      "SELECT count(*) AS n FROM orders "
      "WHERE o_orderdate < DATE '1995-01-01junk'",
      // Strings coerced to dates, on either side, in BETWEEN and IN.
      "SELECT count(*) AS n FROM orders WHERE o_orderdate < '1995-02-30'",
      "SELECT count(*) AS n FROM orders WHERE 'banana' < o_orderdate",
      "SELECT count(*) AS n FROM orders "
      "WHERE o_orderdate BETWEEN DATE '1995-01-01' AND '1995-02-30'",
      "SELECT count(*) AS n FROM orders "
      "WHERE o_orderdate IN ('1995-01-01', '1995-1-2')",
  };
  for (const char* sql : bad) {
    auto plan = SqlToPlan(sql, catalog);
    ASSERT_FALSE(plan.ok()) << "accepted: " << sql;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  EXPECT_TRUE(SqlToPlan("SELECT count(*) AS n FROM orders "
                        "WHERE o_orderdate < DATE '1996-02-29'",
                        catalog)
                  .ok());
}

TEST(AnalyzerTest, UnsupportedSyntaxReturnsParseError) {
  Catalog catalog = TestCatalog();
  const char* bad[] = {
      "INSERT INTO orders VALUES (1)",
      "SELECT * FROM (SELECT 1)",
      "SELECT a FROM t; SELECT b FROM u",
  };
  for (const char* sql : bad) {
    auto plan = SqlToPlan(sql, catalog);
    EXPECT_FALSE(plan.ok()) << "accepted: " << sql;
  }
}

TEST(LexerTest, BlockComments) {
  auto tokens = Tokenize("SELECT /* a\n multi-line comment */ x FROM t");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  EXPECT_EQ((*tokens)[1].text, "X");
  EXPECT_FALSE(Tokenize("SELECT /* oops").ok());
}

TEST(ParserTest, ParsesHavingExistsAndScalarSubqueries) {
  auto query = ParseSqlQuery(
      "SELECT o_orderpriority, count(*) AS n FROM orders "
      "WHERE EXISTS (SELECT * FROM lineitem WHERE l_orderkey = o_orderkey) "
      "AND o_totalprice > (SELECT avg(o_totalprice) FROM orders) "
      "GROUP BY o_orderpriority HAVING count(*) > 1 AND count(*) < 100");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->conjuncts.size(), 2u);
  EXPECT_EQ(query->conjuncts[0]->kind, SqlExpr::Kind::kExists);
  ASSERT_NE(query->conjuncts[0]->subquery, nullptr);
  EXPECT_TRUE(query->conjuncts[0]->subquery->select_star);
  EXPECT_EQ(query->conjuncts[1]->children[1]->kind,
            SqlExpr::Kind::kScalarSubquery);
  EXPECT_EQ(query->having.size(), 2u);  // AND-split like WHERE
}

TEST(ParserTest, BindsPlaceholdersInsideSubqueries) {
  auto query = ParseSqlQuery(
      "SELECT o_orderkey FROM orders WHERE EXISTS (SELECT * FROM lineitem "
      "WHERE l_orderkey = o_orderkey AND l_quantity > ?)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->placeholder_count, 1);
  auto bound = BindPlaceholders(*query, {Value::Double(10.0)});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  const auto& inner = bound->conjuncts[0]->subquery->conjuncts;
  ASSERT_EQ(inner.size(), 2u);
  EXPECT_EQ(inner[1]->children[1]->kind, SqlExpr::Kind::kBoundValue);
  // The original query stays rebindable.
  EXPECT_EQ(query->conjuncts[0]
                ->subquery->conjuncts[1]
                ->children[1]
                ->kind,
            SqlExpr::Kind::kPlaceholder);
}

// Every construct added with the full-TPC-H SQL pass rejects its
// out-of-subset and ill-typed uses with the documented StatusCode — user
// input must never abort the process.
TEST(AnalyzerTest, NewConstructsReturnTypedErrors) {
  Catalog catalog = TestCatalog();
  struct Case {
    const char* sql;
    StatusCode code;
  };
  const Case bad[] = {
      // HAVING misuse.
      {"SELECT count(*) AS n FROM orders HAVING count(*) > 1",
       StatusCode::kInvalidArgument},
      {"SELECT o_orderpriority, count(*) AS n FROM orders "
       "GROUP BY o_orderpriority HAVING sum(o_totalprice)",
       StatusCode::kInvalidArgument},
      {"SELECT o_orderpriority, count(*) AS n FROM orders "
       "GROUP BY o_orderpriority HAVING o_totalprice > 1",
       StatusCode::kInvalidArgument},
      // GROUP BY key misuse.
      {"SELECT count(*) AS n FROM orders GROUP BY count(*)",
       StatusCode::kInvalidArgument},
      {"SELECT count(*) AS n FROM orders GROUP BY 1",
       StatusCode::kInvalidArgument},
      {"SELECT count(*) AS n FROM orders GROUP BY n",
       StatusCode::kInvalidArgument},
      // Alias resolution and self-joins.
      {"SELECT n_name FROM nation n1, nation n2 "
       "WHERE n1.n_nationkey = n2.n_nationkey",
       StatusCode::kInvalidArgument},
      {"SELECT n9.n_name FROM nation n1, nation n2 "
       "WHERE n1.n_nationkey = n2.n_nationkey",
       StatusCode::kInvalidArgument},
      {"SELECT n1.n_ghost FROM nation n1, nation n2 "
       "WHERE n1.n_nationkey = n2.n_nationkey",
       StatusCode::kInvalidArgument},
      {"SELECT n_name FROM nation, nation", StatusCode::kInvalidArgument},
      // Join predicates over mismatched types.
      {"SELECT c_custkey FROM customer, nation WHERE c_name = n_nationkey",
       StatusCode::kInvalidArgument},
      // Subquery placement and shape.
      {"SELECT o_orderkey FROM orders WHERE o_orderkey NOT IN "
       "(SELECT l_orderkey FROM lineitem WHERE l_orderkey = o_orderkey)",
       StatusCode::kUnimplemented},
      {"SELECT o_orderkey FROM orders WHERE o_totalprice > 1 OR EXISTS "
       "(SELECT * FROM lineitem WHERE l_orderkey = o_orderkey)",
       StatusCode::kInvalidArgument},
      {"SELECT EXISTS (SELECT * FROM lineitem WHERE l_orderkey = "
       "o_orderkey) FROM orders",
       StatusCode::kInvalidArgument},
      // Non-scalar subquery in scalar position.
      {"SELECT o_orderkey FROM orders WHERE o_totalprice = "
       "(SELECT l_quantity FROM lineitem WHERE l_orderkey = o_orderkey)",
       StatusCode::kInvalidArgument},
      {"SELECT o_orderkey FROM orders WHERE o_totalprice = "
       "(SELECT min(l_quantity) FROM lineitem WHERE l_orderkey = o_orderkey "
       "GROUP BY l_suppkey)",
       StatusCode::kUnimplemented},
      // Correlation shapes we do not support yet.
      {"SELECT o_orderkey FROM orders WHERE o_totalprice > "
       "(SELECT avg(o_totalprice) FROM orders o2)",
       StatusCode::kUnimplemented},
      {"SELECT o_orderkey FROM orders WHERE EXISTS "
       "(SELECT * FROM lineitem WHERE l_orderkey < o_orderkey)",
       StatusCode::kUnimplemented},
      {"SELECT o_orderkey FROM orders WHERE EXISTS "
       "(SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND EXISTS "
       "(SELECT * FROM partsupp WHERE ps_partkey = l_partkey))",
       StatusCode::kUnimplemented},
      {"SELECT o_orderkey FROM orders WHERE EXISTS "
       "(SELECT * FROM lineitem WHERE l_shipmode = o_orderkey)",
       StatusCode::kInvalidArgument},
      // The EXISTS select list is ignored but must be well-formed.
      {"SELECT o_orderkey FROM orders WHERE EXISTS "
       "(SELECT bogus_col FROM lineitem WHERE l_orderkey = o_orderkey)",
       StatusCode::kInvalidArgument},
      {"SELECT o_orderkey FROM orders WHERE EXISTS "
       "(SELECT sum(l_quantity) FROM lineitem WHERE l_orderkey = "
       "o_orderkey)",
       StatusCode::kUnimplemented},
      // A typo in a subquery conjunct is an unknown column, not an
      // unsupported correlation.
      {"SELECT s_suppkey FROM supplier WHERE s_acctbal > "
       "(SELECT min(ps_supplycost) FROM partsupp "
       "WHERE totally_bogus > 5 AND ps_suppkey = s_suppkey)",
       StatusCode::kInvalidArgument},
      // COUNT over an empty correlation group is 0, not NULL; the
      // inner-join decorrelation cannot zero-fill.
      {"SELECT o_orderkey FROM orders WHERE o_totalprice > "
       "(SELECT count(*) FROM lineitem WHERE l_orderkey = o_orderkey)",
       StatusCode::kUnimplemented},
      // GROUP BY resolves input columns before select aliases, so this
      // groups by the real o_orderkey and the select item is ungrouped.
      {"SELECT o_custkey AS o_orderkey, count(*) AS n FROM orders "
       "GROUP BY o_orderkey",
       StatusCode::kInvalidArgument},
      // Qualified ORDER BY could silently bind to the wrong self-join
      // side; ordering works on output names.
      {"SELECT n1.n_name AS a, n2.n_name AS b FROM nation n1, nation n2 "
       "WHERE n1.n_nationkey = n2.n_nationkey ORDER BY n2.n_name",
       StatusCode::kInvalidArgument},
      // A name ambiguous inside the subquery's own scope must raise the
      // ambiguity error, not silently escape to the outer query as a
      // correlation.
      {"SELECT count(*) AS n FROM partsupp WHERE ps_supplycost = "
       "(SELECT min(p1.ps_supplycost) FROM partsupp p1, partsupp p2 "
       "WHERE ps_partkey = p1.ps_partkey AND p1.ps_suppkey = p2.ps_suppkey)",
       StatusCode::kInvalidArgument},
      // SELECT * only means something inside EXISTS.
      {"SELECT * FROM orders", StatusCode::kInvalidArgument},
      // Outer-join ON clauses are limited to equalities plus
      // non-preserved-side filters.
      {"SELECT o_orderkey FROM orders LEFT JOIN lineitem "
       "ON l_orderkey < o_orderkey",
       StatusCode::kUnimplemented},
      {"SELECT o_orderkey FROM orders LEFT JOIN lineitem "
       "ON l_orderkey = o_orderkey AND o_totalprice > 100",
       StatusCode::kUnimplemented},
      {"SELECT o_orderkey FROM orders RIGHT JOIN lineitem "
       "ON l_orderkey = o_orderkey AND l_quantity > 10",
       StatusCode::kUnimplemented},
      // Inner joins cannot follow an outer join (the outer-join frontier
      // is pinned to textual order).
      {"SELECT o_orderkey FROM orders LEFT JOIN lineitem "
       "ON l_orderkey = o_orderkey JOIN customer ON c_custkey = o_custkey",
       StatusCode::kUnimplemented},
      // A NULL literal cannot stand on its own.
      {"SELECT NULL AS x FROM orders", StatusCode::kInvalidArgument},
      {"SELECT CASE WHEN o_orderkey > 0 THEN NULL END AS x FROM orders",
       StatusCode::kInvalidArgument},
  };
  for (const auto& c : bad) {
    auto plan = SqlToPlan(c.sql, catalog);
    ASSERT_FALSE(plan.ok()) << "accepted: " << c.sql;
    EXPECT_EQ(plan.status().code(), c.code)
        << c.sql << " -> " << plan.status().ToString();
  }
}

TEST(AnalyzerTest, OuterAmbiguityInCorrelationIsDiagnosedAsAmbiguous) {
  Catalog catalog = TestCatalog();
  // n_nationkey is ambiguous between n1/n2 in the OUTER scope; the
  // subquery diagnosis must say so instead of "unknown column".
  auto plan = SqlToPlan(
      "SELECT n1.n_name FROM nation n1, nation n2 "
      "WHERE n1.n_nationkey = n2.n_nationkey AND n1.n_regionkey = "
      "(SELECT min(s_nationkey) FROM supplier WHERE s_nationkey = "
      "n_nationkey)",
      catalog);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(plan.status().message().find("ambiguous"), std::string::npos)
      << plan.status().ToString();
}

TEST(AnalyzerTest, UnboundPlaceholderIsInvalidArgument) {
  Catalog catalog = TestCatalog();
  auto plan = SqlToPlan(
      "SELECT c_custkey FROM customer WHERE c_mktsegment = ?", catalog);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserTest, CountsAndBindsPlaceholders) {
  auto query = ParseSqlQuery(
      "SELECT c_custkey FROM customer WHERE c_mktsegment = ? AND "
      "c_acctbal > ?");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->placeholder_count, 2);

  auto too_few = BindPlaceholders(*query, {Value::Str("BUILDING")});
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);

  auto bound = BindPlaceholders(
      *query, {Value::Str("BUILDING"), Value::Double(0.0)});
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->placeholder_count, 0);
  // The original query is untouched (rebindable).
  EXPECT_EQ(query->placeholder_count, 2);
  auto rebound = BindPlaceholders(
      *query, {Value::Str("MACHINERY"), Value::Double(1.0)});
  EXPECT_TRUE(rebound.ok());
}

// A build-side join key needed by a LATER join or clause must survive
// column pruning (used to abort in PlanBuilder::Rel::Ch).
TEST(AnalyzerTest, JoinKeyReusedByLaterJoinSurvivesPruning) {
  Catalog catalog = TestCatalog();
  auto plan = SqlToPlan(
      "SELECT count(l_orderkey) AS n "
      "FROM lineitem, orders, customer, supplier, nation "
      "WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey "
      "AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey "
      "AND s_nationkey = n_nationkey",
      catalog);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
}

TEST(SqlEndToEndTest, CountMatchesEngine) {
  AccordionCluster::Options options;
  options.num_workers = 2;
  options.num_storage_nodes = 2;
  options.scale_factor = 0.005;
  options.engine.cost.scale = 0;
  options.engine.rpc_latency_ms = 0;
  AccordionCluster cluster(options);
  Session session(cluster.coordinator());

  auto query = session.Execute(
      "SELECT count(c_custkey) AS n FROM customer WHERE c_mktsegment = "
      "'BUILDING'");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = (*query)->Wait(60000);
  ASSERT_TRUE(result.ok());

  // Independent reference.
  int64_t expected = 0;
  for (const auto& page : GenerateSplit("customer", 0.005, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      expected += page->column(6).StrAt(r) == "BUILDING";
    }
  }
  ASSERT_EQ((*result).size(), 1u);
  EXPECT_EQ((*result)[0]->column(0).IntAt(0), expected);
}

TEST(SqlEndToEndTest, GroupByWithOrderLimit) {
  AccordionCluster::Options options;
  options.num_workers = 2;
  options.num_storage_nodes = 2;
  options.scale_factor = 0.005;
  options.engine.cost.scale = 0;
  options.engine.rpc_latency_ms = 0;
  AccordionCluster cluster(options);
  Session session(cluster.coordinator());

  auto query = session.Execute(
      "SELECT c_mktsegment, count(*) AS n, avg(c_acctbal) AS bal "
      "FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment LIMIT 10");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = (*query)->Wait(60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int64_t rows = 0;
  int64_t total = 0;
  for (const auto& page : *result) {
    rows += page->num_rows();
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      total += page->column(1).IntAt(r);
    }
  }
  EXPECT_EQ(rows, 5);  // five market segments, alphabetical
  EXPECT_EQ(total, TpchRowCount("customer", 0.005));
  EXPECT_EQ((*result)[0]->column(0).StrAt(0), "AUTOMOBILE");
}

TEST(SqlEndToEndTest, TwoWayJoinThroughSql) {
  AccordionCluster::Options options;
  options.num_workers = 2;
  options.num_storage_nodes = 2;
  options.scale_factor = 0.005;
  options.engine.cost.scale = 0;
  options.engine.rpc_latency_ms = 0;
  AccordionCluster cluster(options);
  Session session(cluster.coordinator());

  // The paper's Q2J expressed in SQL (§4.4).
  auto query = session.Execute(
      "SELECT count(l_orderkey) FROM lineitem INNER JOIN orders ON "
      "l_orderkey = o_orderkey");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = (*query)->Wait(60000);
  ASSERT_TRUE(result.ok());
  TpchSplitGenerator gen("lineitem", 0.005, 0, 1);
  EXPECT_EQ((*result)[0]->column(0).IntAt(0), gen.TotalRows());
}

AccordionCluster::Options SmallClusterOptions() {
  AccordionCluster::Options options;
  options.num_workers = 2;
  options.num_storage_nodes = 2;
  options.scale_factor = 0.005;
  options.engine.cost.scale = 0;
  options.engine.rpc_latency_ms = 0;
  return options;
}

TEST(SqlEndToEndTest, SelfJoinWithAliases) {
  AccordionCluster cluster(SmallClusterOptions());
  Session session(cluster.coordinator());

  // Same-region nation pairs; the n1.n_name <> n2.n_name conjunct is a
  // two-table residual filter over the alias-renamed join output.
  auto query = session.Execute(
      "SELECT n1.n_name AS a, n2.n_name AS b "
      "FROM nation n1, nation n2 "
      "WHERE n1.n_regionkey = n2.n_regionkey AND n1.n_name <> n2.n_name "
      "ORDER BY a, b LIMIT 1000");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = (*query)->Wait(60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Independent reference: ordered same-region pairs of distinct nations.
  std::map<int64_t, int64_t> region_counts;
  for (const auto& page : GenerateSplit("nation", 0.005, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      ++region_counts[page->column(2).IntAt(r)];
    }
  }
  int64_t expected = 0;
  for (const auto& [region, n] : region_counts) expected += n * (n - 1);
  int64_t rows = 0;
  for (const auto& page : *result) rows += page->num_rows();
  EXPECT_GT(rows, 0);
  EXPECT_EQ(rows, expected);
}

TEST(SqlEndToEndTest, ExpressionGroupKeyAndHaving) {
  AccordionCluster cluster(SmallClusterOptions());
  Session session(cluster.coordinator());

  // Reference: per-year order counts straight off the generator.
  std::map<int64_t, int64_t> year_counts;
  for (const auto& page : GenerateSplit("orders", 0.005, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      ++year_counts[DateYear(page->column(4).IntAt(r))];
    }
  }
  ASSERT_GT(year_counts.size(), 1u);
  // A threshold that keeps some years and drops others.
  int64_t lo = year_counts.begin()->second, hi = lo;
  for (const auto& [y, n] : year_counts) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  int64_t threshold = (lo + hi) / 2;

  auto query = session.Execute(
      "SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year, count(*) AS n "
      "FROM orders GROUP BY o_year HAVING count(*) > " +
      std::to_string(threshold) + " ORDER BY o_year");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = (*query)->Wait(60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::map<int64_t, int64_t> got;
  int64_t last_year = -1;
  for (const auto& page : *result) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      int64_t year = page->column(0).IntAt(r);
      EXPECT_GT(year, last_year);  // ORDER BY o_year
      last_year = year;
      got[year] = page->column(1).IntAt(r);
    }
  }
  std::map<int64_t, int64_t> expected;
  for (const auto& [y, n] : year_counts) {
    if (n > threshold) expected[y] = n;
  }
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(got, expected);
}

TEST(SqlEndToEndTest, AliasesNeverCollideWithInternalNames) {
  AccordionCluster cluster(SmallClusterOptions());
  Session session(cluster.coordinator());

  // "agg0" / "#in0"-style names are the analyzer's internal aggregation
  // columns; a user alias spelled like one must still bind correctly
  // (internal names are '#'-prefixed, untypeable in an identifier).
  auto query = session.Execute(
      "SELECT o_orderpriority AS agg0, count(*) AS n FROM orders "
      "GROUP BY agg0 ORDER BY agg0");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = (*query)->Wait(60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int64_t total = 0;
  for (const auto& page : *result) {
    ASSERT_EQ(page->column(0).type(), DataType::kString);   // agg0
    ASSERT_EQ(page->column(1).type(), DataType::kInt64);    // n
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      total += page->column(1).IntAt(r);
    }
  }
  EXPECT_EQ(total, TpchRowCount("orders", 0.005));
}

TEST(SqlEndToEndTest, NearEqualBoundDoublesStayDistinctAggregates) {
  AccordionCluster cluster(SmallClusterOptions());
  Session session(cluster.coordinator());

  // Structural aggregate dedup must compare bound values exactly: these
  // two parameters agree to 4 decimal places (Value::ToString rounding)
  // but are different aggregates.
  auto prepared = session.Prepare(
      "SELECT sum(o_totalprice * ?) AS a, sum(o_totalprice * ?) AS b "
      "FROM orders");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto query = session.Execute(
      *prepared, {Value::Double(1.00001), Value::Double(1.00002)});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = (*query)->Wait(60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  double a = (*result)[0]->column(0).DoubleAt(0);
  double b = (*result)[0]->column(1).DoubleAt(0);
  EXPECT_NE(a, b);
  EXPECT_NEAR(b, a / 1.00001 * 1.00002, std::abs(a) * 1e-9);
}

TEST(SqlEndToEndTest, ExistsSemiJoin) {
  AccordionCluster cluster(SmallClusterOptions());
  Session session(cluster.coordinator());

  auto query = session.Execute(
      "SELECT count(*) AS n FROM orders WHERE EXISTS "
      "(SELECT * FROM lineitem WHERE l_orderkey = o_orderkey)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = (*query)->Wait(60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::set<int64_t> orderkeys;
  for (const auto& page : GenerateSplit("lineitem", 0.005, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      orderkeys.insert(page->column(0).IntAt(r));
    }
  }
  ASSERT_FALSE(orderkeys.empty());
  EXPECT_EQ((*result)[0]->column(0).IntAt(0),
            static_cast<int64_t>(orderkeys.size()));
}

TEST(SqlEndToEndTest, CorrelatedScalarSubquery) {
  AccordionCluster cluster(SmallClusterOptions());
  Session session(cluster.coordinator());

  // Mini-Q2: partsupp rows achieving their part's minimum supply cost.
  // The outer table must be aliased so the inner reference p1.ps_partkey
  // escapes the subquery scope (unqualified names resolve innermost).
  auto query = session.Execute(
      "SELECT p1.ps_partkey, p1.ps_suppkey, p1.ps_supplycost "
      "FROM partsupp p1 WHERE p1.ps_supplycost = "
      "(SELECT min(p2.ps_supplycost) FROM partsupp p2 "
      "WHERE p2.ps_partkey = p1.ps_partkey)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = (*query)->Wait(60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::map<int64_t, double> min_cost;
  int64_t expected = 0;
  std::vector<PagePtr> partsupp = GenerateSplit("partsupp", 0.005, 0, 1);
  for (const auto& page : partsupp) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      int64_t key = page->column(0).IntAt(r);
      double cost = page->column(3).DoubleAt(r);
      auto it = min_cost.find(key);
      if (it == min_cost.end() || cost < it->second) min_cost[key] = cost;
    }
  }
  for (const auto& page : partsupp) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      expected +=
          page->column(3).DoubleAt(r) == min_cost[page->column(0).IntAt(r)];
    }
  }
  int64_t rows = 0;
  for (const auto& page : *result) {
    rows += page->num_rows();
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      EXPECT_EQ(page->column(2).DoubleAt(r),
                min_cost[page->column(0).IntAt(r)]);
    }
  }
  EXPECT_GT(rows, 0);
  EXPECT_EQ(rows, expected);
}

TEST(ParserTest, ParsesOuterJoinsIntoOuterJoinList) {
  auto query = ParseSqlQuery(
      "SELECT o_orderkey, l_quantity FROM orders "
      "LEFT OUTER JOIN lineitem ON o_orderkey = l_orderkey AND "
      "l_quantity > 45");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(query->from.size(), 1u);
  ASSERT_EQ(query->outer_joins.size(), 1u);
  EXPECT_EQ(query->outer_joins[0].kind, SqlOuterJoin::Kind::kLeft);
  EXPECT_EQ(query->outer_joins[0].table.table, "LINEITEM");
  EXPECT_EQ(query->outer_joins[0].on.size(), 2u);  // ON is AND-split
  EXPECT_TRUE(query->conjuncts.empty());

  auto right = ParseSqlQuery(
      "SELECT c_custkey FROM orders RIGHT JOIN customer "
      "ON o_custkey = c_custkey");
  ASSERT_TRUE(right.ok()) << right.status().ToString();
  ASSERT_EQ(right->outer_joins.size(), 1u);
  EXPECT_EQ(right->outer_joins[0].kind, SqlOuterJoin::Kind::kRight);

  auto full = ParseSqlQuery(
      "SELECT c_custkey FROM orders FULL OUTER JOIN customer "
      "ON o_custkey = c_custkey");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_EQ(full->outer_joins.size(), 1u);
  EXPECT_EQ(full->outer_joins[0].kind, SqlOuterJoin::Kind::kFull);
}

TEST(ParserTest, ParsesDistinctNullTestsAndElselessCase) {
  auto query = ParseSqlQuery(
      "SELECT DISTINCT o_orderpriority, "
      "CASE WHEN o_totalprice > 1000 THEN 1 END AS big "
      "FROM orders WHERE o_clerk IS NOT NULL AND o_comment IS NULL "
      "AND o_orderkey NOT IN (SELECT l_orderkey FROM lineitem)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_TRUE(query->distinct);
  // A missing ELSE branch parses as an explicit NULL-literal child.
  const auto& cw = query->select_items[1].expr;
  ASSERT_EQ(cw->kind, SqlExpr::Kind::kCaseWhen);
  EXPECT_EQ(cw->children.back()->kind, SqlExpr::Kind::kNullLiteral);
  ASSERT_EQ(query->conjuncts.size(), 3u);
  EXPECT_EQ(query->conjuncts[0]->kind, SqlExpr::Kind::kIsNull);
  EXPECT_EQ(query->conjuncts[0]->text, "NOT");
  EXPECT_EQ(query->conjuncts[1]->kind, SqlExpr::Kind::kIsNull);
  EXPECT_TRUE(query->conjuncts[1]->text.empty());
  EXPECT_EQ(query->conjuncts[2]->kind, SqlExpr::Kind::kInSubquery);
  EXPECT_EQ(query->conjuncts[2]->text, "NOT");
}

TEST(AnalyzerTest, PlansOuterSemiAntiAndDistinct) {
  Catalog catalog = TestCatalog();
  for (const char* sql : {
           "SELECT o_orderkey, l_quantity FROM orders LEFT JOIN lineitem "
           "ON o_orderkey = l_orderkey AND l_quantity > 45",
           "SELECT c_custkey, o_totalprice FROM orders RIGHT JOIN customer "
           "ON o_custkey = c_custkey AND o_totalprice > 1000",
           "SELECT o_orderkey, c_custkey FROM orders FULL OUTER JOIN "
           "customer ON o_custkey = c_custkey",
           "SELECT DISTINCT c_mktsegment FROM customer",
           "SELECT count(*) AS n FROM orders WHERE o_orderkey NOT IN "
           "(SELECT l_orderkey FROM lineitem WHERE l_quantity > 45)",
           "SELECT count(*) AS n FROM orders WHERE NOT EXISTS "
           "(SELECT * FROM lineitem WHERE l_orderkey = o_orderkey)",
           "SELECT o_orderkey FROM orders WHERE o_comment IS NOT NULL",
       }) {
    auto plan = SqlToPlan(sql, catalog);
    EXPECT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  }
}

TEST(SqlEndToEndTest, LeftOuterJoinNullPadding) {
  AccordionCluster cluster(SmallClusterOptions());
  Session session(cluster.coordinator());

  // Orders without a qty>45 lineitem survive NULL-padded, so
  // count(l_quantity) skips them while count(*) sees every row.
  auto query = session.Execute(
      "SELECT count(*) AS total, count(l_quantity) AS matched "
      "FROM orders LEFT JOIN lineitem "
      "ON o_orderkey = l_orderkey AND l_quantity > 45");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = (*query)->Wait(60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::map<int64_t, int64_t> hits;  // orderkey -> qty>45 lineitems
  for (const auto& page : GenerateSplit("lineitem", 0.005, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      if (page->column(4).DoubleAt(r) > 45) ++hits[page->column(0).IntAt(r)];
    }
  }
  int64_t total = 0, matched = 0, unmatched_orders = 0;
  for (const auto& page : GenerateSplit("orders", 0.005, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      auto it = hits.find(page->column(0).IntAt(r));
      int64_t k = it == hits.end() ? 0 : it->second;
      total += std::max<int64_t>(k, 1);
      matched += k;
      unmatched_orders += k == 0;
    }
  }
  ASSERT_GT(unmatched_orders, 0);  // the test is vacuous otherwise
  EXPECT_EQ((*result)[0]->column(0).IntAt(0), total);
  EXPECT_EQ((*result)[0]->column(1).IntAt(0), matched);

  // WHERE ... IS NULL over the padded side (a post-join residual; WHERE
  // must see the NULL-padded rows) counts exactly the unmatched orders.
  auto nulls = session.Execute(
      "SELECT count(*) AS n FROM orders LEFT JOIN lineitem "
      "ON o_orderkey = l_orderkey AND l_quantity > 45 "
      "WHERE l_quantity IS NULL");
  ASSERT_TRUE(nulls.ok()) << nulls.status().ToString();
  auto nulls_result = (*nulls)->Wait(60000);
  ASSERT_TRUE(nulls_result.ok()) << nulls_result.status().ToString();
  EXPECT_EQ((*nulls_result)[0]->column(0).IntAt(0), unmatched_orders);
}

TEST(SqlEndToEndTest, RightAndFullOuterJoinsPreserveBuildRows) {
  AccordionCluster cluster(SmallClusterOptions());
  Session session(cluster.coordinator());

  // The generator gives every customer at least one order, so the RIGHT
  // join filters the probe side in the ON clause (the one placement where
  // a probe filter is semantics-preserving) to manufacture customers with
  // no matching order.
  int64_t big_orders = 0;  // o_totalprice > 400000
  std::set<int64_t> custkeys_with_big;
  for (const auto& page : GenerateSplit("orders", 0.005, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      if (page->column(3).DoubleAt(r) > 400000) {
        ++big_orders;
        custkeys_with_big.insert(page->column(1).IntAt(r));
      }
    }
  }
  int64_t customers = 0;
  for (const auto& page : GenerateSplit("customer", 0.005, 0, 1)) {
    customers += page->num_rows();
  }
  int64_t customers_without_big =
      customers - static_cast<int64_t>(custkeys_with_big.size());
  ASSERT_GT(big_orders, 0);
  ASSERT_GT(customers_without_big, 0);

  auto right = session.Execute(
      "SELECT count(*) AS total, count(o_orderkey) AS with_order "
      "FROM orders RIGHT JOIN customer "
      "ON o_custkey = c_custkey AND o_totalprice > 400000");
  ASSERT_TRUE(right.ok()) << right.status().ToString();
  auto right_rows = (*right)->Wait(60000);
  ASSERT_TRUE(right_rows.ok()) << right_rows.status().ToString();
  EXPECT_EQ((*right_rows)[0]->column(0).IntAt(0),
            big_orders + customers_without_big);
  EXPECT_EQ((*right_rows)[0]->column(1).IntAt(0), big_orders);

  // FULL outer join across disjoint-ish key domains (orderkeys run far
  // past the last custkey), so both sides contribute NULL-padded rows:
  // unmatched orders stream out probe-side, unmatched customers drain
  // from the build.
  int64_t orders_rows = 0, matched = 0;
  std::set<int64_t> custkeys;
  for (const auto& page : GenerateSplit("customer", 0.005, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      custkeys.insert(page->column(0).IntAt(r));
    }
  }
  for (const auto& page : GenerateSplit("orders", 0.005, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      ++orders_rows;
      matched += custkeys.count(page->column(0).IntAt(r)) != 0;
    }
  }
  int64_t custs_unmatched = static_cast<int64_t>(custkeys.size()) - matched;
  ASSERT_GT(matched, 0);
  ASSERT_GT(orders_rows - matched, 0);  // unmatched probe rows exist

  auto full = session.Execute(
      "SELECT count(*) AS total, count(o_orderkey) AS with_order, "
      "count(c_custkey) AS with_cust "
      "FROM orders FULL OUTER JOIN customer ON o_orderkey = c_custkey");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  auto full_rows = (*full)->Wait(60000);
  ASSERT_TRUE(full_rows.ok()) << full_rows.status().ToString();
  EXPECT_EQ((*full_rows)[0]->column(0).IntAt(0),
            orders_rows + custs_unmatched);
  EXPECT_EQ((*full_rows)[0]->column(1).IntAt(0), orders_rows);
  EXPECT_EQ((*full_rows)[0]->column(2).IntAt(0), matched + custs_unmatched);
}

TEST(SqlEndToEndTest, NotInAndNotExistsAntiJoins) {
  AccordionCluster cluster(SmallClusterOptions());
  Session session(cluster.coordinator());

  std::set<int64_t> keys_with_big;  // orderkeys with a qty>45 lineitem
  for (const auto& page : GenerateSplit("lineitem", 0.005, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      if (page->column(4).DoubleAt(r) > 45) {
        keys_with_big.insert(page->column(0).IntAt(r));
      }
    }
  }
  int64_t expected = 0;
  for (const auto& page : GenerateSplit("orders", 0.005, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      expected += keys_with_big.count(page->column(0).IntAt(r)) == 0;
    }
  }
  ASSERT_GT(expected, 0);

  // The inner side has no NULLs here, so NOT IN's null-aware anti join
  // and NOT EXISTS's plain anti join agree on the same count.
  auto not_in = session.Execute(
      "SELECT count(*) AS n FROM orders WHERE o_orderkey NOT IN "
      "(SELECT l_orderkey FROM lineitem WHERE l_quantity > 45)");
  ASSERT_TRUE(not_in.ok()) << not_in.status().ToString();
  auto not_in_rows = (*not_in)->Wait(60000);
  ASSERT_TRUE(not_in_rows.ok()) << not_in_rows.status().ToString();
  EXPECT_EQ((*not_in_rows)[0]->column(0).IntAt(0), expected);

  auto not_exists = session.Execute(
      "SELECT count(*) AS n FROM orders WHERE NOT EXISTS "
      "(SELECT * FROM lineitem WHERE l_orderkey = o_orderkey AND "
      "l_quantity > 45)");
  ASSERT_TRUE(not_exists.ok()) << not_exists.status().ToString();
  auto not_exists_rows = (*not_exists)->Wait(60000);
  ASSERT_TRUE(not_exists_rows.ok()) << not_exists_rows.status().ToString();
  EXPECT_EQ((*not_exists_rows)[0]->column(0).IntAt(0), expected);
}

TEST(SqlEndToEndTest, DistinctCollapsesDuplicates) {
  AccordionCluster cluster(SmallClusterOptions());
  Session session(cluster.coordinator());

  auto query = session.Execute(
      "SELECT DISTINCT c_mktsegment FROM customer ORDER BY c_mktsegment");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = (*query)->Wait(60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int64_t rows = 0;
  for (const auto& page : *result) rows += page->num_rows();
  EXPECT_EQ(rows, 5);  // five market segments
  EXPECT_EQ((*result)[0]->column(0).StrAt(0), "AUTOMOBILE");
}

TEST(SqlEndToEndTest, ElselessCaseYieldsNullGroup) {
  AccordionCluster cluster(SmallClusterOptions());
  Session session(cluster.coordinator());

  // CASE without ELSE produces NULL, which forms its own GROUP BY group
  // and sorts before every non-NULL key.
  auto query = session.Execute(
      "SELECT CASE WHEN o_totalprice > 150000 THEN 1 END AS big, "
      "count(*) AS n FROM orders GROUP BY big ORDER BY big");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto result = (*query)->Wait(60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  int64_t big = 0, small = 0;
  for (const auto& page : GenerateSplit("orders", 0.005, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      (page->column(3).DoubleAt(r) > 150000 ? big : small)++;
    }
  }
  ASSERT_GT(big, 0);
  ASSERT_GT(small, 0);

  std::vector<std::pair<bool, int64_t>> groups;  // (key is NULL, count)
  for (const auto& page : *result) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      groups.emplace_back(page->column(0).IsNull(r),
                          page->column(1).IntAt(r));
    }
  }
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_TRUE(groups[0].first);  // NULL group first
  EXPECT_EQ(groups[0].second, small);
  EXPECT_FALSE(groups[1].first);
  EXPECT_EQ(groups[1].second, big);
}

}  // namespace
}  // namespace accordion
