#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "sql/analyzer.h"
#include "storage/page_source.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

constexpr double kSf = 0.01;

TEST(CatalogTest, LookupAndChannels) {
  Catalog catalog = MakeTpchCatalog(kSf, 10);
  auto table = catalog.GetTable("lineitem");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->ChannelOf("l_orderkey"), 0);
  EXPECT_EQ(table->ChannelOf("l_shipdate"), 10);
  EXPECT_EQ(table->ChannelOf("nope"), -1);
  EXPECT_FALSE(catalog.GetTable("ghost").ok());
  EXPECT_TRUE(catalog.HasTable("orders"));
  EXPECT_EQ(catalog.TableNames().size(), 8u);
}

TEST(CatalogTest, Table1PartitioningScheme) {
  Catalog catalog = MakeTpchCatalog(kSf, 10);
  auto nation = catalog.GetLayout("nation");
  ASSERT_TRUE(nation.ok());
  EXPECT_EQ(nation->num_nodes, 1);
  EXPECT_EQ(nation->TotalSplits(), 1);
  auto lineitem = catalog.GetLayout("lineitem");
  ASSERT_TRUE(lineitem.ok());
  EXPECT_EQ(lineitem->num_nodes, 10);
  EXPECT_EQ(lineitem->splits_per_node, 7);
  EXPECT_EQ(lineitem->TotalSplits(), 70);
  auto orders = catalog.GetLayout("orders");
  ASSERT_TRUE(orders.ok());
  EXPECT_EQ(orders->TotalSplits(), 10);
}

TEST(TpchTest, RowCountsScale) {
  EXPECT_EQ(TpchRowCount("nation", kSf), 25);
  EXPECT_EQ(TpchRowCount("region", kSf), 5);
  EXPECT_EQ(TpchRowCount("customer", kSf), 1500);
  EXPECT_EQ(TpchRowCount("orders", kSf), 15000);
  EXPECT_EQ(TpchRowCount("customer", 1.0), 150000);
}

TEST(TpchTest, SplitsPartitionWithoutOverlap) {
  // Keys across 4 splits of customer must tile [1, N] exactly once.
  std::set<int64_t> keys;
  int64_t total = 0;
  for (int s = 0; s < 4; ++s) {
    for (const auto& page : GenerateSplit("customer", kSf, s, 4)) {
      for (int64_t r = 0; r < page->num_rows(); ++r) {
        keys.insert(page->column(0).IntAt(r));
        ++total;
      }
    }
  }
  EXPECT_EQ(total, TpchRowCount("customer", kSf));
  EXPECT_EQ(static_cast<int64_t>(keys.size()), total);  // no duplicates
  EXPECT_EQ(*keys.begin(), 1);
  EXPECT_EQ(*keys.rbegin(), total);
}

TEST(TpchTest, GenerationIsDeterministic) {
  auto a = GenerateSplit("orders", kSf, 2, 5);
  auto b = GenerateSplit("orders", kSf, 2, 5);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i]->Serialize(), b[i]->Serialize());
  }
}

TEST(TpchTest, SplitCountDoesNotChangeValues) {
  // Row for orderkey k must be identical whether generated in 1 or 5 splits.
  auto whole = GenerateSplit("orders", kSf, 0, 1, 1 << 20);
  auto part = GenerateSplit("orders", kSf, 4, 5, 1 << 20);
  ASSERT_EQ(whole.size(), 1u);
  ASSERT_EQ(part.size(), 1u);
  int64_t first_key = part[0]->column(0).IntAt(0);
  int64_t offset = first_key - 1;
  for (int c = 0; c < part[0]->num_columns(); ++c) {
    EXPECT_EQ(part[0]->column(c).ValueAt(0),
              whole[0]->column(c).ValueAt(offset));
  }
}

TEST(TpchTest, LineitemDatesAreConsistent) {
  for (const auto& page : GenerateSplit("lineitem", kSf, 0, 10)) {
    const auto& ship = page->column(10);
    const auto& commit = page->column(11);
    const auto& receipt = page->column(12);
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      EXPECT_GT(receipt.IntAt(r), ship.IntAt(r));
      EXPECT_GT(commit.IntAt(r), 0);
      EXPECT_GE(ship.IntAt(r), ParseDate("1992-01-01"));
      EXPECT_LE(receipt.IntAt(r), ParseDate("1999-03-01"));
    }
  }
}

TEST(TpchTest, LineitemJoinsToOrdersDates) {
  // l_shipdate must be strictly after the matching o_orderdate.
  auto orders = GenerateSplit("orders", kSf, 0, 1, 1 << 20);
  ASSERT_EQ(orders.size(), 1u);
  const auto& odate = orders[0]->column(4);
  for (const auto& page : GenerateSplit("lineitem", kSf, 3, 10)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      int64_t orderkey = page->column(0).IntAt(r);
      EXPECT_GT(page->column(10).IntAt(r), odate.IntAt(orderkey - 1))
          << "orderkey " << orderkey;
    }
  }
}

TEST(TpchTest, ForeignKeysInRange) {
  int64_t customers = TpchRowCount("customer", kSf);
  for (const auto& page : GenerateSplit("orders", kSf, 0, 10)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      int64_t custkey = page->column(1).IntAt(r);
      EXPECT_GE(custkey, 1);
      EXPECT_LE(custkey, customers);
    }
  }
  int64_t parts = TpchRowCount("part", kSf);
  int64_t suppliers = TpchRowCount("supplier", kSf);
  for (const auto& page : GenerateSplit("lineitem", kSf, 0, 70)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      EXPECT_LE(page->column(1).IntAt(r), parts);
      EXPECT_LE(page->column(2).IntAt(r), suppliers);
    }
  }
}

/// FNV-1a over everything a generated page exposes: its row count and
/// ByteSize, and per column the type, the validity bytes and every value
/// (doubles by bit pattern, strings by length and bytes). Integers fold in
/// little-endian order, so the digest does not depend on the host.
class PageDigest {
 public:
  void Add(const Page& page) {
    AddU64(static_cast<uint64_t>(page.num_rows()));
    AddU64(static_cast<uint64_t>(page.ByteSize()));
    AddU64(static_cast<uint64_t>(page.num_columns()));
    for (int c = 0; c < page.num_columns(); ++c) {
      const Column& col = page.column(c);
      AddU64(static_cast<uint64_t>(col.type()));
      AddU64(col.validity().size());
      for (uint8_t valid : col.validity()) AddByte(valid);
      for (int64_t r = 0; r < col.size(); ++r) {
        switch (col.type()) {
          case DataType::kDouble: {
            const double value = col.DoubleAt(r);
            uint64_t bits;
            std::memcpy(&bits, &value, sizeof(bits));
            AddU64(bits);
            break;
          }
          case DataType::kString: {
            const std::string& value = col.StrAt(r);
            AddU64(value.size());
            for (char ch : value) AddByte(static_cast<uint8_t>(ch));
            break;
          }
          default:
            AddU64(static_cast<uint64_t>(col.IntAt(r)));
        }
      }
    }
  }

  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  void AddByte(uint8_t byte) { hash_ = (hash_ ^ byte) * 1099511628211ULL; }
  void AddU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) AddByte(static_cast<uint8_t>(v >> (8 * i)));
  }

  uint64_t hash_ = 1469598103934665603ULL;
};

TEST(TpchTest, PagesMatchRecordedDigests) {
  // Every byte the generator emits, pinned for a fixed set of shapes:
  // single-split, one-row pages and a middle split of many. A change to
  // any value, page boundary or ByteSize fails here. Re-record only when
  // the generated data is meant to change; the benchmark's query digests
  // change with it.
  struct Shape {
    const char* table;
    double sf;
    int split;
    int count;
    int64_t batch;
    const char* digest;
  };
  const Shape kShapes[] = {
      {"nation", 0.01, 0, 1, 4096, "3a1df3fd43ba30a4"},
      {"nation", 0.01, 1, 3, 1, "8f41a2da855f1adc"},
      {"nation", 0.01, 5, 14, 256, "0670659d9124ded1"},
      {"region", 0.01, 0, 1, 4096, "0369f9655fa2a2c2"},
      {"region", 0.01, 1, 3, 1, "267eec691f811b5b"},
      {"region", 0.01, 5, 14, 256, "eb0d05eb892db9ad"},
      {"supplier", 0.01, 0, 1, 4096, "f66714e720879925"},
      {"supplier", 0.01, 1, 3, 1, "974bd5d982c5656e"},
      {"supplier", 0.01, 5, 14, 256, "c9137e2180615a0f"},
      {"part", 0.01, 0, 1, 4096, "a8f7de761e9637f0"},
      {"part", 0.01, 1, 3, 1, "90586d9d8028bef7"},
      {"part", 0.01, 5, 14, 256, "dc11a7cb3fcd11f3"},
      {"partsupp", 0.01, 0, 1, 4096, "e414fc4e54df1e1c"},
      {"partsupp", 0.01, 1, 3, 1, "5012cc17c806988d"},
      {"partsupp", 0.01, 5, 14, 256, "2ec389c447fe8304"},
      {"customer", 0.01, 0, 1, 4096, "412854df4a861090"},
      {"customer", 0.01, 1, 3, 1, "125dbcd468e76414"},
      {"customer", 0.01, 5, 14, 256, "3eb714dd80a31a5e"},
      {"orders", 0.01, 0, 1, 4096, "701b8128b7db4466"},
      {"orders", 0.01, 1, 3, 1, "0112fb9f5ae04b92"},
      {"orders", 0.01, 5, 14, 256, "78761a1ff577328e"},
      {"lineitem", 0.01, 0, 1, 4096, "e692bec0b5b4591c"},
      {"lineitem", 0.01, 1, 3, 1, "d56bfaff26d90ea6"},
      {"lineitem", 0.01, 5, 14, 256, "400338c7842ec97a"},
      {"lineitem", 0.1, 5, 14, 256, "2df8344016755014"},
      {"orders", 0.1, 5, 14, 256, "9dbbd28a87545b12"},
  };
  for (const Shape& shape : kShapes) {
    TpchSplitGenerator gen(shape.table, shape.sf, shape.split, shape.count,
                           shape.batch);
    PageDigest digest;
    int64_t rows = 0;
    while (PagePtr page = gen.NextPage()) {
      digest.Add(*page);
      rows += page->num_rows();
    }
    EXPECT_EQ(rows, gen.TotalRows()) << shape.table;
    EXPECT_EQ(digest.Hex(), shape.digest)
        << shape.table << " sf " << shape.sf << " split " << shape.split
        << "/" << shape.count << " batch " << shape.batch;
  }
}

/// Column list of every base-table scan in `node`'s plan tree.
void CollectScans(const PlanNode& node,
                  std::set<std::pair<std::string, std::vector<int>>>* out) {
  if (node.kind() == PlanNodeKind::kTableScan) {
    const auto& scan = static_cast<const TableScanNode&>(node);
    out->emplace(scan.table(), scan.columns());
  }
  for (const auto& child : node.children()) CollectScans(*child, out);
}

TEST(TpchTest, ProjectedPagesMatchFullPages) {
  // Over the shapes of PagesMatchRecordedDigests: a page generated for a
  // column list equals the full page's columns in that order, so skipping
  // an unread column's draws leaves every kept value, page boundary and
  // ByteSize unchanged. The column lists: each single column, every list
  // the 12 TPC-H queries and Q2J scan, and the full schema reversed.
  Catalog catalog = MakeTpchCatalog(kSf, 4);
  std::set<std::pair<std::string, std::vector<int>>> lists;
  for (int q = 1; q <= 12; ++q) {
    auto plan = SqlToPlan(TpchQuerySql(q), catalog);
    ASSERT_TRUE(plan.ok()) << "Q" << q << ": " << plan.status().ToString();
    CollectScans(**plan, &lists);
  }
  CollectScans(*TpchQ2JPlan(catalog), &lists);
  EXPECT_GE(lists.size(), 20u);
  for (const std::string& table : TpchTableNames()) {
    const int width = static_cast<int>(TpchSchema(table).columns().size());
    std::vector<int> reversed;
    for (int ch = width - 1; ch >= 0; --ch) {
      lists.emplace(table, std::vector<int>{ch});
      reversed.push_back(ch);
    }
    lists.emplace(table, reversed);
  }

  struct Shape {
    std::string table;
    double sf;
    int split;
    int count;
    int64_t batch;
  };
  std::vector<Shape> shapes;
  for (const std::string& table : TpchTableNames()) {
    shapes.push_back({table, 0.01, 0, 1, 4096});
    shapes.push_back({table, 0.01, 1, 3, 1});
    shapes.push_back({table, 0.01, 5, 14, 256});
  }
  shapes.push_back({"lineitem", 0.1, 5, 14, 256});
  shapes.push_back({"orders", 0.1, 5, 14, 256});

  for (const Shape& shape : shapes) {
    const std::vector<PagePtr> full = GenerateSplit(
        shape.table, shape.sf, shape.split, shape.count, shape.batch);
    for (const auto& [table, columns] : lists) {
      if (table != shape.table) continue;
      TpchSplitGenerator gen(shape.table, shape.sf, shape.split, shape.count,
                             shape.batch, columns);
      size_t p = 0;
      while (PagePtr page = gen.NextPage()) {
        ASSERT_LT(p, full.size()) << shape.table;
        std::vector<ColumnPtr> expect;
        for (int ch : columns) expect.push_back(full[p]->shared_column(ch));
        PageDigest got, want;
        got.Add(*page);
        want.Add(*Page::MakeShared(std::move(expect)));
        ASSERT_EQ(got.Hex(), want.Hex())
            << shape.table << " sf " << shape.sf << " split " << shape.split
            << "/" << shape.count << " batch " << shape.batch << " page "
            << p << " columns " << columns.size();
        ++p;
      }
      EXPECT_EQ(p, full.size()) << shape.table;
    }
  }
}

TEST(TpchTest, GeneratorTotalRowsMatchesProduced) {
  for (const char* table : {"customer", "orders", "lineitem"}) {
    TpchSplitGenerator gen(table, kSf, 1, 3, 512);
    int64_t expected = gen.TotalRows();
    int64_t produced = 0;
    while (auto page = gen.NextPage()) produced += page->num_rows();
    EXPECT_EQ(produced, expected) << table;
  }
}

TEST(TpchTest, MarketSegmentsFromDomain) {
  std::set<std::string> segments;
  for (const auto& page : GenerateSplit("customer", kSf, 0, 1)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      segments.insert(page->column(6).StrAt(r));
    }
  }
  EXPECT_EQ(segments.size(), 5u);
  EXPECT_TRUE(segments.count("BUILDING"));
}

TEST(PageSourceTest, GeneratorSourceStreams) {
  GeneratorPageSource source("customer", kSf, 0, 2, 256);
  int64_t rows = 0;
  while (auto page = source.Next()) rows += page->num_rows();
  EXPECT_EQ(rows, source.TotalRows());
  EXPECT_EQ(rows, 750);
}

}  // namespace
}  // namespace accordion
