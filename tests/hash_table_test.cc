#include "exec/hash_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "exec/radix_partitioner.h"
#include "exec/spill_file.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

PagePtr IntPage(std::vector<int64_t> values) {
  Column col(DataType::kInt64);
  for (int64_t v : values) col.AppendInt(v);
  return Page::Make({std::move(col)});
}

TEST(HashTableTest, AssignsDenseFirstSeenIds) {
  HashTable table({DataType::kInt64});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*IntPage({7, 3, 7, 9, 3, 7}), {0}, &ids);
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 0, 2, 1, 0}));
  EXPECT_EQ(table.size(), 3);
}

TEST(HashTableTest, IdsStableAcrossBatches) {
  HashTable table({DataType::kInt64});
  std::vector<int64_t> first, second;
  table.LookupOrInsert(*IntPage({1, 2, 3}), {0}, &first);
  table.LookupOrInsert(*IntPage({3, 2, 1, 4}), {0}, &second);
  EXPECT_EQ(second, (std::vector<int64_t>{2, 1, 0, 3}));
  EXPECT_EQ(table.size(), 4);
}

TEST(HashTableTest, FindReturnsMinusOneForMisses) {
  HashTable table({DataType::kInt64});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*IntPage({10, 20}), {0}, &ids);
  table.Find(*IntPage({20, 30, 10}), {0}, &ids);
  EXPECT_EQ(ids, (std::vector<int64_t>{1, -1, 0}));
}

TEST(HashTableTest, FindOnEmptyTableMissesEverything) {
  HashTable table({DataType::kInt64});
  std::vector<int64_t> ids;
  table.Find(*IntPage({1, 2, 3}), {0}, &ids);
  EXPECT_EQ(ids, (std::vector<int64_t>{-1, -1, -1}));
}

TEST(HashTableTest, CollisionHeavyDuplicateKeys) {
  // 100k rows over 16 distinct keys stresses repeated slot hits.
  HashTable table({DataType::kInt64});
  Random rng(1);
  std::vector<int64_t> expected_hits(16, 0);
  for (int batch = 0; batch < 25; ++batch) {
    std::vector<int64_t> values;
    for (int i = 0; i < 4000; ++i) values.push_back(rng.NextInt(0, 15));
    std::vector<int64_t> ids;
    table.LookupOrInsert(*IntPage(values), {0}, &ids);
    for (size_t i = 0; i < values.size(); ++i) {
      // Same key must always map to the same id within the run.
      std::vector<int64_t> again;
      table.Find(*IntPage({values[i]}), {0}, &again);
      ASSERT_EQ(again[0], ids[i]);
    }
  }
  EXPECT_EQ(table.size(), 16);
}

TEST(HashTableTest, GrowthAcrossResizeThresholds) {
  // 50k distinct keys push the table through several doublings from its
  // 1024-slot start; ids and canonical keys must survive every rehash.
  HashTable table({DataType::kInt64});
  std::vector<int64_t> ids;
  constexpr int64_t kKeys = 50000;
  for (int64_t base = 0; base < kKeys; base += 5000) {
    std::vector<int64_t> values;
    for (int64_t k = base; k < base + 5000; ++k) values.push_back(k * 11);
    table.LookupOrInsert(*IntPage(values), {0}, &ids);
  }
  ASSERT_EQ(table.size(), kKeys);
  // Every key resolves to its insertion-order id after all growth.
  std::vector<int64_t> all;
  for (int64_t k = 0; k < kKeys; ++k) all.push_back(k * 11);
  table.Find(*IntPage(all), {0}, &ids);
  for (int64_t k = 0; k < kKeys; ++k) ASSERT_EQ(ids[k], k);
  // Canonical keys round-trip through AppendKeys.
  std::vector<Column> out;
  out.emplace_back(DataType::kInt64);
  table.AppendKeys(0, table.size(), &out);
  ASSERT_EQ(out[0].size(), kKeys);
  for (int64_t k = 0; k < kKeys; ++k) ASSERT_EQ(out[0].IntAt(k), k * 11);
}

TEST(HashTableTest, ReservePresizesWithoutChangingIds) {
  HashTable reserved({DataType::kInt64});
  reserved.Reserve(100000);
  HashTable grown({DataType::kInt64});
  std::vector<int64_t> values;
  Random rng(3);
  for (int i = 0; i < 100000; ++i) values.push_back(rng.NextInt(0, 1 << 30));
  std::vector<int64_t> a, b;
  reserved.LookupOrInsert(*IntPage(values), {0}, &a);
  grown.LookupOrInsert(*IntPage(values), {0}, &b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(reserved.size(), grown.size());
}

TEST(HashTableTest, MultiColumnIntKeys) {
  Column a(DataType::kInt64), b(DataType::kInt64);
  for (auto [x, y] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 1}, {1, 2}, {2, 1}, {1, 1}, {2, 1}}) {
    a.AppendInt(x);
    b.AppendInt(y);
  }
  PagePtr page = Page::Make({std::move(a), std::move(b)});
  HashTable table({DataType::kInt64, DataType::kInt64});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*page, {0, 1}, &ids);
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 2, 0, 2}));
  std::vector<Column> out;
  out.emplace_back(DataType::kInt64);
  out.emplace_back(DataType::kInt64);
  table.AppendKeys(0, table.size(), &out);
  EXPECT_EQ(out[0].ints(), (std::vector<int64_t>{1, 1, 2}));
  EXPECT_EQ(out[1].ints(), (std::vector<int64_t>{1, 2, 1}));
}

TEST(HashTableTest, DoubleKeys) {
  Column col(DataType::kDouble);
  for (double d : {1.5, 2.5, 1.5, -0.25}) col.AppendDouble(d);
  PagePtr page = Page::Make({std::move(col)});
  HashTable table({DataType::kDouble});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*page, {0}, &ids);
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 0, 2}));
  std::vector<Column> out;
  out.emplace_back(DataType::kDouble);
  table.AppendKeys(0, table.size(), &out);
  EXPECT_EQ(out[0].doubles(), (std::vector<double>{1.5, 2.5, -0.25}));
}

TEST(HashTableTest, StringKeys) {
  Column col(DataType::kString);
  for (const char* s : {"apple", "banana", "apple", "", "banana", "cherry"}) {
    col.AppendStr(s);
  }
  PagePtr page = Page::Make({std::move(col)});
  HashTable table({DataType::kString});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*page, {0}, &ids);
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 0, 2, 1, 3}));
  std::vector<Column> out;
  out.emplace_back(DataType::kString);
  table.AppendKeys(0, table.size(), &out);
  EXPECT_EQ(out[0].strings(),
            (std::vector<std::string>{"apple", "banana", "", "cherry"}));
}

TEST(HashTableTest, MixedStringIntKeysNoConcatAmbiguity) {
  // ("a", 1) vs ("a1", ...) style ambiguity: the length-prefixed arena
  // encoding must keep ("ab", "c") distinct from ("a", "bc").
  Column s1(DataType::kString), s2(DataType::kString);
  s1.AppendStr("ab");
  s2.AppendStr("c");
  s1.AppendStr("a");
  s2.AppendStr("bc");
  PagePtr page = Page::Make({std::move(s1), std::move(s2)});
  HashTable table({DataType::kString, DataType::kString});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*page, {0, 1}, &ids);
  EXPECT_EQ(table.size(), 2);
  EXPECT_NE(ids[0], ids[1]);
}

TEST(HashTableTest, MixedIntStringKeys) {
  Column k(DataType::kInt64), s(DataType::kString);
  for (auto [x, y] : std::vector<std::pair<int64_t, const char*>>{
           {1, "x"}, {1, "y"}, {2, "x"}, {1, "x"}}) {
    k.AppendInt(x);
    s.AppendStr(y);
  }
  PagePtr page = Page::Make({std::move(k), std::move(s)});
  HashTable table({DataType::kInt64, DataType::kString});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*page, {0, 1}, &ids);
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 2, 0}));
  std::vector<Column> out;
  out.emplace_back(DataType::kInt64);
  out.emplace_back(DataType::kString);
  table.AppendKeys(0, table.size(), &out);
  EXPECT_EQ(out[0].ints(), (std::vector<int64_t>{1, 1, 2}));
  EXPECT_EQ(out[1].strings(), (std::vector<std::string>{"x", "y", "x"}));
}

TEST(HashTableTest, ZeroKeyColumnsMapEverythingToOneGroup) {
  HashTable table({});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*IntPage({5, 6, 7}), {}, &ids);
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 0, 0}));
  EXPECT_EQ(table.size(), 1);
}

TEST(HashTableTest, ClearKeepsCapacityAndRestartsIds) {
  HashTable table({DataType::kInt64});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*IntPage({1, 2, 3}), {0}, &ids);
  table.Clear();
  EXPECT_EQ(table.size(), 0);
  table.LookupOrInsert(*IntPage({42}), {0}, &ids);
  EXPECT_EQ(ids, (std::vector<int64_t>{0}));
  EXPECT_EQ(table.size(), 1);
}

TEST(HashTableTest, FindJoinExpandsSpans) {
  // Table over keys {10, 20}; spans give key 10 two build rows and key 20
  // one. Probing [20, 10, 30] must expand to (0,2), (1,0), (1,1).
  HashTable table({DataType::kInt64});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*IntPage({10, 20}), {0}, &ids);
  std::vector<int64_t> offsets = {0, 2, 3};  // id 0 -> rows [0,2), id 1 -> [2,3)
  std::vector<int64_t> rows = {4, 7, 9};
  std::vector<int32_t> probe_rows;
  std::vector<int64_t> build_rows;
  table.FindJoin(*IntPage({20, 10, 30}), {0}, offsets.data(), rows.data(),
                 &probe_rows, &build_rows);
  EXPECT_EQ(probe_rows, (std::vector<int32_t>{0, 1, 1}));
  EXPECT_EQ(build_rows, (std::vector<int64_t>{9, 4, 7}));
}

// ---------------------------------------------------------------------------
// End-to-end equivalence: the hash-path rewrite must reproduce TPC-H Q1
// (hash aggregation) and Q3 (hash join + aggregation) answers computed by
// independent row-at-a-time references over the same generated data.
// ---------------------------------------------------------------------------

constexpr double kSf = 0.005;

AccordionCluster::Options ZeroCostOptions() {
  AccordionCluster::Options options;
  options.num_workers = 2;
  options.num_storage_nodes = 2;
  options.scale_factor = kSf;
  options.engine.cost.scale = 0;
  options.engine.rpc_latency_ms = 0;
  return options;
}

std::vector<PagePtr> RunQuery(int q) {
  AccordionCluster cluster(ZeroCostOptions());
  auto submitted = cluster.coordinator()->Submit(
      TpchQueryPlan(q, cluster.coordinator()->catalog()));
  EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
  auto result = cluster.coordinator()->Wait(*submitted, 120000);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return *result;
}

TEST(HashPathEquivalenceTest, Q1MatchesReferenceAggregation) {
  struct Acc {
    double sum_qty = 0, sum_base = 0, sum_disc_price = 0, sum_charge = 0;
    double sum_disc = 0;
    int64_t count = 0;
  };
  std::map<std::pair<std::string, std::string>, Acc> ref;
  const int64_t cutoff = ParseDate("1998-09-02");
  for (const auto& page : GenerateSplit("lineitem", kSf, 0, 1, 4096)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      if (page->column(10).IntAt(r) > cutoff) continue;  // l_shipdate
      Acc& acc = ref[{page->column(8).StrAt(r), page->column(9).StrAt(r)}];
      double qty = page->column(4).DoubleAt(r);
      double price = page->column(5).DoubleAt(r);
      double disc = page->column(6).DoubleAt(r);
      double tax = page->column(7).DoubleAt(r);
      acc.sum_qty += qty;
      acc.sum_base += price;
      acc.sum_disc_price += price * (1 - disc);
      acc.sum_charge += price * (1 - disc) * (1 + tax);
      acc.sum_disc += disc;
      acc.count += 1;
    }
  }
  ASSERT_FALSE(ref.empty());

  std::vector<PagePtr> result = RunQuery(1);
  int64_t rows = 0;
  for (const auto& page : result) rows += page->num_rows();
  ASSERT_EQ(rows, static_cast<int64_t>(ref.size()));
  for (const auto& page : result) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      auto it = ref.find({page->column(0).StrAt(r), page->column(1).StrAt(r)});
      ASSERT_NE(it, ref.end());
      const Acc& acc = it->second;
      auto near = [](double a, double b) {
        return std::abs(a - b) <= std::abs(b) * 1e-9 + 1e-9;
      };
      EXPECT_TRUE(near(page->column(2).DoubleAt(r), acc.sum_qty));
      EXPECT_TRUE(near(page->column(3).DoubleAt(r), acc.sum_base));
      EXPECT_TRUE(near(page->column(4).DoubleAt(r), acc.sum_disc_price));
      EXPECT_TRUE(near(page->column(5).DoubleAt(r), acc.sum_charge));
      EXPECT_TRUE(near(page->column(6).DoubleAt(r),
                       acc.sum_qty / static_cast<double>(acc.count)));
      EXPECT_TRUE(near(page->column(7).DoubleAt(r),
                       acc.sum_base / static_cast<double>(acc.count)));
      EXPECT_TRUE(near(page->column(8).DoubleAt(r),
                       acc.sum_disc / static_cast<double>(acc.count)));
      EXPECT_EQ(page->column(9).IntAt(r), acc.count);
    }
  }
}

TEST(HashPathEquivalenceTest, Q3MatchesReferenceJoinAggregation) {
  // Reference: nested hash-map join + aggregation in plain STL.
  std::set<int64_t> building_custs;
  for (const auto& page : GenerateSplit("customer", kSf, 0, 1, 4096)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      if (page->column(6).StrAt(r) == "BUILDING") {
        building_custs.insert(page->column(0).IntAt(r));
      }
    }
  }
  const int64_t pivot = ParseDate("1995-03-15");
  std::map<int64_t, std::pair<int64_t, int64_t>> orders;  // key -> (date, prio)
  for (const auto& page : GenerateSplit("orders", kSf, 0, 1, 4096)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      if (page->column(4).IntAt(r) < pivot &&
          building_custs.count(page->column(1).IntAt(r))) {
        orders[page->column(0).IntAt(r)] = {page->column(4).IntAt(r),
                                            page->column(7).IntAt(r)};
      }
    }
  }
  std::map<std::tuple<int64_t, int64_t, int64_t>, double> revenue;
  for (const auto& page : GenerateSplit("lineitem", kSf, 0, 1, 4096)) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      if (page->column(10).IntAt(r) <= pivot) continue;  // l_shipdate
      auto it = orders.find(page->column(0).IntAt(r));
      if (it == orders.end()) continue;
      double price = page->column(5).DoubleAt(r);
      double disc = page->column(6).DoubleAt(r);
      revenue[{it->first, it->second.first, it->second.second}] +=
          price * (1 - disc);
    }
  }

  std::vector<PagePtr> result = RunQuery(3);
  int64_t rows = 0;
  for (const auto& page : result) rows += page->num_rows();
  ASSERT_EQ(rows, std::min<int64_t>(10, static_cast<int64_t>(revenue.size())));

  double prev = std::numeric_limits<double>::infinity();
  for (const auto& page : result) {
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      std::tuple<int64_t, int64_t, int64_t> key{page->column(0).IntAt(r),
                                                page->column(1).IntAt(r),
                                                page->column(2).IntAt(r)};
      auto it = revenue.find(key);
      ASSERT_NE(it, revenue.end()) << "unexpected group in Q3 output";
      double rev = page->column(3).DoubleAt(r);
      EXPECT_NEAR(rev, it->second, std::abs(it->second) * 1e-9 + 1e-9);
      EXPECT_LE(rev, prev + 1e-9) << "Q3 output not sorted by revenue desc";
      prev = rev;
    }
  }
}

// --- adversarial property tests ---------------------------------------------
// Inputs chosen to be hostile to an open-addressing table: degenerate key
// distributions, batches that force mid-batch growth, and randomized
// workloads cross-checked against std::unordered_map.

TEST(HashTablePropertyTest, AllEqualKeys) {
  // One distinct key across many batches: every probe lands on the same
  // slot, ids must stay 0, and the table must never grow.
  HashTable table({DataType::kInt64});
  std::vector<int64_t> ids;
  for (int batch = 0; batch < 8; ++batch) {
    table.LookupOrInsert(*IntPage(std::vector<int64_t>(4096, 42)), {0}, &ids);
    for (int64_t id : ids) ASSERT_EQ(id, 0);
  }
  EXPECT_EQ(table.size(), 1);
  table.Find(*IntPage({42, 43}), {0}, &ids);
  EXPECT_EQ(ids, (std::vector<int64_t>{0, -1}));
}

TEST(HashTablePropertyTest, PowerOfTwoStrideKeys) {
  // Keys i * 2^16 share all low bits pre-mix; a weak hash would pile them
  // into one probe chain. All strides must still resolve exactly.
  for (int64_t stride : {1LL << 10, 1LL << 16, 1LL << 20}) {
    HashTable table({DataType::kInt64});
    std::vector<int64_t> keys;
    keys.reserve(50000);
    for (int64_t i = 0; i < 50000; ++i) keys.push_back(i * stride);
    std::vector<int64_t> ids;
    table.LookupOrInsert(*IntPage(keys), {0}, &ids);
    ASSERT_EQ(table.size(), 50000) << "stride " << stride;
    for (int64_t i = 0; i < 50000; ++i) {
      ASSERT_EQ(ids[i], i) << "stride " << stride;
    }
    table.Find(*IntPage(keys), {0}, &ids);
    for (int64_t i = 0; i < 50000; ++i) {
      ASSERT_EQ(ids[i], i) << "stride " << stride;
    }
  }
}

TEST(HashTablePropertyTest, ResizeDuringSingleBatch) {
  // One batch far beyond the initial capacity (1024 slots) forces several
  // Grow() calls mid-batch; ids handed out before and after each growth
  // must stay consistent, including for rows that repeat earlier keys.
  constexpr int64_t kDistinct = 100000;
  std::vector<int64_t> keys;
  keys.reserve(kDistinct + kDistinct / 2);
  for (int64_t i = 0; i < kDistinct; ++i) {
    keys.push_back(i * 7919);
    if (i % 2 == 0) keys.push_back((i / 2) * 7919);  // revisit earlier key
  }
  HashTable table({DataType::kInt64});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*IntPage(keys), {0}, &ids);
  EXPECT_EQ(table.size(), kDistinct);
  std::map<int64_t, int64_t> first_seen;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto [it, inserted] = first_seen.try_emplace(keys[i], ids[i]);
    ASSERT_EQ(it->second, ids[i]) << "row " << i;
  }
}

TEST(HashTablePropertyTest, RandomizedAgainstUnorderedMapSingleInt) {
  Random rng(1234);
  HashTable table({DataType::kInt64});
  std::unordered_map<int64_t, int64_t> oracle;
  std::vector<int64_t> ids;
  for (int batch = 0; batch < 20; ++batch) {
    std::vector<int64_t> keys;
    for (int i = 0; i < 1000; ++i) keys.push_back(rng.NextInt(0, 5000));
    table.LookupOrInsert(*IntPage(keys), {0}, &ids);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto [it, inserted] =
          oracle.try_emplace(keys[i], static_cast<int64_t>(oracle.size()));
      ASSERT_EQ(ids[i], it->second) << "batch " << batch << " row " << i;
    }
    // Interleave read-only probes of present and absent keys.
    std::vector<int64_t> probes;
    for (int i = 0; i < 500; ++i) probes.push_back(rng.NextInt(0, 10000));
    table.Find(*IntPage(probes), {0}, &ids);
    for (size_t i = 0; i < probes.size(); ++i) {
      auto it = oracle.find(probes[i]);
      ASSERT_EQ(ids[i], it == oracle.end() ? -1 : it->second);
    }
  }
  EXPECT_EQ(table.size(), static_cast<int64_t>(oracle.size()));
}

TEST(HashTablePropertyTest, RandomizedAgainstUnorderedMapMultiColumn) {
  // Two fixed-width key columns (packed-word path) cross-checked against
  // an std::unordered_map over the concatenated pair.
  Random rng(99);
  HashTable table({DataType::kInt64, DataType::kInt64});
  std::unordered_map<int64_t, int64_t> oracle;  // (a << 8 | b), a,b < 128
  std::vector<int64_t> ids;
  for (int batch = 0; batch < 10; ++batch) {
    Column a(DataType::kInt64);
    Column b(DataType::kInt64);
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int i = 0; i < 2000; ++i) {
      int64_t x = rng.NextInt(0, 128);
      int64_t y = rng.NextInt(0, 128);
      a.AppendInt(x);
      b.AppendInt(y);
      pairs.emplace_back(x, y);
    }
    PagePtr page = Page::Make({std::move(a), std::move(b)});
    table.LookupOrInsert(*page, {0, 1}, &ids);
    for (size_t i = 0; i < pairs.size(); ++i) {
      int64_t packed = (pairs[i].first << 8) | pairs[i].second;
      auto [it, inserted] =
          oracle.try_emplace(packed, static_cast<int64_t>(oracle.size()));
      ASSERT_EQ(ids[i], it->second);
    }
  }
  EXPECT_EQ(table.size(), static_cast<int64_t>(oracle.size()));
}

TEST(HashTablePropertyTest, RandomizedAgainstUnorderedMapStringKeys) {
  // String keys exercise the serialized-arena path, with shared prefixes
  // and repeated values.
  Random rng(7);
  HashTable table({DataType::kString});
  std::unordered_map<std::string, int64_t> oracle;
  std::vector<int64_t> ids;
  for (int batch = 0; batch < 10; ++batch) {
    Column col(DataType::kString);
    std::vector<std::string> keys;
    for (int i = 0; i < 1000; ++i) {
      std::string key = "prefix_" + std::to_string(rng.NextInt(0, 700));
      col.AppendStr(key);
      keys.push_back(std::move(key));
    }
    PagePtr page = Page::Make({std::move(col)});
    table.LookupOrInsert(*page, {0}, &ids);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto [it, inserted] =
          oracle.try_emplace(keys[i], static_cast<int64_t>(oracle.size()));
      ASSERT_EQ(ids[i], it->second);
    }
  }
  EXPECT_EQ(table.size(), static_cast<int64_t>(oracle.size()));
  // AppendKeys must round-trip every canonical key.
  std::vector<Column> out;
  out.emplace_back(DataType::kString);
  table.AppendKeys(0, table.size(), &out);
  for (int64_t id = 0; id < table.size(); ++id) {
    auto it = oracle.find(out[0].StrAt(id));
    ASSERT_NE(it, oracle.end());
    ASSERT_EQ(it->second, id);
  }
}

// --- batch join probe properties --------------------------------------------
// FindJoinBatch must reproduce the FindJoin reference
// match pairs bit-for-bit — same pairs, same order — for every row-count
// shape around the prefetch-distance and page boundaries and for hostile
// key distributions.

// Builds the CSR spans (offsets/rows grouped by dense id) the join bridge
// would build for this build page.
void BuildSpans(HashTable* table, const Page& build,
                std::vector<int64_t>* offsets, std::vector<int64_t>* rows) {
  std::vector<int64_t> ids;
  table->LookupOrInsert(build, {0}, &ids);
  const int64_t n = build.num_rows();
  const int64_t num_keys = table->size();
  offsets->assign(num_keys + 1, 0);
  for (int64_t r = 0; r < n; ++r) ++(*offsets)[ids[r] + 1];
  for (int64_t k = 0; k < num_keys; ++k) (*offsets)[k + 1] += (*offsets)[k];
  rows->resize(n);
  std::vector<int64_t> cursor(offsets->begin(), offsets->end() - 1);
  for (int64_t r = 0; r < n; ++r) (*rows)[cursor[ids[r]]++] = r;
}

void ExpectBatchMatchesScalar(const HashTable& table, const Page& probe,
                              const std::vector<int>& channels,
                              const std::vector<int64_t>& offsets,
                              const std::vector<int64_t>& rows) {
  std::vector<int32_t> want_probe, got_probe;
  std::vector<int64_t> want_build, got_build;
  table.FindJoin(probe, channels, offsets.data(), rows.data(), &want_probe,
                 &want_build);
  table.FindJoinBatch(probe, channels, offsets.data(), rows.data(), &got_probe,
                      &got_build);
  ASSERT_EQ(got_probe, want_probe);
  ASSERT_EQ(got_build, want_build);
}

TEST(FindJoinBatchPropertyTest, LaneBoundaryRowCounts) {
  // 0/1/255/256/257 probe rows straddle the page size and odd-length
  // tails; random keys with duplicates on the build side and ~half-absent
  // probes.
  Random rng(42);
  std::vector<int64_t> build_keys;
  for (int i = 0; i < 600; ++i) build_keys.push_back(rng.NextInt(0, 300));
  HashTable table({DataType::kInt64});
  std::vector<int64_t> offsets, rows;
  BuildSpans(&table, *IntPage(build_keys), &offsets, &rows);
  for (int64_t n : {0, 1, 255, 256, 257}) {
    std::vector<int64_t> probe_keys;
    for (int64_t i = 0; i < n; ++i) probe_keys.push_back(rng.NextInt(0, 600));
    ExpectBatchMatchesScalar(table, *IntPage(probe_keys), {0}, offsets, rows);
  }
}

TEST(FindJoinBatchPropertyTest, ZeroKeyDoesNotMatchEmptySlots) {
  // Key 0's word equals the empty slot's tag initialization: a probe for 0
  // against a table without 0 must miss, and with 0 must hit (the probe
  // stops at an empty id, never on the tag alone).
  for (bool build_has_zero : {false, true}) {
    std::vector<int64_t> build_keys = {5, 9, 13};
    if (build_has_zero) build_keys.push_back(0);
    HashTable table({DataType::kInt64});
    std::vector<int64_t> offsets, rows;
    BuildSpans(&table, *IntPage(build_keys), &offsets, &rows);
    std::vector<int64_t> probe_keys(257, 0);  // all-zero probe page
    ExpectBatchMatchesScalar(table, *IntPage(probe_keys), {0}, offsets, rows);
    std::vector<int32_t> probe_rows;
    std::vector<int64_t> build_rows;
    table.FindJoinBatch(*IntPage(probe_keys), {0}, offsets.data(), rows.data(),
                        &probe_rows, &build_rows);
    EXPECT_EQ(probe_rows.size(), build_has_zero ? 257u : 0u);
  }
}

TEST(FindJoinBatchPropertyTest, CollisionHeavyDuplicates) {
  // 16 distinct keys over 100k build rows: every probe hit expands to a
  // ~6000-row span, stressing the sizing pass and the raw-store fill.
  Random rng(11);
  std::vector<int64_t> build_keys;
  for (int i = 0; i < 100000; ++i) build_keys.push_back(rng.NextInt(0, 15));
  HashTable table({DataType::kInt64});
  std::vector<int64_t> offsets, rows;
  BuildSpans(&table, *IntPage(build_keys), &offsets, &rows);
  std::vector<int64_t> probe_keys;
  for (int i = 0; i < 64; ++i) probe_keys.push_back(rng.NextInt(0, 31));
  ExpectBatchMatchesScalar(table, *IntPage(probe_keys), {0}, offsets, rows);
}

TEST(FindJoinBatchPropertyTest, LargeTableRandomProbes) {
  // A table big enough to leave L2 (1M distinct keys) with random hit/miss
  // probes.
  Random rng(77);
  std::vector<int64_t> build_keys;
  build_keys.reserve(1 << 20);
  for (int64_t i = 0; i < (1 << 20); ++i) build_keys.push_back(i * 3);
  HashTable table({DataType::kInt64});
  std::vector<int64_t> offsets, rows;
  BuildSpans(&table, *IntPage(build_keys), &offsets, &rows);
  std::vector<int64_t> probe_keys;
  for (int i = 0; i < 4097; ++i) {
    probe_keys.push_back(rng.NextInt(0, (1 << 22)));
  }
  ExpectBatchMatchesScalar(table, *IntPage(probe_keys), {0}, offsets, rows);
}

TEST(FindJoinBatchPropertyTest, NonWordKeysFallBackConsistently) {
  // Multi-column and string keys take FindBatch's generic (hash + key
  // compare) loop inside FindJoinBatch; results must match FindJoin exactly.
  Random rng(5);
  Column a(DataType::kInt64), b(DataType::kString);
  for (int i = 0; i < 500; ++i) {
    a.AppendInt(rng.NextInt(0, 40));
    b.AppendStr("k" + std::to_string(rng.NextInt(0, 10)));
  }
  PagePtr build = Page::Make({std::move(a), std::move(b)});
  HashTable table({DataType::kInt64, DataType::kString});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*build, {0, 1}, &ids);
  std::vector<int64_t> offsets(table.size() + 1, 0), rows(build->num_rows());
  for (int64_t id : ids) ++offsets[id + 1];
  for (int64_t k = 0; k < table.size(); ++k) offsets[k + 1] += offsets[k];
  std::vector<int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (int64_t r = 0; r < build->num_rows(); ++r) rows[cursor[ids[r]]++] = r;
  Column pa(DataType::kInt64), pb(DataType::kString);
  for (int i = 0; i < 257; ++i) {
    pa.AppendInt(rng.NextInt(0, 80));
    pb.AppendStr("k" + std::to_string(rng.NextInt(0, 20)));
  }
  PagePtr probe = Page::Make({std::move(pa), std::move(pb)});
  ExpectBatchMatchesScalar(table, *probe, {0, 1}, offsets, rows);
}

TEST(FindJoinBatchPropertyTest, DoubleKeysProbeByBitPattern) {
  Random rng(8);
  Column build_col(DataType::kDouble);
  for (int i = 0; i < 1000; ++i) {
    build_col.AppendDouble(static_cast<double>(rng.NextInt(0, 400)) * 0.5);
  }
  PagePtr build = Page::Make({std::move(build_col)});
  HashTable table({DataType::kDouble});
  std::vector<int64_t> offsets, rows;
  BuildSpans(&table, *build, &offsets, &rows);
  Column probe_col(DataType::kDouble);
  for (int i = 0; i < 255; ++i) {
    probe_col.AppendDouble(static_cast<double>(rng.NextInt(0, 800)) * 0.5);
  }
  PagePtr probe = Page::Make({std::move(probe_col)});
  ExpectBatchMatchesScalar(table, *probe, {0}, offsets, rows);
}

TEST(FindJoinBatchPropertyTest, HashWordsMatchesColumnHashInto) {
  // Grace spill picks a row's partition file from the TOP bits of
  // Column::HashInto and relies on the table taking its slot from the LOW
  // bits of that same hash (JoinBridge::HashKeys); a word-mode table
  // computes it with HashWords. The two must agree bit-for-bit on integer
  // and double keys.
  auto expect_same = [](const Column& col, const std::vector<int64_t>& words) {
    std::vector<uint64_t> want(words.size(), Page::kHashSeed);
    col.HashInto(&want);
    std::vector<uint64_t> got(words.size());
    HashTable::HashWords(words.data(), static_cast<int64_t>(words.size()),
                         got.data());
    EXPECT_EQ(got, want) << DataTypeName(col.type()) << " n=" << words.size();
  };
  Random rng(9);
  for (int64_t n : {0, 1, 3, 4, 5, 255, 256, 257}) {
    Column ints(DataType::kInt64);
    Column doubles(DataType::kDouble);
    std::vector<int64_t> int_words, double_words;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t v = rng.NextInt(0, 1LL << 62) - (1LL << 61);
      ints.AppendInt(v);
      int_words.push_back(v);
      const double d = static_cast<double>(v) * 0.25;
      doubles.AppendDouble(d);
      int64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      double_words.push_back(bits);
    }
    expect_same(ints, int_words);
    expect_same(doubles, double_words);
  }
}

// --- NULL key encoding -------------------------------------------------------
// The table's NULL-vs-payload disambiguation is load-bearing in three
// layouts at once (word-mode sentinel id, fixed-path null-mask word,
// serialized-path validity byte) and must survive the spill plumbing that
// re-hashes and re-materializes keys. These tests hit the
// adversarial corners: NULL vs the zero payload NULL rows carry, all-NULL
// pages, NULL position in compound keys, and round trips.

// Builds an int64 column where valid[i] == 0 marks row i NULL (the value
// at that position is ignored; AppendNull zeroes the payload).
Column NullableIntColumn(const std::vector<int64_t>& values,
                         const std::vector<uint8_t>& valid) {
  Column col(DataType::kInt64);
  for (size_t i = 0; i < values.size(); ++i) {
    if (valid[i]) {
      col.AppendInt(values[i]);
    } else {
      col.AppendNull();
    }
  }
  return col;
}

Column NullableStrColumn(const std::vector<std::string>& values,
                         const std::vector<uint8_t>& valid) {
  Column col(DataType::kString);
  for (size_t i = 0; i < values.size(); ++i) {
    if (valid[i]) {
      col.AppendStr(values[i]);
    } else {
      col.AppendNull();
    }
  }
  return col;
}

PagePtr NullableIntPage(const std::vector<int64_t>& values,
                        const std::vector<uint8_t>& valid) {
  return Page::Make({NullableIntColumn(values, valid)});
}

TEST(HashTableNullKeyTest, NullIsItsOwnGroupDistinctFromZero) {
  // Word mode: a NULL key carries a zeroed payload word, so the slot tag
  // cannot tell it from a genuine 0 — the dedicated null_group_id must.
  HashTable table({DataType::kInt64});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*NullableIntPage({0, 0, 7, 0, 0}, {1, 0, 1, 0, 1}),
                       {0}, &ids);
  EXPECT_EQ(table.size(), 3);
  EXPECT_EQ(ids[0], ids[4]);         // the two genuine zeros
  EXPECT_EQ(ids[1], ids[3]);         // the two NULLs
  EXPECT_NE(ids[0], ids[1]);         // NULL != 0
  EXPECT_NE(ids[1], ids[2]);         // NULL != 7
  // Group semantics: a NULL probe finds the NULL group (GROUP BY).
  std::vector<int64_t> found;
  table.Find(*NullableIntPage({0, 0}, {0, 1}), {0}, &found);
  EXPECT_EQ(found[0], ids[1]);
  EXPECT_EQ(found[1], ids[0]);
  // Ids are stable across batches and the NULL group survives growth.
  std::vector<int64_t> more_keys;
  std::vector<uint8_t> more_valid;
  for (int64_t i = 0; i < 5000; ++i) {
    more_keys.push_back(i);
    more_valid.push_back(i % 17 != 0);
  }
  std::vector<int64_t> more_ids;
  table.LookupOrInsert(*NullableIntPage(more_keys, more_valid), {0},
                       &more_ids);
  for (int64_t i = 0; i < 5000; ++i) {
    if (i % 17 == 0) EXPECT_EQ(more_ids[i], ids[1]) << "row " << i;
  }
  table.Find(*NullableIntPage({0}, {0}), {0}, &found);
  EXPECT_EQ(found[0], ids[1]);
}

TEST(HashTableNullKeyTest, NullDistinctFromEmptyString) {
  // Serialized path: NULL's payload is the empty string, so only the
  // per-value validity prefix byte separates the two.
  HashTable table({DataType::kString});
  std::vector<int64_t> ids;
  Column col = NullableStrColumn({"", "", "x", ""}, {1, 0, 1, 0});
  table.LookupOrInsert(*Page::Make({std::move(col)}), {0}, &ids);
  EXPECT_EQ(table.size(), 3);
  EXPECT_EQ(ids[1], ids[3]);
  EXPECT_NE(ids[0], ids[1]);
  // AppendKeys must re-materialize the NULL key as NULL, not "".
  std::vector<Column> out;
  out.emplace_back(DataType::kString);
  table.AppendKeys(0, table.size(), &out);
  EXPECT_FALSE(out[0].IsNull(ids[0]));
  EXPECT_TRUE(out[0].StrAt(ids[0]).empty());
  EXPECT_TRUE(out[0].IsNull(ids[1]));
}

TEST(HashTableNullKeyTest, CompoundKeysDistinguishNullPositions) {
  // Fixed multi-column path: the trailing null-mask word must separate
  // (NULL,1), (1,NULL), (NULL,NULL), (1,1) — the payload words alone are
  // 0/1 permutations that collide pairwise.
  Column a = NullableIntColumn({1, 0, 0, 1, 0, 0, 1},
                               {1, 0, 0, 1, 0, 1, 1});
  Column b = NullableIntColumn({1, 1, 0, 0, 0, 0, 1},
                               {1, 1, 0, 0, 0, 1, 1});
  PagePtr page = Page::Make({std::move(a), std::move(b)});
  // Rows: (1,1) (N,1) (N,N) (1,N) (N,N) (0,0) (1,1)
  HashTable table({DataType::kInt64, DataType::kInt64});
  std::vector<int64_t> ids;
  table.LookupOrInsert(*page, {0, 1}, &ids);
  EXPECT_EQ(table.size(), 5);
  EXPECT_EQ(ids[2], ids[4]);  // (NULL,NULL) groups with itself
  EXPECT_EQ(ids[0], ids[6]);
  std::set<int64_t> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), 5u);
  // Same page again: every id stable.
  std::vector<int64_t> again;
  table.LookupOrInsert(*page, {0, 1}, &again);
  EXPECT_EQ(again, ids);
  // Mixed int+string (serialized path) must make the same distinctions
  // with zero payloads: (0,"") vs (NULL,"") vs (0,NULL) vs (NULL,NULL).
  Column mi = NullableIntColumn({0, 0, 0, 0}, {1, 0, 1, 0});
  Column ms = NullableStrColumn({"", "", "", ""}, {1, 1, 0, 0});
  HashTable mixed({DataType::kInt64, DataType::kString});
  table.Clear();
  mixed.LookupOrInsert(*Page::Make({std::move(mi), std::move(ms)}), {0, 1},
                       &ids);
  EXPECT_EQ(mixed.size(), 4);
}

TEST(HashTableNullKeyTest, AllNullKeyPagesCollapseToOneGroup) {
  for (DataType type : {DataType::kInt64, DataType::kString}) {
    HashTable table({type});
    std::vector<int64_t> ids;
    for (int batch = 0; batch < 3; ++batch) {
      Column col(type);
      for (int i = 0; i < 1000; ++i) col.AppendNull();
      table.LookupOrInsert(*Page::Make({std::move(col)}), {0}, &ids);
      for (int64_t id : ids) ASSERT_EQ(id, 0);
    }
    EXPECT_EQ(table.size(), 1);
    // Join semantics: neither a NULL probe nor any value probe reaches
    // the all-NULL build — its CSR span exists but is unreachable, which
    // is what lets outer joins drain it as unmatched.
    std::vector<int64_t> offsets{0, 3000};
    std::vector<int64_t> rows(3000);
    std::iota(rows.begin(), rows.end(), 0);
    Column probe(type);
    probe.AppendNull();
    if (type == DataType::kInt64) {
      probe.AppendInt(0);
    } else {
      probe.AppendStr("");
    }
    std::vector<int32_t> probe_rows;
    std::vector<int64_t> build_rows;
    table.FindJoin(*Page::Make({std::move(probe)}), {0}, offsets.data(),
                   rows.data(), &probe_rows, &build_rows);
    EXPECT_TRUE(probe_rows.empty());
  }
}

TEST(HashTableNullKeyTest, JoinProbesNeverMatchNullInAnyLayout) {
  // Build sides containing NULL keys alongside real ones, probed with
  // pages mixing NULLs and values: NULL probe rows must emit zero pairs
  // in the word, fixed-compound, and serialized layouts, and
  // FindJoinBatch must agree with FindJoin.
  Random rng(99);
  // Layout 1: single int key (word mode).
  {
    std::vector<int64_t> values;
    std::vector<uint8_t> valid;
    for (int i = 0; i < 700; ++i) {
      values.push_back(rng.NextInt(0, 50));
      valid.push_back(rng.NextInt(0, 9) != 0);
    }
    PagePtr build = NullableIntPage(values, valid);
    HashTable table({DataType::kInt64});
    std::vector<int64_t> offsets, rows;
    BuildSpans(&table, *build, &offsets, &rows);
    std::vector<int64_t> pvalues;
    std::vector<uint8_t> pvalid;
    for (int i = 0; i < 257; ++i) {
      pvalues.push_back(rng.NextInt(0, 60));
      pvalid.push_back(i % 3 != 0);
    }
    PagePtr probe = NullableIntPage(pvalues, pvalid);
    ExpectBatchMatchesScalar(table, *probe, {0}, offsets, rows);
    std::vector<int32_t> probe_rows;
    std::vector<int64_t> build_rows;
    table.FindJoin(*probe, {0}, offsets.data(), rows.data(), &probe_rows,
                   &build_rows);
    for (int32_t r : probe_rows) {
      EXPECT_TRUE(pvalid[r]) << "NULL probe row " << r << " matched";
    }
    // Every valid probe of a built value does match (the NULL build rows
    // didn't poison the real groups).
    std::set<int64_t> built;
    for (size_t i = 0; i < values.size(); ++i) {
      if (valid[i]) built.insert(values[i]);
    }
    std::set<int32_t> matched(probe_rows.begin(), probe_rows.end());
    for (size_t i = 0; i < pvalues.size(); ++i) {
      if (pvalid[i] && built.count(pvalues[i])) {
        EXPECT_TRUE(matched.count(static_cast<int32_t>(i))) << "row " << i;
      }
    }
  }
  // Layout 2: compound int keys (fixed path, null-mask word).
  {
    std::vector<int64_t> ka, kb;
    std::vector<uint8_t> va, vb;
    for (int i = 0; i < 500; ++i) {
      ka.push_back(rng.NextInt(0, 10));
      kb.push_back(rng.NextInt(0, 10));
      va.push_back(rng.NextInt(0, 4) != 0);
      vb.push_back(rng.NextInt(0, 4) != 0);
    }
    PagePtr build = Page::Make(
        {NullableIntColumn(ka, va), NullableIntColumn(kb, vb)});
    HashTable table({DataType::kInt64, DataType::kInt64});
    std::vector<int64_t> ids;
    table.LookupOrInsert(*build, {0, 1}, &ids);
    std::vector<int64_t> offsets(table.size() + 1, 0), rows(500);
    for (int64_t id : ids) ++offsets[id + 1];
    for (int64_t k = 0; k < table.size(); ++k) offsets[k + 1] += offsets[k];
    std::vector<int64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (int64_t r = 0; r < 500; ++r) rows[cursor[ids[r]]++] = r;
    ExpectBatchMatchesScalar(table, *build, {0, 1}, offsets, rows);
    std::vector<int32_t> probe_rows;
    std::vector<int64_t> build_rows;
    table.FindJoin(*build, {0, 1}, offsets.data(), rows.data(), &probe_rows,
                   &build_rows);
    for (int32_t r : probe_rows) {
      EXPECT_TRUE(va[r] && vb[r]) << "null-tuple probe row " << r;
    }
    for (int64_t b : build_rows) {
      EXPECT_TRUE(va[b] && vb[b]) << "null-tuple build row " << b;
    }
  }
  // Layout 3: int+string keys (serialized path, validity prefix bytes).
  {
    std::vector<int64_t> ki;
    std::vector<std::string> ks;
    std::vector<uint8_t> vi, vs;
    for (int i = 0; i < 400; ++i) {
      ki.push_back(rng.NextInt(0, 8));
      ks.push_back(i % 5 == 0 ? "" : "k" + std::to_string(rng.NextInt(0, 8)));
      vi.push_back(rng.NextInt(0, 4) != 0);
      vs.push_back(rng.NextInt(0, 4) != 0);
    }
    PagePtr build = Page::Make(
        {NullableIntColumn(ki, vi), NullableStrColumn(ks, vs)});
    HashTable table({DataType::kInt64, DataType::kString});
    std::vector<int64_t> ids;
    table.LookupOrInsert(*build, {0, 1}, &ids);
    std::vector<int64_t> offsets(table.size() + 1, 0), rows(400);
    for (int64_t id : ids) ++offsets[id + 1];
    for (int64_t k = 0; k < table.size(); ++k) offsets[k + 1] += offsets[k];
    std::vector<int64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (int64_t r = 0; r < 400; ++r) rows[cursor[ids[r]]++] = r;
    ExpectBatchMatchesScalar(table, *build, {0, 1}, offsets, rows);
    std::vector<int32_t> probe_rows;
    std::vector<int64_t> build_rows;
    table.FindJoin(*build, {0, 1}, offsets.data(), rows.data(), &probe_rows,
                   &build_rows);
    for (int32_t r : probe_rows) {
      EXPECT_TRUE(vi[r] && vs[r]) << "null-tuple probe row " << r;
    }
  }
}

TEST(HashTableNullKeyTest, RadixPartitioningKeepsNullRowsTogether) {
  // Grace spill hashes once to pick partition files: every NULL key hashes
  // to the same sentinel-derived value, so all NULL rows of a column land
  // in ONE partition and per-partition tables see the same groups the
  // single-table path does.
  Random rng(7);
  std::vector<int64_t> values;
  std::vector<uint8_t> valid;
  for (int i = 0; i < 4000; ++i) {
    values.push_back(rng.NextInt(0, 300));
    valid.push_back(rng.NextInt(0, 7) != 0);
  }
  PagePtr page = NullableIntPage(values, valid);
  std::vector<uint64_t> hashes;
  page->HashRows({0}, &hashes);
  // All NULL rows share one hash, distinct from key 0's hash.
  uint64_t null_hash = 0;
  bool saw_null = false;
  for (int i = 0; i < 4000; ++i) {
    if (valid[i]) continue;
    if (!saw_null) {
      null_hash = hashes[i];
      saw_null = true;
    }
    ASSERT_EQ(hashes[i], null_hash) << "row " << i;
  }
  ASSERT_TRUE(saw_null);
  for (int i = 0; i < 4000; ++i) {
    if (valid[i] && values[i] == 0) {
      ASSERT_NE(hashes[i], null_hash);
      break;
    }
  }
  RadixPartitioner partitioner(3);
  std::vector<std::vector<int32_t>> selections;
  partitioner.BuildSelections(hashes.data(), 4000, &selections);
  // Gathered partitions preserve validity, NULLs stay in one partition,
  // and the per-partition group total matches the global table.
  HashTable global({DataType::kInt64});
  std::vector<int64_t> ids;
  global.LookupOrInsert(*page, {0}, &ids);
  int null_partitions = 0;
  int64_t partitioned_groups = 0, partitioned_rows = 0;
  for (const auto& selection : selections) {
    if (selection.empty()) continue;
    PagePtr part = GatherSelection(*page, selection);
    partitioned_rows += part->num_rows();
    bool has_null = false;
    for (size_t i = 0; i < selection.size(); ++i) {
      ASSERT_EQ(part->column(0).IsNull(i),
                !valid[selection[i]]);
      has_null |= part->column(0).IsNull(i);
    }
    null_partitions += has_null ? 1 : 0;
    HashTable local({DataType::kInt64});
    local.LookupOrInsert(*part, {0}, &ids);
    partitioned_groups += local.size();
  }
  EXPECT_EQ(null_partitions, 1);
  EXPECT_EQ(partitioned_rows, 4000);
  EXPECT_EQ(partitioned_groups, global.size());
}

TEST(HashTableNullKeyTest, SpillRoundTripPreservesNullKeys) {
  // Grace spilling serializes build/probe pages to disk and rebuilds
  // tables from the read-back pages: validity must survive the frame
  // format byte-exactly, and a table built from the round-tripped page
  // must assign the same ids as one built from the original.
  Random rng(13);
  std::vector<int64_t> ints;
  std::vector<std::string> strs;
  std::vector<uint8_t> vi, vs;
  for (int i = 0; i < 2000; ++i) {
    ints.push_back(rng.NextInt(-100, 100));
    strs.push_back(i % 4 == 0 ? ""
                              : "s" + std::to_string(rng.NextInt(0, 40)));
    vi.push_back(rng.NextInt(0, 5) != 0);
    vs.push_back(rng.NextInt(0, 5) != 0);
  }
  PagePtr original = Page::Make(
      {NullableIntColumn(ints, vi), NullableStrColumn(strs, vs)});
  auto created = SpillFile::Create("", "null_keys", 1 << 12);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  auto file = std::move(created).value();
  ASSERT_TRUE(file->Append(*original).ok());
  ASSERT_TRUE(file->FinishWrite().ok());
  auto next = file->Next();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  PagePtr restored = std::move(next).value();
  ASSERT_NE(restored, nullptr);
  ASSERT_EQ(restored->num_rows(), 2000);
  for (int c = 0; c < 2; ++c) {
    for (int64_t r = 0; r < 2000; ++r) {
      ASSERT_EQ(restored->column(c).IsNull(r), original->column(c).IsNull(r))
          << "col " << c << " row " << r;
    }
  }
  // NULL payloads came back zeroed, keeping the key encoding's invariant.
  for (int64_t r = 0; r < 2000; ++r) {
    if (restored->column(0).IsNull(r)) {
      ASSERT_EQ(restored->column(0).IntAt(r), 0);
    }
    if (restored->column(1).IsNull(r)) {
      ASSERT_TRUE(restored->column(1).StrAt(r).empty());
    }
  }
  HashTable before({DataType::kInt64, DataType::kString});
  HashTable after({DataType::kInt64, DataType::kString});
  std::vector<int64_t> ids_before, ids_after;
  before.LookupOrInsert(*original, {0, 1}, &ids_before);
  after.LookupOrInsert(*restored, {0, 1}, &ids_after);
  EXPECT_EQ(ids_before, ids_after);
  EXPECT_EQ(before.size(), after.size());
}

}  // namespace
}  // namespace accordion
