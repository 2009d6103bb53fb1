// Layer probes: single-threaded rates of the storage generator, page
// serialization and the hash table, each timed around the layer's public
// entry points on generated TPC-H pages.
#include "common/clock.h"
#include "exec/hash_table.h"
#include "perfbench.h"
#include "tpch/tpch.h"

namespace perfbench {
namespace {

using accordion::DataType;
using accordion::HashTable;
using accordion::Page;
using accordion::Stopwatch;
using accordion::TpchSplitGenerator;

constexpr double kProbeSeconds = 0.15;
constexpr int64_t kProbeRows = 1 << 16;

double GenerationMrowsPerSecond(const std::string& table, double sf,
                                int64_t batch_rows) {
  Stopwatch watch;
  int64_t rows = 0;
  while (watch.ElapsedSeconds() < kProbeSeconds) {
    TpchSplitGenerator generator(table, sf, 0, 1, batch_rows);
    while (watch.ElapsedSeconds() < kProbeSeconds) {
      PagePtr page = generator.NextPage();
      if (page == nullptr) break;
      rows += page->num_rows();
    }
  }
  return static_cast<double>(rows) / watch.ElapsedSeconds() * 1e-6;
}

std::vector<PagePtr> FirstRows(const std::string& table, double sf,
                               int64_t batch_rows, int64_t max_rows) {
  TpchSplitGenerator generator(table, sf, 0, 1, batch_rows);
  std::vector<PagePtr> pages;
  int64_t rows = 0;
  while (rows < max_rows) {
    PagePtr page = generator.NextPage();
    if (page == nullptr) break;
    rows += page->num_rows();
    pages.push_back(std::move(page));
  }
  return pages;
}

}  // namespace

const std::vector<std::string>& ProbedTables() {
  static const std::vector<std::string> kTables = {
      "lineitem", "orders", "customer", "part", "partsupp", "supplier"};
  return kTables;
}

ProbeResults RunProbes(double sf, int64_t batch_rows) {
  ProbeResults results;
  for (const std::string& table : ProbedTables()) {
    results.gen_mrows_per_s[table] =
        GenerationMrowsPerSecond(table, sf, batch_rows);
  }

  std::vector<PagePtr> lineitem = FirstRows("lineitem", sf, batch_rows,
                                            kProbeRows);
  int64_t lineitem_rows = 0;
  for (const PagePtr& page : lineitem) lineitem_rows += page->num_rows();

  // vector: Page::Serialize / Page::Deserialize.
  std::vector<std::string> wire;
  Stopwatch watch;
  double bytes = 0;
  while (watch.ElapsedSeconds() < kProbeSeconds) {
    wire.clear();
    for (const PagePtr& page : lineitem) {
      wire.push_back(page->Serialize());
      bytes += static_cast<double>(wire.back().size());
    }
  }
  results.serialize_mb_per_s = bytes / watch.ElapsedSeconds() * 1e-6;
  watch.Restart();
  bytes = 0;
  while (watch.ElapsedSeconds() < kProbeSeconds) {
    for (const std::string& data : wire) {
      auto page = Page::Deserialize(data);
      if (!page.ok()) return results;  // rates stay 0: visibly broken
      bytes += static_cast<double>(data.size());
    }
  }
  results.deserialize_mb_per_s = bytes / watch.ElapsedSeconds() * 1e-6;

  // exec: HashTable as hash aggregation uses it (group id per l_orderkey).
  const std::vector<int> key_channel = {0};
  std::vector<int64_t> ids;
  watch.Restart();
  double rows = 0;
  while (watch.ElapsedSeconds() < kProbeSeconds) {
    HashTable groups({DataType::kInt64});
    for (const PagePtr& page : lineitem) {
      groups.LookupOrInsert(*page, key_channel, &ids);
    }
    rows += static_cast<double>(lineitem_rows);
  }
  results.hash_agg_mrows_per_s = rows / watch.ElapsedSeconds() * 1e-6;

  // exec: HashTable as the join bridge uses it — build on o_orderkey with
  // CSR match spans, probe with l_orderkey.
  std::vector<PagePtr> orders = FirstRows("orders", sf, batch_rows,
                                          kProbeRows / 4);
  HashTable build({DataType::kInt64});
  std::vector<int64_t> build_ids;
  for (const PagePtr& page : orders) {
    build.LookupOrInsert(*page, key_channel, &ids);
    build_ids.insert(build_ids.end(), ids.begin(), ids.end());
  }
  std::vector<int64_t> offsets(build.size() + 1, 0);
  for (int64_t id : build_ids) ++offsets[id + 1];
  for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  std::vector<int64_t> span_rows(build_ids.size());
  std::vector<int64_t> fill(offsets.begin(), offsets.end() - 1);
  for (size_t row = 0; row < build_ids.size(); ++row) {
    span_rows[fill[build_ids[row]]++] = static_cast<int64_t>(row);
  }
  std::vector<int32_t> probe_rows;
  std::vector<int64_t> build_rows;
  int64_t matches = 0;
  watch.Restart();
  rows = 0;
  while (watch.ElapsedSeconds() < kProbeSeconds) {
    for (const PagePtr& page : lineitem) {
      build.FindJoinBatch(*page, key_channel, offsets.data(),
                          span_rows.data(), &probe_rows, &build_rows);
      matches += static_cast<int64_t>(probe_rows.size());
    }
    rows += static_cast<double>(lineitem_rows);
  }
  // A probe that matched nothing measured a degenerate path: report 0.
  results.join_probe_mrows_per_s =
      matches > 0 ? rows / watch.ElapsedSeconds() * 1e-6 : 0;
  return results;
}

}  // namespace perfbench
