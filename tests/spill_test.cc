#include "exec/spill_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/resource_governor.h"
#include "exec/join_bridge.h"
#include "exec/task_context.h"

namespace accordion {
namespace {

PagePtr TwoColPage(const std::vector<int64_t>& keys,
                   const std::vector<int64_t>& payloads) {
  Column k(DataType::kInt64), p(DataType::kInt64);
  for (int64_t v : keys) k.AppendInt(v);
  for (int64_t v : payloads) p.AppendInt(v);
  return Page::Make({std::move(k), std::move(p)});
}

// --- SpillFile ---------------------------------------------------------------

TEST(SpillFileTest, RoundTripsPagesAcrossTypes) {
  auto created = SpillFile::Create("", "test", 1 << 12);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<SpillFile> file = std::move(created).value();
  Random rng(1);
  std::vector<PagePtr> originals;
  for (int p = 0; p < 20; ++p) {
    Column i(DataType::kInt64), d(DataType::kDouble), s(DataType::kString);
    for (int r = 0; r < 100; ++r) {
      i.AppendInt(rng.NextInt(-1000, 1000));
      d.AppendDouble(static_cast<double>(rng.NextInt(0, 100)) * 0.25);
      s.AppendStr("row_" + std::to_string(rng.NextInt(0, 50)));
    }
    PagePtr page = Page::Make({std::move(i), std::move(d), std::move(s)});
    originals.push_back(page);
    ASSERT_TRUE(file->Append(*page).ok());
  }
  ASSERT_TRUE(file->FinishWrite().ok());
  EXPECT_EQ(file->pages_written(), 20);
  EXPECT_EQ(file->rows_written(), 2000);
  EXPECT_GT(file->bytes_written(), 0);
  // Read back twice (Rewind) and compare every value.
  for (int pass = 0; pass < 2; ++pass) {
    for (const PagePtr& want : originals) {
      auto next = file->Next();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      PagePtr got = std::move(next).value();
      ASSERT_NE(got, nullptr);
      ASSERT_EQ(got->num_rows(), want->num_rows());
      for (int c = 0; c < want->num_columns(); ++c) {
        for (int64_t r = 0; r < want->num_rows(); ++r) {
          ASSERT_EQ(got->column(c).ValueAt(r).ToString(),
                    want->column(c).ValueAt(r).ToString());
        }
      }
    }
    auto eof = file->Next();
    ASSERT_TRUE(eof.ok());
    EXPECT_EQ(eof.value(), nullptr);
    ASSERT_TRUE(file->Rewind().ok());
  }
  // The destructor must unlink the temp file.
  std::string path = file->path();
  EXPECT_TRUE(std::filesystem::exists(path));
  file.reset();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(SpillFileTest, EmptyFileYieldsCleanEof) {
  auto created = SpillFile::Create("", "empty", 1 << 12);
  ASSERT_TRUE(created.ok());
  auto file = std::move(created).value();
  ASSERT_TRUE(file->FinishWrite().ok());
  auto next = file->Next();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), nullptr);
}

TEST(SpillFileTest, CorruptedPayloadIsTypedIoError) {
  auto created = SpillFile::Create("", "corrupt", 1 << 12);
  ASSERT_TRUE(created.ok());
  auto file = std::move(created).value();
  ASSERT_TRUE(file->Append(*TwoColPage({1, 2, 3}, {10, 20, 30})).ok());
  ASSERT_TRUE(file->FinishWrite().ok());
  // Flip a byte in the middle of the frame payload: the checksum must
  // catch it and surface kIoError, not garbage rows.
  {
    std::FILE* raw = std::fopen(file->path().c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    ASSERT_EQ(std::fseek(raw, 24, SEEK_SET), 0);
    std::fputc(0x5A, raw);
    std::fclose(raw);
  }
  ASSERT_TRUE(file->Rewind().ok());
  auto next = file->Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kIoError);
}

TEST(SpillFileTest, BadMagicIsTypedIoError) {
  auto created = SpillFile::Create("", "magic", 1 << 12);
  ASSERT_TRUE(created.ok());
  auto file = std::move(created).value();
  ASSERT_TRUE(file->Append(*TwoColPage({4, 5}, {40, 50})).ok());
  ASSERT_TRUE(file->FinishWrite().ok());
  {
    std::FILE* raw = std::fopen(file->path().c_str(), "r+b");
    ASSERT_NE(raw, nullptr);
    std::fputc(0x00, raw);  // clobber the frame magic
    std::fclose(raw);
  }
  ASSERT_TRUE(file->Rewind().ok());
  auto next = file->Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kIoError);
}

TEST(SpillFileTest, TruncatedFrameIsTypedIoError) {
  auto created = SpillFile::Create("", "trunc", 1 << 12);
  ASSERT_TRUE(created.ok());
  auto file = std::move(created).value();
  ASSERT_TRUE(file->Append(*TwoColPage({1, 2, 3, 4}, {1, 2, 3, 4})).ok());
  ASSERT_TRUE(file->FinishWrite().ok());
  std::filesystem::resize_file(
      file->path(), static_cast<uint64_t>(file->bytes_written() - 3));
  ASSERT_TRUE(file->Rewind().ok());
  auto next = file->Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kIoError);
}

// --- grace-spill join at the bridge level ------------------------------------

struct BridgeEnv {
  explicit BridgeEnv(int64_t build_budget_bytes) {
    config.memory.query_build_bytes = build_budget_bytes;
    Status s = config.Normalize();
    EXPECT_TRUE(s.ok()) << s.ToString();
    ctx = std::make_unique<TaskContext>("spill-test", &config);
  }
  EngineConfig config;
  std::unique_ptr<TaskContext> ctx;
};

using JoinTuple = std::tuple<int64_t, int64_t, int64_t>;  // key, ppay, bpay

// Streams the whole grace drain and returns the joined tuples.
std::multiset<JoinTuple> DrainAll(JoinBridge* bridge) {
  std::multiset<JoinTuple> got;
  while (true) {
    auto next = bridge->NextSpilledPage({0}, {1});
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok()) break;
    PagePtr page = std::move(next).value();
    if (page == nullptr) break;
    EXPECT_EQ(page->num_columns(), 3);
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      got.emplace(page->column(0).IntAt(r), page->column(1).IntAt(r),
                  page->column(2).IntAt(r));
    }
  }
  return got;
}

TEST(GraceSpillJoinTest, SpilledJoinMatchesInMemoryOracle) {
  Random rng(2024);
  BridgeEnv env(1 << 14);  // 16KB budget vs ~320KB build side
  JoinBridge bridge({DataType::kInt64, DataType::kInt64}, {0},
                    env.ctx.get());
  bridge.AddBuildDriver();
  bridge.AddProbeDriver();
  std::unordered_multimap<int64_t, int64_t> oracle_build;
  for (int p = 0; p < 20; ++p) {
    std::vector<int64_t> keys, payloads;
    for (int r = 0; r < 1000; ++r) {
      int64_t key = rng.NextInt(0, 999);
      keys.push_back(key);
      payloads.push_back(p * 1000 + r);
      oracle_build.emplace(key, p * 1000 + r);
    }
    ASSERT_TRUE(bridge.AddBuildPage(TwoColPage(keys, payloads)).ok());
  }
  ASSERT_TRUE(bridge.BuildDriverFinished());
  EXPECT_TRUE(bridge.spilled());
  EXPECT_TRUE(bridge.built());
  EXPECT_EQ(bridge.build_rows(), 20000);

  std::multiset<JoinTuple> expected;
  std::vector<int32_t> probe_rows;
  std::vector<int64_t> build_rows;
  for (int p = 0; p < 5; ++p) {
    std::vector<int64_t> keys, payloads;
    for (int r = 0; r < 1000; ++r) {
      int64_t key = rng.NextInt(0, 1999);  // ~half miss
      keys.push_back(key);
      payloads.push_back(-(p * 1000 + r));
      auto [begin, end] = oracle_build.equal_range(key);
      for (auto it = begin; it != end; ++it) {
        expected.emplace(key, -(p * 1000 + r), it->second);
      }
    }
    probe_rows.clear();
    build_rows.clear();
    ASSERT_TRUE(bridge
                    .Probe(*TwoColPage(keys, payloads), {0}, &probe_rows,
                           &build_rows)
                    .ok());
    // Spilled probes return no inline matches; everything streams later.
    EXPECT_TRUE(probe_rows.empty());
  }
  ASSERT_TRUE(bridge.ProbeDriverFinished());
  EXPECT_EQ(DrainAll(&bridge), expected);
  EXPECT_GT(env.ctx->spill_bytes_written(), 0);
  EXPECT_GE(env.ctx->spill_partitions(),
            1 << env.config.join.spill_partition_bits);
  EXPECT_GT(env.ctx->peak_build_bytes(), 0);
}

TEST(GraceSpillJoinTest, SkewedKeyRecursesThenChunks) {
  // Every build row has the same key: repartitioning can never split the
  // hot partition, so the drain must hit the recursion limit and fall
  // back to budget-sized build chunks with a probe-file pass per chunk.
  BridgeEnv env(1 << 13);
  JoinBridge bridge({DataType::kInt64, DataType::kInt64}, {0},
                    env.ctx.get());
  bridge.AddBuildDriver();
  bridge.AddProbeDriver();
  constexpr int64_t kBuildRows = 8000;
  std::multiset<JoinTuple> expected;
  for (int p = 0; p < 8; ++p) {
    std::vector<int64_t> keys(1000, 7), payloads;
    for (int r = 0; r < 1000; ++r) payloads.push_back(p * 1000 + r);
    ASSERT_TRUE(bridge.AddBuildPage(TwoColPage(keys, payloads)).ok());
  }
  ASSERT_TRUE(bridge.BuildDriverFinished());
  ASSERT_TRUE(bridge.spilled());
  std::vector<int32_t> probe_rows;
  std::vector<int64_t> build_rows;
  // 3 hits and 2 misses; each hit matches all 8000 build rows.
  ASSERT_TRUE(bridge
                  .Probe(*TwoColPage({7, 1, 7, 2, 7}, {-1, -2, -3, -4, -5}),
                         {0}, &probe_rows, &build_rows)
                  .ok());
  ASSERT_TRUE(bridge.ProbeDriverFinished());
  std::multiset<JoinTuple> got = DrainAll(&bridge);
  EXPECT_EQ(got.size(), 3u * kBuildRows);
  for (int64_t ppay : {-1, -3, -5}) {
    for (int64_t b = 0; b < kBuildRows; ++b) expected.emplace(7, ppay, b);
  }
  EXPECT_EQ(got, expected);
  // Recursion creates sub-partition files beyond the level-0 fan-out.
  EXPECT_GT(env.ctx->spill_partitions(),
            1 << env.config.join.spill_partition_bits);
}

TEST(GraceSpillJoinTest, StringKeysSpillThroughGenericPath) {
  BridgeEnv env(1 << 12);
  JoinBridge bridge({DataType::kString, DataType::kInt64}, {0},
                    env.ctx.get());
  bridge.AddBuildDriver();
  bridge.AddProbeDriver();
  Random rng(5);
  std::unordered_multimap<std::string, int64_t> oracle;
  for (int p = 0; p < 4; ++p) {
    Column k(DataType::kString), v(DataType::kInt64);
    for (int r = 0; r < 500; ++r) {
      std::string key = "key_" + std::to_string(rng.NextInt(0, 99));
      k.AppendStr(key);
      v.AppendInt(p * 500 + r);
      oracle.emplace(key, p * 500 + r);
    }
    ASSERT_TRUE(
        bridge.AddBuildPage(Page::Make({std::move(k), std::move(v)})).ok());
  }
  ASSERT_TRUE(bridge.BuildDriverFinished());
  ASSERT_TRUE(bridge.spilled());
  Column pk(DataType::kString), pv(DataType::kInt64);
  std::multiset<std::pair<std::string, int64_t>> expected;
  for (int r = 0; r < 200; ++r) {
    std::string key = "key_" + std::to_string(rng.NextInt(0, 199));
    pk.AppendStr(key);
    pv.AppendInt(-r);
    auto [begin, end] = oracle.equal_range(key);
    for (auto it = begin; it != end; ++it) expected.emplace(key, it->second);
  }
  std::vector<int32_t> probe_rows;
  std::vector<int64_t> build_rows;
  ASSERT_TRUE(bridge
                  .Probe(*Page::Make({std::move(pk), std::move(pv)}), {0},
                         &probe_rows, &build_rows)
                  .ok());
  ASSERT_TRUE(bridge.ProbeDriverFinished());
  std::multiset<std::pair<std::string, int64_t>> got;
  while (true) {
    auto next = bridge.NextSpilledPage({0}, {1});
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    PagePtr page = std::move(next).value();
    if (page == nullptr) break;
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      got.emplace(page->column(0).StrAt(r), page->column(2).IntAt(r));
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(GraceSpillJoinTest, NoProbePagesDrainsEmpty) {
  BridgeEnv env(1 << 12);
  JoinBridge bridge({DataType::kInt64, DataType::kInt64}, {0},
                    env.ctx.get());
  bridge.AddBuildDriver();
  bridge.AddProbeDriver();
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 5000; ++i) {
    keys.push_back(i);
    payloads.push_back(i);
  }
  ASSERT_TRUE(bridge.AddBuildPage(TwoColPage(keys, payloads)).ok());
  ASSERT_TRUE(bridge.BuildDriverFinished());
  ASSERT_TRUE(bridge.spilled());
  ASSERT_TRUE(bridge.ProbeDriverFinished());
  auto next = bridge.NextSpilledPage({0}, {1});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), nullptr);
}

// --- in-memory radix path ----------------------------------------------------

TEST(RadixJoinTest, RadixBuildMatchesFlatBridge) {
  // Force the radix threshold low so a small build exercises the
  // partitioned index, and compare every match pair against a flat
  // bridge over the same data (global row ids must be preserved).
  BridgeEnv env(0);  // no budget: never spills
  env.config.join.radix_min_build_rows = 1024;
  Random rng(31);
  std::vector<int64_t> keys, payloads;
  for (int64_t i = 0; i < 20000; ++i) {
    keys.push_back(rng.NextInt(0, 2999));
    payloads.push_back(i);
  }
  JoinBridge radix_bridge({DataType::kInt64, DataType::kInt64}, {0},
                          env.ctx.get());
  JoinBridge flat_bridge({DataType::kInt64, DataType::kInt64}, {0});
  for (JoinBridge* bridge : {&radix_bridge, &flat_bridge}) {
    bridge->AddBuildDriver();
    ASSERT_TRUE(bridge->AddBuildPage(TwoColPage(keys, payloads)).ok());
    ASSERT_TRUE(bridge->BuildDriverFinished());
  }
  EXPECT_GT(radix_bridge.num_partitions(), 1);
  EXPECT_EQ(flat_bridge.num_partitions(), 1);
  std::vector<int64_t> probe_keys, probe_payloads;
  for (int i = 0; i < 4096; ++i) {
    probe_keys.push_back(rng.NextInt(0, 5999));
    probe_payloads.push_back(-i);
  }
  PagePtr probe = TwoColPage(probe_keys, probe_payloads);
  std::vector<int32_t> radix_probe, flat_probe;
  std::vector<int64_t> radix_build, flat_build;
  ASSERT_TRUE(radix_bridge.Probe(*probe, {0}, &radix_probe, &radix_build).ok());
  ASSERT_TRUE(flat_bridge.Probe(*probe, {0}, &flat_probe, &flat_build).ok());
  // The radix path emits matches grouped by partition, so compare as
  // multisets of pairs.
  std::multiset<std::pair<int32_t, int64_t>> radix_pairs, flat_pairs;
  ASSERT_EQ(radix_probe.size(), radix_build.size());
  ASSERT_EQ(flat_probe.size(), flat_build.size());
  for (size_t i = 0; i < radix_probe.size(); ++i) {
    radix_pairs.emplace(radix_probe[i], radix_build[i]);
  }
  for (size_t i = 0; i < flat_probe.size(); ++i) {
    flat_pairs.emplace(flat_probe[i], flat_build[i]);
  }
  EXPECT_EQ(radix_pairs, flat_pairs);
  EXPECT_FALSE(flat_pairs.empty());
}

// --- memory/knob API validation ----------------------------------------------

TEST(MemoryConfigTest, RejectsNonsensicalCombinations) {
  {
    EngineConfig config;
    config.memory.query_build_bytes = 1 << 20;
    config.memory.worker_memory_bytes = 1 << 16;  // query > worker
    EXPECT_EQ(config.Normalize().code(), StatusCode::kInvalidArgument);
  }
  {
    EngineConfig config;
    config.memory.spill_chunk_bytes = 0;
    EXPECT_EQ(config.Normalize().code(), StatusCode::kInvalidArgument);
  }
  {
    EngineConfig config;
    config.memory.initial_buffer_bytes = 1 << 20;
    config.memory.max_buffer_bytes = 1 << 10;  // max < initial
    EXPECT_EQ(config.Normalize().code(), StatusCode::kInvalidArgument);
  }
  {
    EngineConfig config;
    config.join.spill_partition_bits = 0;
    EXPECT_EQ(config.Normalize().code(), StatusCode::kInvalidArgument);
  }
  {
    EngineConfig config;
    config.join.max_spill_recursion = 0;
    EXPECT_EQ(config.Normalize().code(), StatusCode::kInvalidArgument);
  }
  {
    EngineConfig config;
    config.cost.scale = -1;
    EXPECT_EQ(config.Normalize().code(), StatusCode::kInvalidArgument);
  }
  {
    EngineConfig config;
    config.cost.shuffle_executor_us = -0.5;
    EXPECT_EQ(config.Normalize().code(), StatusCode::kInvalidArgument);
  }
  {
    EngineConfig config;
    config.cost.scan_us = -30;
    EXPECT_EQ(config.Normalize().code(), StatusCode::kInvalidArgument);
  }
  {
    EngineConfig config;
    config.rpc_latency_ms = -1;
    EXPECT_EQ(config.Normalize().code(), StatusCode::kInvalidArgument);
  }
  {
    EngineConfig config;  // real mode is valid
    config.cost.scale = 0;
    config.rpc_latency_ms = 0;
    EXPECT_TRUE(config.Normalize().ok());
  }
}

}  // namespace
}  // namespace accordion
