#include "exec/spill_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/resource_governor.h"
#include "exec/join_bridge.h"
#include "exec/operators.h"
#include "exec/task_context.h"
#include "plan/builder.h"
#include "tests/reference_eval.h"

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
  explicit BridgeEnv(int64_t build_budget_bytes,
                     int64_t spill_chunk_bytes = 1 << 20) {
    config.memory.query_build_bytes = build_budget_bytes;
    config.memory.spill_chunk_bytes = spill_chunk_bytes;
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
    auto next = bridge->NextSpilledPage();
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
  JoinBridge bridge(JoinType::kInner, {DataType::kInt64, DataType::kInt64},
                    {0}, {1}, {DataType::kInt64, DataType::kInt64}, {0},
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
  JoinBridge::ProbeScratch scratch;
  std::deque<PagePtr> out;
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
    ASSERT_TRUE(bridge.Probe(TwoColPage(keys, payloads), &scratch, &out).ok());
    // Spilled probes return no inline output; everything streams later.
    EXPECT_TRUE(out.empty());
  }
  ASSERT_TRUE(bridge.ProbeDriverFinished());
  EXPECT_EQ(DrainAll(&bridge), expected);
  EXPECT_GT(env.ctx->spill_bytes_written(), 0);
  EXPECT_GE(env.ctx->spill_partitions(),
            1 << JoinBridge::kSpillPartitionBits);
  EXPECT_GT(env.ctx->peak_build_bytes(), 0);
}

TEST(GraceSpillJoinTest, SkewedKeyRecursesThenChunks) {
  // Every build row has the same key: repartitioning can never split the
  // hot partition, so the drain must hit the recursion limit and fall
  // back to budget-sized build chunks with a probe-file pass per chunk.
  BridgeEnv env(1 << 13);
  JoinBridge bridge(JoinType::kInner, {DataType::kInt64, DataType::kInt64},
                    {0}, {1}, {DataType::kInt64, DataType::kInt64}, {0},
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
  JoinBridge::ProbeScratch scratch;
  std::deque<PagePtr> out;
  // 3 hits and 2 misses; each hit matches all 8000 build rows.
  ASSERT_TRUE(bridge
                  .Probe(TwoColPage({7, 1, 7, 2, 7}, {-1, -2, -3, -4, -5}),
                         &scratch, &out)
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
            1 << JoinBridge::kSpillPartitionBits);
}

TEST(GraceSpillJoinTest, StringKeysSpillThroughGenericPath) {
  BridgeEnv env(1 << 12);
  JoinBridge bridge(JoinType::kInner, {DataType::kString, DataType::kInt64},
                    {0}, {1}, {DataType::kString, DataType::kInt64}, {0},
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
  JoinBridge::ProbeScratch scratch;
  std::deque<PagePtr> out;
  ASSERT_TRUE(bridge
                  .Probe(Page::Make({std::move(pk), std::move(pv)}), &scratch,
                         &out)
                  .ok());
  ASSERT_TRUE(bridge.ProbeDriverFinished());
  std::multiset<std::pair<std::string, int64_t>> got;
  while (true) {
    auto next = bridge.NextSpilledPage();
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
  JoinBridge bridge(JoinType::kInner, {DataType::kInt64, DataType::kInt64},
                    {0}, {1}, {DataType::kInt64, DataType::kInt64}, {0},
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
  auto next = bridge.NextSpilledPage();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), nullptr);
}

// --- every join variant on every bridge path ---------------------------------

// Build pages are [bkey, bpay, bname] and probe pages [ppay, pkey]: the probe
// key is not channel 0, and the build output carries a string column.
constexpr int64_t kNullKey = -1;
constexpr int64_t kHotKey = 7;
constexpr int64_t kSidePageRows = 64;

// `n` keys: NULL with `null_pct`% odds, the hot key with `hot_pct`%, else
// uniform in [lo, hi].
std::vector<int64_t> SideKeys(Random* rng, int64_t n, int64_t lo, int64_t hi,
                              int null_pct, int hot_pct) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t dice = rng->NextInt(0, 99);
    keys.push_back(dice < null_pct             ? kNullKey
                   : dice < null_pct + hot_pct ? kHotKey
                                               : rng->NextInt(lo, hi));
  }
  return keys;
}

std::vector<PagePtr> SidePages(const std::vector<int64_t>& keys, bool build) {
  std::vector<PagePtr> pages;
  for (size_t base = 0; base < keys.size(); base += kSidePageRows) {
    Column key(DataType::kInt64), pay(DataType::kInt64),
        name(DataType::kString);
    const size_t end = std::min(keys.size(), base + kSidePageRows);
    for (size_t r = base; r < end; ++r) {
      if (keys[r] == kNullKey) {
        key.AppendNull();
      } else {
        key.AppendInt(keys[r]);
      }
      pay.AppendInt(build ? static_cast<int64_t>(r) : -static_cast<int64_t>(r));
      name.AppendStr("b" + std::to_string(r));
    }
    pages.push_back(build ? Page::Make({std::move(key), std::move(pay),
                                        std::move(name)})
                          : Page::Make({std::move(pay), std::move(key)}));
  }
  return pages;
}

struct JoinShape {
  const char* name;
  std::vector<PagePtr> build;
  std::vector<PagePtr> probe;
  int64_t one_chunk_budget;  // spills, yet every partition fits one chunk
};

std::vector<JoinShape> MatrixShapes() {
  Random rng(27);
  std::vector<JoinShape> shapes;
  // Overlapping key ranges; NULL keys on both sides.
  shapes.push_back({"overlap",
                    SidePages(SideKeys(&rng, 600, 0, 63, 5, 30), true),
                    SidePages(SideKeys(&rng, 500, 32, 95, 5, 3), false),
                    12 << 10});
  // Four build keys: most partitions have an empty build side. No NULL
  // build key, so NOT IN keeps its non-NULL misses.
  shapes.push_back({"few build keys",
                    SidePages(SideKeys(&rng, 300, 1, 3, 0, 25), true),
                    SidePages(SideKeys(&rng, 500, 0, 199, 10, 5), false),
                    6 << 10});
  // Three probe keys and NULL: most partitions have an empty probe side.
  shapes.push_back({"few probe keys",
                    SidePages(SideKeys(&rng, 600, 0, 199, 5, 20), true),
                    SidePages(SideKeys(&rng, 300, 1, 2, 10, 10), false),
                    12 << 10});
  shapes.push_back({"no probe rows",
                    SidePages(SideKeys(&rng, 400, 0, 99, 5, 10), true),
                    {},
                    8 << 10});
  // Nothing to spill: every budget runs in memory.
  shapes.push_back({"no build rows",
                    {},
                    SidePages(SideKeys(&rng, 300, 0, 49, 10, 5), false),
                    8 << 10});
  return shapes;
}

// The scalar oracle's answer: a nested-loop join of the same shape.
RefRelation OracleJoin(const JoinShape& shape, JoinType type) {
  PlanBuilder b(nullptr);
  PlanBuilder::Rel probe = b.Values(
      shape.probe, {DataType::kInt64, DataType::kInt64}, {"ppay", "pkey"});
  PlanBuilder::Rel build = b.Values(
      shape.build, {DataType::kInt64, DataType::kInt64, DataType::kString},
      {"bkey", "bpay", "bname"});
  std::vector<std::string> build_output;
  if (JoinEmitsBuildColumns(type)) build_output = {"bpay", "bname"};
  PlanBuilder::Rel join = b.Join(probe, build, {"pkey"}, {"bkey"},
                                 build_output, /*broadcast=*/false, type);
  return ReferenceEvaluate(join.node, /*scale_factor=*/0);
}

// Pulls `op`'s output; once it is finishing, until its end page.
void PullOutput(Operator* op, std::vector<PagePtr>* out) {
  const bool finishing = op->state() != OperatorState::kRunning;
  for (int spins = 0; spins < 1000000; ++spins) {
    PagePtr page = op->GetOutput();
    if (page == nullptr) {
      if (!finishing) return;
      continue;
    }
    if (page->IsEnd()) return;
    out->push_back(std::move(page));
  }
  ADD_FAILURE() << op->Name() << " never emitted its end page";
}

// Runs the join through two build and two probe operators that take the
// pages alternately; the second probe operator retires last and drains.
std::vector<PagePtr> RunOperatorJoin(TaskContext* ctx, const JoinShape& shape,
                                     JoinType type) {
  std::vector<int> build_output;
  if (JoinEmitsBuildColumns(type)) build_output = {1, 2};
  JoinBridge bridge(type,
                    {DataType::kInt64, DataType::kInt64, DataType::kString},
                    {0}, build_output, {DataType::kInt64, DataType::kInt64},
                    {1}, ctx);
  OperatorFactoryPtr build_factory = MakeHashBuildFactory(&bridge);
  OperatorFactoryPtr probe_factory = MakeLookupJoinFactory(&bridge);
  OperatorPtr builds[2] = {build_factory->Create(ctx, 0),
                           build_factory->Create(ctx, 1)};
  OperatorPtr probes[2] = {probe_factory->Create(ctx, 0),
                           probe_factory->Create(ctx, 1)};
  std::vector<PagePtr> out;
  for (size_t i = 0; i < shape.build.size(); ++i) {
    builds[i % 2]->AddInput(shape.build[i]);
  }
  for (OperatorPtr& op : builds) {
    op->Finish();
    PullOutput(op.get(), &out);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(bridge.built());
  for (size_t i = 0; i < shape.probe.size(); ++i) {
    Operator* op = probes[i % 2].get();
    EXPECT_TRUE(op->NeedsInput());
    op->AddInput(shape.probe[i]);
    PullOutput(op, &out);
  }
  for (OperatorPtr& op : probes) {
    op->Finish();
    PullOutput(op.get(), &out);
    EXPECT_TRUE(op->IsFinished());
  }
  return out;
}

TEST(JoinVariantMatrixTest, EveryVariantMatchesOracleOnEveryPath) {
  const JoinType kTypes[] = {JoinType::kInner,    JoinType::kLeft,
                             JoinType::kRight,    JoinType::kFull,
                             JoinType::kLeftSemi, JoinType::kLeftAnti,
                             JoinType::kNullAwareAnti};
  constexpr int64_t kPartitions = int64_t{1} << JoinBridge::kSpillPartitionBits;
  for (const JoinShape& shape : MatrixShapes()) {
    for (JoinType type : kTypes) {
      const RefRelation expected = OracleJoin(shape, type);
      // In memory; spilled with one build chunk per partition; and a budget
      // so small that partitions repartition and the hot key's partition
      // falls back to chunked probing.
      for (int64_t budget : {int64_t{0}, shape.one_chunk_budget,
                             int64_t{1} << 10}) {
        SCOPED_TRACE(std::string(shape.name) + ", " + JoinTypeName(type) +
                     ", budget " + std::to_string(budget));
        BridgeEnv env(budget, /*spill_chunk_bytes=*/1 << 10);
        const std::vector<PagePtr> got =
            RunOperatorJoin(env.ctx.get(), shape, type);
        EXPECT_FALSE(env.ctx->failed()) << env.ctx->failure().ToString();
        EXPECT_EQ(DiffRows(expected, got), "");
        for (const PagePtr& page : got) {
          EXPECT_LE(page->num_rows(), env.config.batch_rows * 4);
        }
        // Level 0 opens a file per partition and side; each repartition
        // adds one more partition set. Without probe rows no pair joins.
        const int64_t partitions = env.ctx->spill_partitions();
        const int64_t level0 = kPartitions * (shape.probe.empty() ? 1 : 2);
        if (budget == 0 || shape.build.empty()) {
          EXPECT_EQ(partitions, 0);
        } else if (budget == shape.one_chunk_budget || shape.probe.empty()) {
          EXPECT_EQ(partitions, level0);
        } else {
          EXPECT_GT(partitions, level0);
        }
      }
    }
  }
}

// --- large in-memory build ---------------------------------------------------

TEST(InMemoryJoinTest, LargeBuildMatchesOracle) {
  // 300,000 build rows size the slot array to 8 MiB, past the size from
  // which HashTable maps it straight from the OS, so the bridge builds,
  // probes and frees a mapped array. Keys repeat and every 50th build key
  // is NULL: NULL keys never match, and a right join drains those rows
  // with the other unmatched ones.
  constexpr int64_t kBuildRows = 300000;
  constexpr int64_t kKeyRange = 200000;
  constexpr int64_t kPageRows = 4096;
  Random rng(41);
  std::vector<PagePtr> build_pages;
  std::unordered_multimap<int64_t, int64_t> oracle;  // key -> build payload
  for (int64_t base = 0; base < kBuildRows; base += kPageRows) {
    Column k(DataType::kInt64), p(DataType::kInt64);
    for (int64_t r = base; r < std::min(base + kPageRows, kBuildRows); ++r) {
      if (r % 50 == 0) {
        k.AppendNull();
      } else {
        const int64_t key = rng.NextInt(0, kKeyRange - 1);
        k.AppendInt(key);
        oracle.emplace(key, r);
      }
      p.AppendInt(r);
    }
    build_pages.push_back(Page::Make({std::move(k), std::move(p)}));
  }
  std::vector<PagePtr> probe_pages;
  std::multiset<JoinTuple> expected_pairs;
  std::vector<bool> build_matched(kBuildRows, false);
  for (int64_t page = 0; page < 16; ++page) {
    Column k(DataType::kInt64), p(DataType::kInt64);
    for (int64_t r = 0; r < kPageRows; ++r) {
      const int64_t ppay = -(page * kPageRows + r);
      p.AppendInt(ppay);
      if (r % 64 == 0) {
        k.AppendNull();
        continue;
      }
      const int64_t key = rng.NextInt(0, 2 * kKeyRange - 1);  // ~half miss
      k.AppendInt(key);
      auto [begin, end] = oracle.equal_range(key);
      for (auto it = begin; it != end; ++it) {
        expected_pairs.emplace(key, ppay, it->second);
        build_matched[it->second] = true;
      }
    }
    probe_pages.push_back(Page::Make({std::move(k), std::move(p)}));
  }
  std::vector<int64_t> expected_unmatched;
  for (int64_t r = 0; r < kBuildRows; ++r) {
    if (!build_matched[r]) expected_unmatched.push_back(r);
  }

  for (JoinType type : {JoinType::kInner, JoinType::kRight}) {
    SCOPED_TRACE(type == JoinType::kInner ? "inner" : "right");
    BridgeEnv env(0);  // no budget: never spills
    JoinBridge bridge(type, {DataType::kInt64, DataType::kInt64}, {0}, {1},
                      {DataType::kInt64, DataType::kInt64}, {0}, env.ctx.get());
    bridge.AddBuildDriver();
    bridge.AddProbeDriver();
    for (const PagePtr& page : build_pages) {
      ASSERT_TRUE(bridge.AddBuildPage(page).ok());
    }
    ASSERT_TRUE(bridge.BuildDriverFinished());
    ASSERT_FALSE(bridge.spilled());
    EXPECT_GT(env.ctx->peak_build_bytes(), int64_t{8} << 20);
    std::multiset<JoinTuple> got_pairs;
    JoinBridge::ProbeScratch scratch;
    std::deque<PagePtr> pair_pages;
    for (const PagePtr& page : probe_pages) {
      ASSERT_TRUE(bridge.Probe(page, &scratch, &pair_pages).ok());
    }
    for (const PagePtr& page : pair_pages) {
      for (int64_t r = 0; r < page->num_rows(); ++r) {
        got_pairs.emplace(page->column(0).IntAt(r), page->column(1).IntAt(r),
                          page->column(2).IntAt(r));
      }
    }
    EXPECT_EQ(got_pairs, expected_pairs);
    const bool drains = bridge.ProbeDriverFinished();
    ASSERT_EQ(drains, type == JoinType::kRight);
    if (!drains) continue;
    std::vector<int64_t> got_unmatched;
    while (true) {
      auto next = bridge.NextSpilledPage();
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      PagePtr out = std::move(next).value();
      if (out == nullptr) break;
      ASSERT_EQ(out->num_columns(), 3);
      for (int64_t r = 0; r < out->num_rows(); ++r) {
        ASSERT_TRUE(out->column(0).IsNull(r) && out->column(1).IsNull(r));
        got_unmatched.push_back(out->column(2).IntAt(r));
      }
    }
    std::sort(got_unmatched.begin(), got_unmatched.end());
    EXPECT_EQ(got_unmatched, expected_unmatched);
  }
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
