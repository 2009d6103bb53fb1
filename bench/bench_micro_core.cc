// Micro-benchmarks (google-benchmark) for the substrate layers and the
// §4.2 buffer design choices (see docs/ARCHITECTURE.md):
//   - page serialization (the simulated Arrow IPC wire format),
//   - row hashing / hash-partitioning (the shuffle executor inner loop),
//   - join bridge build+probe,
//   - elastic vs fixed-capacity buffer handoff (the §2 "challenge 3"
//     ablation: fixed big buffers delay consumption, fixed small ones
//     throttle producers; elastic tracks the consumer).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>
#include <numeric>

#include "common/random.h"
#include "exec/hash_table.h"
#include "exec/join_bridge.h"
#include "exec/operators.h"
#include "exec/output_buffer.h"
#include "expr/expr.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

PagePtr MakeBenchPage(int64_t rows) {
  Random rng(42);
  Column keys(DataType::kInt64);
  Column values(DataType::kDouble);
  Column tags(DataType::kString);
  for (int64_t i = 0; i < rows; ++i) {
    keys.AppendInt(rng.NextInt(0, 1 << 20));
    values.AppendDouble(rng.NextDouble());
    tags.AppendStr(rng.NextString(12));
  }
  return Page::Make({std::move(keys), std::move(values), std::move(tags)});
}

void BM_PageSerialize(benchmark::State& state) {
  PagePtr page = MakeBenchPage(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(page->Serialize());
  }
  state.SetItemsProcessed(state.iterations() * page->num_rows());
}
BENCHMARK(BM_PageSerialize)->Arg(256)->Arg(4096);

void BM_PageDeserialize(benchmark::State& state) {
  std::string wire = MakeBenchPage(state.range(0))->Serialize();
  for (auto _ : state) {
    auto result = Page::Deserialize(wire);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PageDeserialize)->Arg(256)->Arg(4096);

void BM_HashPartition(benchmark::State& state) {
  PagePtr page = MakeBenchPage(4096);
  const int parts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<std::vector<int32_t>> selections(parts);
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      selections[page->HashRow(r, {0}) % parts].push_back(
          static_cast<int32_t>(r));
    }
    benchmark::DoNotOptimize(selections);
  }
  state.SetItemsProcessed(state.iterations() * page->num_rows());
}
BENCHMARK(BM_HashPartition)->Arg(2)->Arg(8)->Arg(32);

void BM_ExprFilterEval(benchmark::State& state) {
  PagePtr page = MakeBenchPage(4096);
  auto pred = And(Lt(Col(0, DataType::kInt64), LitInt(1 << 19)),
                  Gt(Col(1, DataType::kDouble), LitDouble(0.25)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterRows(*pred, *page));
  }
  state.SetItemsProcessed(state.iterations() * page->num_rows());
}
BENCHMARK(BM_ExprFilterEval);

void BM_JoinBridgeBuildProbe(benchmark::State& state) {
  PagePtr build = MakeBenchPage(state.range(0));
  PagePtr probe = MakeBenchPage(4096);
  for (auto _ : state) {
    JoinBridge bridge(JoinType::kInner,
                      {DataType::kInt64, DataType::kDouble, DataType::kString},
                      {0}, {1, 2},
                      {DataType::kInt64, DataType::kDouble, DataType::kString},
                      {0});
    bridge.AddBuildDriver();
    bridge.AddBuildPage(build);
    bridge.BuildDriverFinished();
    JoinBridge::ProbeScratch scratch;
    std::deque<PagePtr> out;
    bridge.Probe(probe, &scratch, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * (state.range(0) + 4096));
}
BENCHMARK(BM_JoinBridgeBuildProbe)->Arg(1024)->Arg(16384);

// --- hash-path microbenchmarks (1M-row inputs) -----------------------------
// These track the perf trajectory of the vectorized hash path (flat
// open-addressing tables for aggregation + join). Every run also writes
// machine-readable results to BENCH_micro.json (see main below); override
// the path with ACCORDION_BENCH_JSON. The aggregation sweep covers
// 1K/64K/1M groups, from a cache-resident group table to one well past
// L2.

constexpr int64_t kMicroRows = 1 << 20;  // 1M rows
constexpr int64_t kMicroPageRows = 8192;

std::vector<PagePtr> MakeKeyedPages(int64_t total_rows, int64_t key_space,
                                    uint32_t seed) {
  Random rng(seed);
  std::vector<PagePtr> pages;
  for (int64_t off = 0; off < total_rows; off += kMicroPageRows) {
    int64_t n = std::min(kMicroPageRows, total_rows - off);
    Column keys(DataType::kInt64);
    Column values(DataType::kDouble);
    keys.Reserve(n);
    values.Reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      keys.AppendInt(rng.NextInt(0, key_space));
      values.AppendDouble(rng.NextDouble());
    }
    pages.push_back(Page::Make({std::move(keys), std::move(values)}));
  }
  return pages;
}

void BM_HashAggGroupBy1M(benchmark::State& state) {
  const int64_t key_space = state.range(0);
  std::vector<PagePtr> pages = MakeKeyedPages(kMicroRows, key_space, 42);
  EngineConfig config;
  config.partial_agg_flush_groups = 1LL << 40;  // keep all groups resident
  TaskContext ctx("bench", &config);
  auto factory = MakePartialAggFactory(
      {0},
      {Aggregate{AggFunc::kSum, 1, DataType::kDouble},
       Aggregate{AggFunc::kCount, -1, DataType::kInt64}},
      {DataType::kInt64, DataType::kDouble});
  for (auto _ : state) {
    OperatorPtr op = factory->Create(&ctx, 0);
    for (const auto& page : pages) op->AddInput(page);
    op->Finish();
    int64_t out_rows = 0;
    while (PagePtr out = op->GetOutput()) {
      if (out->IsEnd()) break;
      out_rows += out->num_rows();
    }
    benchmark::DoNotOptimize(out_rows);
  }
  state.SetItemsProcessed(state.iterations() * kMicroRows);
}
BENCHMARK(BM_HashAggGroupBy1M)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

// The join sweep keeps build and probe in SEPARATE benchmarks so the
// probe ns/row is independent of build cost (the old combined loop
// re-built the table every iteration and attributed build time to the
// probe metric). Sizes run from cache-resident (64K keys) to well past
// L2/L3 (16M keys); skipped sizes still emit their BENCH_micro.json
// entry via SkipWithError, never a silent hole in the sweep.

int64_t BenchMaxBuildKeys() {
  if (const char* e = std::getenv("ACCORDION_BENCH_MAX_BUILD_KEYS")) {
    return atoll(e);
  }
  return 0;  // no cap
}

void BM_JoinBuildSweep(benchmark::State& state) {
  const int64_t build_keys = state.range(0);
  const int64_t cap = BenchMaxBuildKeys();
  if (cap > 0 && build_keys > cap) {
    state.SkipWithError("build size over ACCORDION_BENCH_MAX_BUILD_KEYS");
    return;
  }
  std::vector<PagePtr> build_pages = MakeKeyedPages(build_keys, build_keys, 7);
  EngineConfig config;
  TaskContext ctx("bench", &config);
  for (auto _ : state) {
    JoinBridge bridge(JoinType::kInner, {DataType::kInt64, DataType::kDouble},
                      {0}, {1}, {DataType::kInt64, DataType::kDouble}, {0},
                      &ctx);
    bridge.AddBuildDriver();
    for (const auto& page : build_pages) {
      if (!bridge.AddBuildPage(page).ok()) {
        state.SkipWithError("build page rejected");
        return;
      }
    }
    bridge.BuildDriverFinished();
    benchmark::DoNotOptimize(bridge.build_rows());
  }
  state.SetItemsProcessed(state.iterations() * build_keys);
  state.counters["build_keys"] = static_cast<double>(build_keys);
}
BENCHMARK(BM_JoinBuildSweep)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 24);

// Probe-only sweep straight through HashTable::FindJoinBatch. The table
// and its CSR match spans are built once OUTSIDE the timed loop; each
// iteration probes 1M rows against it, so ns/row here is pure probe cost.
void BM_JoinProbeSweep(benchmark::State& state) {
  const int64_t build_keys = state.range(0);
  const int64_t cap = BenchMaxBuildKeys();
  if (cap > 0 && build_keys > cap) {
    state.SkipWithError("build size over ACCORDION_BENCH_MAX_BUILD_KEYS");
    return;
  }
  HashTable table({DataType::kInt64});
  std::vector<int64_t> row_ids;
  std::vector<int64_t> ids;
  for (const auto& page : MakeKeyedPages(build_keys, build_keys, 7)) {
    table.LookupOrInsert(*page, {0}, &ids);
    row_ids.insert(row_ids.end(), ids.begin(), ids.end());
  }
  // CSR spans: the build rows of id k are span_rows[offsets[k], offsets[k+1]).
  std::vector<int64_t> offsets(static_cast<size_t>(table.size()) + 1, 0);
  for (int64_t id : row_ids) ++offsets[id + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<int64_t> span_rows(row_ids.size());
  std::vector<int64_t> fill(offsets.begin(), offsets.end() - 1);
  for (size_t row = 0; row < row_ids.size(); ++row) {
    span_rows[fill[row_ids[row]]++] = static_cast<int64_t>(row);
  }
  std::vector<PagePtr> probe_pages =
      MakeKeyedPages(kMicroRows, build_keys, 9);
  std::vector<int32_t> probe_rows;
  std::vector<int64_t> build_rows;
  for (auto _ : state) {
    int64_t matches = 0;
    for (const auto& page : probe_pages) {
      probe_rows.clear();
      build_rows.clear();
      table.FindJoinBatch(*page, {0}, offsets.data(), span_rows.data(),
                          &probe_rows, &build_rows);
      matches += static_cast<int64_t>(probe_rows.size());
    }
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(state.iterations() * kMicroRows);
  state.counters["build_keys"] = static_cast<double>(build_keys);
}
BENCHMARK(BM_JoinProbeSweep)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 24);

void BM_TpchGenerate(benchmark::State& state) {
  for (auto _ : state) {
    TpchSplitGenerator gen("lineitem", 0.001, 0, 1, 1024);
    int64_t rows = 0;
    while (auto page = gen.NextPage()) rows += page->num_rows();
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_TpchGenerate);

void BM_BufferHandoff(benchmark::State& state) {
  // Producer->consumer handoff through a shared buffer, elastic vs fixed
  // capacity. items/s differences show the buffer-design ablation.
  bool elastic = state.range(0) == 1;
  EngineConfig config;
  config.elastic_buffers = elastic;
  config.memory.fixed_buffer_bytes = 1 << 16;
  TaskContext ctx("bench", &config);
  PagePtr page = MakeBenchPage(256);
  for (auto _ : state) {
    OutputBufferConfig cfg;
    cfg.partitioning = Partitioning::kArbitrary;
    cfg.initial_consumers = 1;
    SharedBuffer buffer(cfg, &ctx);
    buffer.AddProducerDriver();
    int64_t produced = 0, consumed = 0;
    while (consumed < 200) {
      if (produced < 200 && buffer.AcceptingInput()) {
        buffer.Enqueue(page);
        ++produced;
      }
      auto result = buffer.GetPages(0, 8);
      consumed += static_cast<int64_t>(result.pages.size());
    }
    benchmark::DoNotOptimize(consumed);
  }
  state.SetLabel(elastic ? "elastic" : "fixed32MBstyle");
}
BENCHMARK(BM_BufferHandoff)->Arg(1)->Arg(0);

}  // namespace
}  // namespace accordion

// Custom main: in addition to the console output, always record a
// machine-readable BENCH_micro.json (ACCORDION_BENCH_JSON overrides the
// path) so every bench run extends the perf trajectory. An explicit
// --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  const char* json_path = std::getenv("ACCORDION_BENCH_JSON");
  std::string out_flag = std::string("--benchmark_out=") +
                         (json_path != nullptr ? json_path : "BENCH_micro.json");
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
