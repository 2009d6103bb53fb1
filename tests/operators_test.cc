// Unit tests for individual physical operators, exercised directly
// (without drivers) through the Operator interface and the end-page
// protocol contract: Finish() -> flush -> EmitEnd exactly once.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "exec/operators.h"

namespace accordion {
namespace {

struct OpEnv {
  EngineConfig config;
  TaskContext ctx{"op", &config};
};

PagePtr IntsPage(std::vector<int64_t> values) {
  Column col(DataType::kInt64);
  for (int64_t v : values) col.AppendInt(v);
  return Page::Make({std::move(col)});
}

/// Drains an operator after Finish(): returns all flushed pages; asserts
/// the end page arrives exactly once and the operator lands in kFinished.
std::vector<PagePtr> FinishAndDrain(Operator* op) {
  op->Finish();
  std::vector<PagePtr> pages;
  for (int spins = 0; spins < 10000; ++spins) {
    PagePtr page = op->GetOutput();
    if (page == nullptr) continue;
    if (page->IsEnd()) {
      EXPECT_TRUE(op->IsFinished());
      return pages;
    }
    pages.push_back(page);
  }
  ADD_FAILURE() << op->Name() << " never emitted its end page";
  return pages;
}

int64_t TotalRows(const std::vector<PagePtr>& pages) {
  int64_t rows = 0;
  for (const auto& p : pages) rows += p->num_rows();
  return rows;
}

TEST(FilterOperatorTest, FiltersAndRelaysEnd) {
  OpEnv env;
  auto factory = MakeFilterFactory(Gt(Col(0, DataType::kInt64), LitInt(2)));
  OperatorPtr op = factory->Create(&env.ctx, 0);
  ASSERT_TRUE(op->NeedsInput());
  op->AddInput(IntsPage({1, 2, 3, 4}));
  PagePtr out = op->GetOutput();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->num_rows(), 2);
  // All-pass pages are forwarded without copying rows away.
  op->AddInput(IntsPage({7, 8}));
  EXPECT_EQ(op->GetOutput()->num_rows(), 2);
  // All-filtered pages produce nothing.
  op->AddInput(IntsPage({0}));
  EXPECT_EQ(op->GetOutput(), nullptr);
  EXPECT_TRUE(FinishAndDrain(op.get()).empty());
}

TEST(FilterOperatorTest, BackpressureWhilePending) {
  OpEnv env;
  auto factory = MakeFilterFactory(Gt(Col(0, DataType::kInt64), LitInt(0)));
  OperatorPtr op = factory->Create(&env.ctx, 0);
  op->AddInput(IntsPage({1}));
  EXPECT_FALSE(op->NeedsInput());  // pending output not yet taken
  (void)op->GetOutput();
  EXPECT_TRUE(op->NeedsInput());
}

TEST(ProjectOperatorTest, EvaluatesExpressions) {
  OpEnv env;
  auto factory = MakeProjectFactory(
      {Mul(Col(0, DataType::kInt64), LitInt(10)), LitStr("x")});
  OperatorPtr op = factory->Create(&env.ctx, 0);
  op->AddInput(IntsPage({1, 2}));
  PagePtr out = op->GetOutput();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->num_columns(), 2);
  EXPECT_EQ(out->column(0).IntAt(1), 20);
  EXPECT_EQ(out->column(1).StrAt(0), "x");
  FinishAndDrain(op.get());
}

TEST(LimitOperatorTest, TruncatesAndFinishesEarly) {
  OpEnv env;
  auto factory = MakeLimitFactory(3);
  OperatorPtr op = factory->Create(&env.ctx, 0);
  op->AddInput(IntsPage({1, 2}));
  EXPECT_EQ(op->GetOutput()->num_rows(), 2);
  op->AddInput(IntsPage({3, 4, 5}));
  PagePtr out = op->GetOutput();
  EXPECT_EQ(out->num_rows(), 1);  // only one more row fits
  // Limit reached: operator ends without upstream Finish.
  PagePtr end = op->GetOutput();
  ASSERT_NE(end, nullptr);
  EXPECT_TRUE(end->IsEnd());
  EXPECT_TRUE(op->IsFinished());
}

TEST(TopNOperatorTest, KeepsSmallestByKeyDescending) {
  OpEnv env;
  auto factory = MakeTopNFactory({SortKey{0, /*ascending=*/false}}, 3,
                                 {DataType::kInt64});
  OperatorPtr op = factory->Create(&env.ctx, 0);
  op->AddInput(IntsPage({5, 1, 9}));
  op->AddInput(IntsPage({7, 3}));
  auto pages = FinishAndDrain(op.get());
  ASSERT_EQ(TotalRows(pages), 3);
  EXPECT_EQ(pages[0]->column(0).IntAt(0), 9);
  EXPECT_EQ(pages[0]->column(0).IntAt(1), 7);
  EXPECT_EQ(pages[0]->column(0).IntAt(2), 5);
}

TEST(TopNOperatorTest, StableAcrossManyPages) {
  OpEnv env;
  auto factory =
      MakeTopNFactory({SortKey{0, true}}, 5, {DataType::kInt64});
  OperatorPtr op = factory->Create(&env.ctx, 0);
  for (int64_t base = 100; base > 0; base -= 10) {
    op->AddInput(IntsPage({base, base - 1, base - 2}));
  }
  auto pages = FinishAndDrain(op.get());
  ASSERT_EQ(TotalRows(pages), 5);
  EXPECT_EQ(pages[0]->column(0).IntAt(0), 8);  // 10-2
}

TEST(PartialAggOperatorTest, GroupsAndFlushesOnFinish) {
  OpEnv env;
  Aggregate agg;
  agg.func = AggFunc::kSum;
  agg.input_channel = 0;
  agg.input_type = DataType::kInt64;
  auto factory = MakePartialAggFactory({0}, {agg}, {DataType::kInt64});
  OperatorPtr op = factory->Create(&env.ctx, 0);
  op->AddInput(IntsPage({1, 2, 1, 2, 2}));
  EXPECT_EQ(op->GetOutput(), nullptr);  // holds state until finish
  auto pages = FinishAndDrain(op.get());
  ASSERT_EQ(TotalRows(pages), 2);
  // key 1 -> 2, key 2 -> 6 (order unspecified).
  int64_t sum_of_sums = 0;
  for (const auto& p : pages) {
    for (int64_t r = 0; r < p->num_rows(); ++r) {
      sum_of_sums += p->column(1).IntAt(r);
    }
  }
  EXPECT_EQ(sum_of_sums, 8);
}

TEST(PartialAggOperatorTest, EarlyFlushWhenGroupLimitHit) {
  OpEnv env;
  env.config.partial_agg_flush_groups = 4;  // tiny threshold
  Aggregate agg;
  agg.func = AggFunc::kCount;
  agg.input_channel = -1;
  auto factory = MakePartialAggFactory({0}, {agg}, {DataType::kInt64});
  OperatorPtr op = factory->Create(&env.ctx, 0);
  op->AddInput(IntsPage({1, 2, 3, 4, 5, 6}));  // 6 groups > threshold
  PagePtr out = op->GetOutput();
  ASSERT_NE(out, nullptr);  // partial state was destroyed and emitted
  EXPECT_GT(out->num_rows(), 0);
  FinishAndDrain(op.get());
}

// Thousands of groups through one driver's table: group sums and maxima
// must match a plain std::map recomputation, each group emitted once.
TEST(PartialAggOperatorTest, ManyGroupsPreserveAggregates) {
  OpEnv env;
  env.config.partial_agg_flush_groups = 1LL << 40;
  Aggregate sum;
  sum.func = AggFunc::kSum;
  sum.input_channel = 1;
  sum.input_type = DataType::kInt64;
  Aggregate mx;
  mx.func = AggFunc::kMax;
  mx.input_channel = 1;
  mx.input_type = DataType::kInt64;
  auto factory = MakePartialAggFactory(
      {0}, {sum, mx}, {DataType::kInt64, DataType::kInt64});
  OperatorPtr op = factory->Create(&env.ctx, 0);

  std::map<int64_t, std::pair<int64_t, int64_t>> expected;  // key -> sum,max
  Random rng(17);
  for (int batch = 0; batch < 30; ++batch) {
    Column keys(DataType::kInt64);
    Column values(DataType::kInt64);
    for (int i = 0; i < 512; ++i) {
      int64_t k = rng.NextInt(0, 4000);  // ~4000 groups
      int64_t v = rng.NextInt(0, 1000);
      keys.AppendInt(k);
      values.AppendInt(v);
      auto [it, inserted] = expected.try_emplace(k, std::make_pair(0, 0));
      it->second.first += v;
      it->second.second = std::max(it->second.second, v);
    }
    op->AddInput(Page::Make({std::move(keys), std::move(values)}));
  }
  auto pages = FinishAndDrain(op.get());
  std::map<int64_t, std::pair<int64_t, int64_t>> actual;
  for (const auto& p : pages) {
    for (int64_t r = 0; r < p->num_rows(); ++r) {
      auto [it, inserted] = actual.try_emplace(
          p->column(0).IntAt(r),
          std::make_pair(p->column(1).IntAt(r), p->column(2).IntAt(r)));
      ASSERT_TRUE(inserted) << "group emitted twice";
    }
  }
  EXPECT_EQ(actual, expected);
}

TEST(PartialAggOperatorTest, FlushCyclesEmitEveryGroup) {
  // Early flushes must emit every group exactly once per cycle and keep
  // accepting input afterwards.
  OpEnv env;
  env.config.partial_agg_flush_groups = 256;
  Aggregate cnt;
  cnt.func = AggFunc::kCount;
  cnt.input_channel = -1;
  auto factory = MakePartialAggFactory({0}, {cnt}, {DataType::kInt64});
  OperatorPtr op = factory->Create(&env.ctx, 0);
  int64_t emitted_rows = 0;
  int64_t total_count = 0;
  auto drain_ready = [&] {
    while (PagePtr out = op->GetOutput()) {
      if (out->IsEnd()) break;
      emitted_rows += out->num_rows();
      for (int64_t r = 0; r < out->num_rows(); ++r) {
        total_count += out->column(1).IntAt(r);
      }
    }
  };
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<int64_t> keys;
    for (int i = 0; i < 500; ++i) keys.push_back((batch * 500 + i) % 2000);
    op->AddInput(IntsPage(keys));
    drain_ready();
  }
  op->Finish();
  drain_ready();
  // Counts across flush cycles must add up to the total input rows.
  EXPECT_EQ(total_count, 40 * 500);
  EXPECT_GE(emitted_rows, 2000);  // every key emitted at least once
}

TEST(FinalAggOperatorTest, MergesPartialStatesPositionally) {
  OpEnv env;
  Aggregate agg;
  agg.func = AggFunc::kAvg;
  agg.input_channel = 3;  // original channel: must be ignored by final
  agg.input_type = DataType::kDouble;
  // Partial layout: key(int), sum(double), count(int).
  auto factory = MakeFinalAggFactory(
      {7} /* original key channel: ignored */, {agg},
      {DataType::kInt64, DataType::kDouble, DataType::kInt64});
  OperatorPtr op = factory->Create(&env.ctx, 0);

  Column key(DataType::kInt64);
  Column sum(DataType::kDouble);
  Column count(DataType::kInt64);
  key.AppendInt(1);
  sum.AppendDouble(10.0);
  count.AppendInt(4);
  key.AppendInt(1);
  sum.AppendDouble(2.0);
  count.AppendInt(2);
  op->AddInput(Page::Make({std::move(key), std::move(sum), std::move(count)}));
  auto pages = FinishAndDrain(op.get());
  ASSERT_EQ(TotalRows(pages), 1);
  EXPECT_DOUBLE_EQ(pages[0]->column(1).DoubleAt(0), 2.0);  // 12/6
}

TEST(FinalAggOperatorTest, GlobalAggregateOnEmptyInputEmitsDefaults) {
  OpEnv env;
  Aggregate agg;
  agg.func = AggFunc::kCount;
  agg.input_channel = -1;
  auto factory = MakeFinalAggFactory({}, {agg}, {DataType::kInt64});
  OperatorPtr op = factory->Create(&env.ctx, 0);
  auto pages = FinishAndDrain(op.get());
  ASSERT_EQ(TotalRows(pages), 1);
  EXPECT_EQ(pages[0]->column(0).IntAt(0), 0);
}

TEST(HashBuildAndLookupJoinTest, BridgeGatesProbe) {
  OpEnv env;
  JoinBridge bridge(JoinType::kInner, {DataType::kInt64}, {0}, {0},
                    {DataType::kInt64}, {0});
  auto build_factory = MakeHashBuildFactory(&bridge);
  auto probe_factory = MakeLookupJoinFactory(&bridge);

  OperatorPtr build = build_factory->Create(&env.ctx, 0);
  OperatorPtr probe = probe_factory->Create(&env.ctx, 0);
  EXPECT_FALSE(probe->NeedsInput());  // blocked: table not built

  build->AddInput(IntsPage({2, 4}));
  FinishAndDrain(build.get());
  EXPECT_TRUE(bridge.built());
  EXPECT_TRUE(probe->NeedsInput());

  probe->AddInput(IntsPage({1, 2, 3, 4}));
  PagePtr out = probe->GetOutput();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->num_rows(), 2);
  EXPECT_EQ(out->num_columns(), 2);  // probe col + build output col
  FinishAndDrain(probe.get());
}

TEST(ValuesOperatorTest, EmitsPagesThenEnd) {
  OpEnv env;
  auto factory = MakeValuesFactory({IntsPage({1}), IntsPage({2, 3})});
  OperatorPtr op = factory->Create(&env.ctx, 0);
  EXPECT_EQ(op->GetOutput()->num_rows(), 1);
  EXPECT_EQ(op->GetOutput()->num_rows(), 2);
  EXPECT_TRUE(op->GetOutput()->IsEnd());
  EXPECT_TRUE(op->IsFinished());
  // Non-zero driver seq gets an empty source.
  OperatorPtr other = factory->Create(&env.ctx, 1);
  EXPECT_TRUE(other->GetOutput()->IsEnd());
}

TEST(ValuesOperatorTest, EndSignalStopsEarly) {
  OpEnv env;
  auto factory = MakeValuesFactory({IntsPage({1}), IntsPage({2})});
  OperatorPtr op = factory->Create(&env.ctx, 0);
  EXPECT_EQ(op->GetOutput()->num_rows(), 1);
  op->SignalEnd();
  EXPECT_TRUE(op->GetOutput()->IsEnd());
}

TEST(LocalExchangeOperatorsTest, SinkToSourceRoundTrip) {
  OpEnv env;
  LocalExchange exchange(&env.config);
  auto sink_factory = MakeLocalExchangeSinkFactory(&exchange);
  auto source_factory = MakeLocalExchangeSourceFactory(&exchange);

  OperatorPtr sink = sink_factory->Create(&env.ctx, 0);
  OperatorPtr source = source_factory->Create(&env.ctx, 0);

  sink->AddInput(IntsPage({1, 2, 3}));
  PagePtr out = source->GetOutput();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->num_rows(), 3);
  EXPECT_EQ(source->GetOutput(), nullptr);  // nothing buffered

  FinishAndDrain(sink.get());  // last sink done -> sources see end
  PagePtr end = source->GetOutput();
  ASSERT_NE(end, nullptr);
  EXPECT_TRUE(end->IsEnd());
}

TEST(LocalExchangeTest, TargetedEndPageRetiresOneSource) {
  OpEnv env;
  LocalExchange exchange(&env.config);
  auto source_factory = MakeLocalExchangeSourceFactory(&exchange);
  OperatorPtr a = source_factory->Create(&env.ctx, 0);
  OperatorPtr b = source_factory->Create(&env.ctx, 1);
  exchange.AddSinkDriver();  // keep alive

  exchange.PostEndPage();
  exchange.Enqueue(IntsPage({9}));
  // Exactly one source sees the end page; the other still gets data.
  PagePtr pa = a->GetOutput();
  ASSERT_NE(pa, nullptr);
  EXPECT_TRUE(pa->IsEnd());
  PagePtr pb = b->GetOutput();
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(pb->num_rows(), 1);
}

TEST(TaskOutputOperatorTest, PushesToBufferAndCountsRows) {
  OpEnv env;
  OutputBufferConfig cfg;
  cfg.partitioning = Partitioning::kGather;
  cfg.initial_consumers = 1;
  SharedBuffer buffer(cfg, &env.ctx);
  auto factory = MakeTaskOutputFactory(&buffer);
  OperatorPtr op = factory->Create(&env.ctx, 0);
  op->AddInput(IntsPage({1, 2, 3}));
  EXPECT_EQ(env.ctx.output_rows(), 3);
  FinishAndDrain(op.get());
  auto result = buffer.GetPages(0, 10);
  EXPECT_EQ(result.TotalRows(), 3);
  EXPECT_TRUE(result.complete);
}

TEST(TaskOutputOperatorTest, RespectsBufferBackpressure) {
  OpEnv env;
  env.config.elastic_buffers = true;
  env.config.memory.initial_buffer_bytes = 8;  // absurdly small
  OutputBufferConfig cfg;
  cfg.partitioning = Partitioning::kGather;
  cfg.initial_consumers = 1;
  SharedBuffer buffer(cfg, &env.ctx);
  auto factory = MakeTaskOutputFactory(&buffer);
  OperatorPtr op = factory->Create(&env.ctx, 0);
  op->AddInput(IntsPage({1, 2, 3}));
  EXPECT_FALSE(op->NeedsInput());  // buffer over capacity
  (void)buffer.GetPages(0, 10);
  EXPECT_TRUE(op->NeedsInput());
}

}  // namespace
}  // namespace accordion
