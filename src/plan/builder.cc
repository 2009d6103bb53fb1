#include "plan/builder.h"

#include <algorithm>

#include "common/logging.h"

namespace accordion {

int PlanBuilder::Rel::Ch(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  ACC_CHECK(false) << "no column named '" << name << "' in sub-plan";
  return -1;
}

DataType PlanBuilder::Rel::TypeOf(const std::string& name) const {
  return node->output_types()[Ch(name)];
}

ExprPtr PlanBuilder::Rel::Ref(const std::string& name) const {
  int ch = Ch(name);
  return Col(ch, node->output_types()[ch]);
}

PlanBuilder::Rel PlanBuilder::Scan(const std::string& table,
                                   const std::vector<std::string>& columns) {
  auto schema = catalog_->GetTable(table);
  ACC_CHECK(schema.ok()) << schema.status().ToString();
  ACC_CHECK(!columns.empty()) << "scan of " << table << " reads no column";
  std::vector<int> channels;
  std::vector<DataType> types;
  channels.reserve(columns.size());
  types.reserve(columns.size());
  for (const auto& name : columns) {
    int ch = schema->ChannelOf(name);
    ACC_CHECK(ch >= 0 && std::find(channels.begin(), channels.end(), ch) ==
                             channels.end())
        << "table " << table << " has no column " << name
        << ", or the scan lists it twice";
    channels.push_back(ch);
    types.push_back(schema->TypeOf(ch));
  }
  return Rel{std::make_shared<TableScanNode>(NextId(), table,
                                             std::move(channels),
                                             std::move(types)),
             columns};
}

PlanBuilder::Rel PlanBuilder::Filter(Rel input, ExprPtr predicate) {
  return Rel{std::make_shared<FilterNode>(NextId(), std::move(predicate),
                                          input.node),
             input.names};
}

PlanBuilder::Rel PlanBuilder::Project(Rel input, std::vector<ExprPtr> exprs,
                                      std::vector<std::string> names) {
  ACC_CHECK(exprs.size() == names.size()) << "project arity mismatch";
  return Rel{
      std::make_shared<ProjectNode>(NextId(), std::move(exprs), input.node),
      std::move(names)};
}

PlanBuilder::Rel PlanBuilder::Join(Rel probe, Rel build,
                                   const std::vector<std::string>& probe_keys,
                                   const std::vector<std::string>& build_keys,
                                   const std::vector<std::string>& build_output,
                                   bool broadcast, JoinType join_type,
                                   const std::string& mark_name) {
  ACC_CHECK(probe_keys.size() == build_keys.size()) << "join key mismatch";
  // Right/full joins emit unmatched build rows; a broadcast build would
  // replicate every build row to every worker and emit its null-padding
  // once per worker.
  ACC_CHECK(!(broadcast && JoinEmitsUnmatchedBuild(join_type)))
      << "broadcast build is incompatible with " << JoinTypeName(join_type)
      << " join";
  // Null-aware anti and mark joins decide per probe row from the *global*
  // build-empty / build-has-null-key flags, so every worker must see the
  // whole build side. Each probe row still lives on exactly one worker
  // (arbitrary probe partitioning), so no output is duplicated.
  if (join_type == JoinType::kNullAwareAnti || join_type == JoinType::kMark) {
    broadcast = true;
  }
  std::vector<int> probe_key_channels;
  for (const auto& k : probe_keys) probe_key_channels.push_back(probe.Ch(k));
  std::vector<int> build_key_channels;
  for (const auto& k : build_keys) build_key_channels.push_back(build.Ch(k));
  std::vector<int> build_out_channels;
  for (const auto& k : build_output) build_out_channels.push_back(build.Ch(k));

  PlanNodePtr probe_exchange = std::make_shared<ExchangeNode>(
      NextId(), broadcast ? Partitioning::kArbitrary : Partitioning::kHash,
      broadcast ? std::vector<int>{} : probe_key_channels, probe.node);
  PlanNodePtr build_exchange = std::make_shared<ExchangeNode>(
      NextId(), broadcast ? Partitioning::kBroadcast : Partitioning::kHash,
      broadcast ? std::vector<int>{} : build_key_channels, build.node);
  PlanNodePtr build_local = std::make_shared<LocalExchangeNode>(
      NextId(), Partitioning::kArbitrary, std::vector<int>{}, build_exchange);

  Rel out{std::make_shared<HashJoinNode>(
              NextId(), probe_exchange, build_local, probe_key_channels,
              build_key_channels, build_out_channels, join_type),
          probe.names};
  if (JoinEmitsBuildColumns(join_type)) {
    for (const auto& name : build_output) out.names.push_back(name);
  } else if (join_type == JoinType::kMark) {
    out.names.push_back(mark_name);
  }
  return out;
}

PlanBuilder::Rel PlanBuilder::Aggregate(Rel input,
                                        const std::vector<std::string>& group_by,
                                        const std::vector<AggSpec>& aggs) {
  std::vector<int> key_channels;
  for (const auto& k : group_by) key_channels.push_back(input.Ch(k));
  std::vector<::accordion::Aggregate> aggregates;
  for (const auto& spec : aggs) {
    ::accordion::Aggregate agg;
    agg.func = spec.func;
    if (spec.input.empty()) {
      ACC_CHECK(spec.func == AggFunc::kCount) << "only COUNT can take *";
      agg.input_channel = -1;
      agg.input_type = DataType::kInt64;
    } else {
      agg.input_channel = input.Ch(spec.input);
      agg.input_type = input.node->output_types()[agg.input_channel];
    }
    aggregates.push_back(agg);
  }

  PlanNodePtr partial = std::make_shared<PartialAggregationNode>(
      NextId(), key_channels, aggregates, input.node);
  PlanNodePtr exchange = std::make_shared<ExchangeNode>(
      NextId(), Partitioning::kGather, std::vector<int>{}, partial);
  PlanNodePtr final_agg = std::make_shared<FinalAggregationNode>(
      NextId(), key_channels, aggregates, exchange);

  Rel out{final_agg, group_by};
  for (const auto& spec : aggs) out.names.push_back(spec.output);
  return out;
}

PlanBuilder::Rel PlanBuilder::OrderByLimit(Rel input,
                                           const std::vector<OrderKey>& keys,
                                           int64_t limit) {
  std::vector<SortKey> sort_keys;
  for (const auto& k : keys) {
    sort_keys.push_back(SortKey{input.Ch(k.column), k.ascending});
  }
  if (input.node->kind() == PlanNodeKind::kFinalAggregation) {
    // Already a gathered DOP-1 stage: a single final TopN suffices.
    return Rel{std::make_shared<TopNNode>(NextId(), sort_keys, limit,
                                          /*partial=*/false, input.node),
               input.names};
  }
  PlanNodePtr partial = std::make_shared<TopNNode>(
      NextId(), sort_keys, limit, /*partial=*/true, input.node);
  PlanNodePtr exchange = std::make_shared<ExchangeNode>(
      NextId(), Partitioning::kGather, std::vector<int>{}, partial);
  return Rel{std::make_shared<TopNNode>(NextId(), sort_keys, limit,
                                        /*partial=*/false, exchange),
             input.names};
}

PlanBuilder::Rel PlanBuilder::Limit(Rel input, int64_t limit) {
  return Rel{std::make_shared<LimitNode>(NextId(), limit, input.node),
             input.names};
}

PlanBuilder::Rel PlanBuilder::Repartition(
    Rel input, Partitioning partitioning,
    const std::vector<std::string>& keys) {
  std::vector<int> key_channels;
  for (const auto& k : keys) key_channels.push_back(input.Ch(k));
  return Rel{std::make_shared<ExchangeNode>(NextId(), partitioning,
                                            std::move(key_channels),
                                            input.node),
             input.names};
}

PlanBuilder::Rel PlanBuilder::InsertShuffleStage(Rel input) {
  PlanNodePtr exchange = std::make_shared<ExchangeNode>(
      NextId(), Partitioning::kArbitrary, std::vector<int>{}, input.node);
  return Rel{std::make_shared<ShufflePassThroughNode>(NextId(), exchange),
             input.names};
}

PlanNodePtr PlanBuilder::Output(Rel input) {
  return std::make_shared<OutputNode>(NextId(), input.names, input.node);
}

PlanBuilder::Rel PlanBuilder::AnnotateRows(Rel rel, double rows) {
  if (rel.node != nullptr && rows >= 0) {
    std::const_pointer_cast<PlanNode>(rel.node)->set_estimated_rows(rows);
  }
  return rel;
}

PlanBuilder::Rel PlanBuilder::Values(std::vector<PagePtr> pages,
                                     std::vector<DataType> types,
                                     std::vector<std::string> names) {
  return Rel{std::make_shared<ValuesNode>(NextId(), std::move(pages),
                                          std::move(types)),
             std::move(names)};
}

}  // namespace accordion
