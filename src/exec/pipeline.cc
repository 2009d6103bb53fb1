#include "exec/pipeline.h"

#include "common/logging.h"

namespace accordion {
namespace {

class PipelineCompiler {
 public:
  explicit PipelineCompiler(PipelineBuildContext* ctx) : ctx_(ctx) {}

  std::vector<Pipeline> Run(const PlanFragment& fragment) {
    current_stateful_ = false;
    std::vector<OperatorFactoryPtr> main = Compile(fragment.root);
    main.push_back(MakeTaskOutputFactory(ctx_->output_buffer));
    Pipeline output_pipeline;
    output_pipeline.factories = std::move(main);
    output_pipeline.tunable = !current_stateful_;
    output_pipeline.is_output = true;
    pipelines_.push_back(std::move(output_pipeline));
    for (size_t i = 0; i < pipelines_.size(); ++i) {
      pipelines_[i].id = static_cast<int>(i);
    }
    return std::move(pipelines_);
  }

 private:
  /// Returns the factory chain of the subtree that stays in the current
  /// pipeline; pushes completed (sink-terminated) pipelines as it goes.
  std::vector<OperatorFactoryPtr> Compile(const PlanNodePtr& node) {
    switch (node->kind()) {
      case PlanNodeKind::kTableScan: {
        const auto& scan = static_cast<const TableScanNode&>(*node);
        return {MakeTableScanFactory(ctx_->next_split, ctx_->open_split,
                                     scan.columns())};
      }
      case PlanNodeKind::kValues: {
        const auto& values = static_cast<const ValuesNode&>(*node);
        return {MakeValuesFactory(values.pages())};
      }
      case PlanNodeKind::kRemoteSource: {
        const auto& source = static_cast<const RemoteSourceNode&>(*node);
        return {MakeExchangeFactory(
            ctx_->exchange_client(source.source_stage_id()))};
      }
      case PlanNodeKind::kFilter: {
        const auto& filter = static_cast<const FilterNode&>(*node);
        auto chain = Compile(node->children()[0]);
        chain.push_back(MakeFilterFactory(filter.predicate()));
        return chain;
      }
      case PlanNodeKind::kProject: {
        const auto& project = static_cast<const ProjectNode&>(*node);
        auto chain = Compile(node->children()[0]);
        chain.push_back(MakeProjectFactory(project.exprs()));
        return chain;
      }
      case PlanNodeKind::kLimit: {
        const auto& limit = static_cast<const LimitNode&>(*node);
        auto chain = Compile(node->children()[0]);
        chain.push_back(MakeLimitFactory(limit.limit()));
        return chain;
      }
      case PlanNodeKind::kPartialAggregation: {
        const auto& agg = static_cast<const PartialAggregationNode&>(*node);
        auto chain = Compile(node->children()[0]);
        chain.push_back(MakePartialAggFactory(
            agg.group_by(), agg.aggregates(),
            node->children()[0]->output_types()));
        return chain;
      }
      case PlanNodeKind::kFinalAggregation: {
        const auto& agg = static_cast<const FinalAggregationNode&>(*node);
        auto chain = Compile(node->children()[0]);
        chain.push_back(MakeFinalAggFactory(
            agg.group_by(), agg.aggregates(),
            node->children()[0]->output_types()));
        current_stateful_ = true;
        return chain;
      }
      case PlanNodeKind::kTopN: {
        const auto& topn = static_cast<const TopNNode&>(*node);
        auto chain = Compile(node->children()[0]);
        chain.push_back(
            MakeTopNFactory(topn.keys(), topn.limit(), node->output_types()));
        if (!topn.partial()) current_stateful_ = true;
        return chain;
      }
      case PlanNodeKind::kLocalExchange: {
        // Pipeline breaker: child subtree + sink become their own
        // pipeline; the current pipeline starts from the source.
        LocalExchange* exchange = ctx_->local_exchange(node->id());
        bool saved_stateful = current_stateful_;
        current_stateful_ = false;
        auto child_chain = Compile(node->children()[0]);
        child_chain.push_back(MakeLocalExchangeSinkFactory(exchange));
        Pipeline sink_pipeline;
        sink_pipeline.factories = std::move(child_chain);
        sink_pipeline.tunable = !current_stateful_;
        pipelines_.push_back(std::move(sink_pipeline));
        current_stateful_ = saved_stateful;
        return {MakeLocalExchangeSourceFactory(exchange)};
      }
      case PlanNodeKind::kHashJoin: {
        const auto& join = static_cast<const HashJoinNode&>(*node);
        JoinBridge* bridge = ctx_->join_bridge(join);
        // Build side becomes its own pipeline ending in HashBuilder.
        bool saved_stateful = current_stateful_;
        current_stateful_ = false;
        auto build_chain = Compile(join.build());
        build_chain.push_back(MakeHashBuildFactory(bridge));
        Pipeline build_pipeline;
        build_pipeline.factories = std::move(build_chain);
        build_pipeline.tunable = !current_stateful_;
        pipelines_.push_back(std::move(build_pipeline));
        current_stateful_ = saved_stateful;
        // Probe side continues the current pipeline.
        auto probe_chain = Compile(join.probe());
        probe_chain.push_back(MakeLookupJoinFactory(bridge));
        return probe_chain;
      }
      case PlanNodeKind::kOutput:
      case PlanNodeKind::kShufflePassThrough:
        return Compile(node->children()[0]);
      case PlanNodeKind::kExchange:
        ACC_CHECK(false) << "exchange nodes must be fragmented away";
        return {};
      default:
        ACC_CHECK(false) << "cannot compile "
                         << PlanNodeKindName(node->kind());
        return {};
    }
  }

  PipelineBuildContext* ctx_;
  std::vector<Pipeline> pipelines_;
  bool current_stateful_ = false;
};

}  // namespace

std::string Pipeline::ToString() const {
  std::string s = "Pipeline " + std::to_string(id) + ": ";
  for (size_t i = 0; i < factories.size(); ++i) {
    if (i) s += " -> ";
    s += factories[i]->Name();
  }
  if (!tunable) s += " [pinned]";
  return s;
}

std::vector<Pipeline> BuildPipelines(const PlanFragment& fragment,
                                     PipelineBuildContext* ctx) {
  return PipelineCompiler(ctx).Run(fragment);
}

}  // namespace accordion
