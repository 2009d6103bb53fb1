#include "plan/fragment.h"

#include <sstream>

#include "common/logging.h"

namespace accordion {
namespace {

/// Recursive fragment extraction with DFS-preorder stage numbering.
class Fragmenter {
 public:
  std::vector<PlanFragment> Run(const PlanNodePtr& root) {
    fragments_.emplace_back();
    fragments_[0].stage_id = 0;
    fragments_[0].parent_stage_id = -1;
    fragments_[0].root = Rewrite(root, 0);
    Annotate();
    return std::move(fragments_);
  }

 private:
  PlanNodePtr Rewrite(const PlanNodePtr& node, int fragment_index) {
    if (node->kind() == PlanNodeKind::kExchange) {
      const auto& exchange = static_cast<const ExchangeNode&>(*node);
      int child_stage = next_stage_id_++;
      fragments_[fragment_index].source_stage_ids.push_back(child_stage);

      fragments_.emplace_back();
      int child_index = static_cast<int>(fragments_.size()) - 1;
      fragments_[child_index].stage_id = child_stage;
      fragments_[child_index].parent_stage_id =
          fragments_[fragment_index].stage_id;
      fragments_[child_index].output_partitioning = exchange.partitioning();
      fragments_[child_index].output_keys = exchange.keys();
      // NOTE: fragments_ may reallocate during the recursive call; index,
      // not reference, must be used afterwards.
      PlanNodePtr child_root = Rewrite(node->children()[0], child_index);
      fragments_[child_index].root = child_root;

      auto remote = std::make_shared<RemoteSourceNode>(node->id(), child_stage,
                                                       node->output_types());
      // The remote source stands for the exchange and carries its
      // cardinality estimate.
      remote->set_estimated_rows(node->estimated_rows());
      return remote;
    }

    std::vector<PlanNodePtr> new_children;
    new_children.reserve(node->children().size());
    bool changed = false;
    for (const auto& child : node->children()) {
      PlanNodePtr rewritten = Rewrite(child, fragment_index);
      changed |= rewritten != child;
      new_children.push_back(std::move(rewritten));
    }
    if (!changed) return node;
    PlanNodePtr clone = CloneWithChildren(*node, std::move(new_children));
    // Preserve optimizer annotations across the rewrite (safe: the clone
    // is not shared yet).
    std::const_pointer_cast<PlanNode>(clone)->set_estimated_rows(
        node->estimated_rows());
    return clone;
  }

  static PlanNodePtr CloneWithChildren(const PlanNode& node,
                                       std::vector<PlanNodePtr> children) {
    switch (node.kind()) {
      case PlanNodeKind::kFilter: {
        const auto& n = static_cast<const FilterNode&>(node);
        return std::make_shared<FilterNode>(n.id(), n.predicate(), children[0]);
      }
      case PlanNodeKind::kProject: {
        const auto& n = static_cast<const ProjectNode&>(node);
        return std::make_shared<ProjectNode>(n.id(), n.exprs(), children[0]);
      }
      case PlanNodeKind::kHashJoin: {
        const auto& n = static_cast<const HashJoinNode&>(node);
        return std::make_shared<HashJoinNode>(
            n.id(), children[0], children[1], n.probe_keys(), n.build_keys(),
            n.build_output_channels(), n.join_type());
      }
      case PlanNodeKind::kPartialAggregation: {
        const auto& n = static_cast<const PartialAggregationNode&>(node);
        return std::make_shared<PartialAggregationNode>(
            n.id(), n.group_by(), n.aggregates(), children[0]);
      }
      case PlanNodeKind::kFinalAggregation: {
        const auto& n = static_cast<const FinalAggregationNode&>(node);
        // Reconstruct from original-channel metadata against the partial
        // child layout.
        return std::make_shared<FinalAggregationNode>(
            n.id(), n.group_by(), n.aggregates(), children[0]);
      }
      case PlanNodeKind::kTopN: {
        const auto& n = static_cast<const TopNNode&>(node);
        return std::make_shared<TopNNode>(n.id(), n.keys(), n.limit(),
                                          n.partial(), children[0]);
      }
      case PlanNodeKind::kLimit: {
        const auto& n = static_cast<const LimitNode&>(node);
        return std::make_shared<LimitNode>(n.id(), n.limit(), children[0]);
      }
      case PlanNodeKind::kLocalExchange: {
        const auto& n = static_cast<const LocalExchangeNode&>(node);
        return std::make_shared<LocalExchangeNode>(n.id(), n.partitioning(),
                                                   n.keys(), children[0]);
      }
      case PlanNodeKind::kOutput: {
        const auto& n = static_cast<const OutputNode&>(node);
        return std::make_shared<OutputNode>(n.id(), n.column_names(),
                                            children[0]);
      }
      case PlanNodeKind::kShufflePassThrough: {
        const auto& n = static_cast<const ShufflePassThroughNode&>(node);
        return std::make_shared<ShufflePassThroughNode>(n.id(), children[0]);
      }
      default:
        ACC_CHECK(false) << "cannot clone " << PlanNodeKindName(node.kind());
        return nullptr;
    }
  }

  /// Fills per-fragment metadata by walking each fragment-local tree.
  void Annotate() {
    for (auto& fragment : fragments_) {
      bool only_passthrough = true;
      WalkAnnotate(fragment.root, &fragment, &only_passthrough);
      fragment.is_shuffle_stage = only_passthrough &&
                                  !fragment.source_stage_ids.empty() &&
                                  fragment.scan_table.empty();
    }
  }

  static void WalkAnnotate(const PlanNodePtr& node, PlanFragment* fragment,
                           bool* only_passthrough) {
    switch (node->kind()) {
      case PlanNodeKind::kTableScan:
        fragment->scan_table =
            static_cast<const TableScanNode&>(*node).table();
        *only_passthrough = false;
        break;
      case PlanNodeKind::kHashJoin:
        fragment->has_join = true;
        fragment->has_unmatched_build_join |= JoinEmitsUnmatchedBuild(
            static_cast<const HashJoinNode&>(*node).join_type());
        *only_passthrough = false;
        break;
      case PlanNodeKind::kFinalAggregation:
        fragment->has_final_stateful = true;
        *only_passthrough = false;
        break;
      case PlanNodeKind::kTopN:
        if (!static_cast<const TopNNode&>(*node).partial()) {
          fragment->has_final_stateful = true;
        }
        *only_passthrough = false;
        break;
      case PlanNodeKind::kRemoteSource:
      case PlanNodeKind::kShufflePassThrough:
      case PlanNodeKind::kOutput:
        break;  // pass-through for shuffle-stage detection
      default:
        *only_passthrough = false;
        break;
    }
    for (const auto& child : node->children()) {
      WalkAnnotate(child, fragment, only_passthrough);
    }
  }

  int next_stage_id_ = 1;
  std::vector<PlanFragment> fragments_;
};

}  // namespace

std::string PlanFragment::ToString() const {
  std::ostringstream out;
  out << "Stage " << stage_id << " [out=" << PartitioningName(output_partitioning);
  if (IsScanStage()) out << " scan=" << scan_table;
  if (is_shuffle_stage) out << " shuffle-stage";
  if (has_join) out << " join";
  if (has_final_stateful) out << " final";
  out << "]\n" << root->ToString(1);
  return out.str();
}

std::vector<PlanFragment> FragmentPlan(const PlanNodePtr& root) {
  return Fragmenter().Run(root);
}

namespace {

void CollectSources(const PlanNodePtr& node, bool under_build,
                    std::map<int, bool>* out) {
  if (node->kind() == PlanNodeKind::kRemoteSource) {
    const auto& source = static_cast<const RemoteSourceNode&>(*node);
    (*out)[source.source_stage_id()] = under_build;
    return;
  }
  if (node->kind() == PlanNodeKind::kHashJoin) {
    const auto& join = static_cast<const HashJoinNode&>(*node);
    CollectSources(join.probe(), under_build, out);
    CollectSources(join.build(), /*under_build=*/true, out);
    return;
  }
  for (const auto& child : node->children()) {
    CollectSources(child, under_build, out);
  }
}

}  // namespace

std::map<int, bool> BuildSideSourceStages(const PlanFragment& fragment) {
  std::map<int, bool> out;
  CollectSources(fragment.root, /*under_build=*/false, &out);
  return out;
}

}  // namespace accordion
