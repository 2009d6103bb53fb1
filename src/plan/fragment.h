#ifndef ACCORDION_PLAN_FRAGMENT_H_
#define ACCORDION_PLAN_FRAGMENT_H_

#include <map>
#include <string>
#include <vector>

#include "plan/plan_node.h"

namespace accordion {

/// One stage of the distributed execution plan (paper Fig. 4). The
/// fragmenter cuts the physical plan at every ExchangeNode; each cut
/// becomes a PlanFragment whose tasks ship pages to the consuming stage
/// through their task output buffers.
struct PlanFragment {
  int stage_id = 0;

  /// Fragment-local plan; ExchangeNodes are replaced by RemoteSourceNodes.
  PlanNodePtr root;

  /// How this fragment's task output buffers route pages to the consuming
  /// stage's tasks (root stage: kGather to the coordinator).
  Partitioning output_partitioning = Partitioning::kGather;
  std::vector<int> output_keys;

  /// Consuming stage (-1 for the root stage).
  int parent_stage_id = -1;

  /// Stages feeding this fragment, in RemoteSourceNode encounter order.
  std::vector<int> source_stage_ids;

  /// Scanned base table, or empty if this is an intermediate stage.
  std::string scan_table;

  /// True when the fragment is only Exchange -> TaskOutput (an elastic
  /// shuffle stage, paper §4.6).
  bool is_shuffle_stage = false;

  /// True when the fragment contains a stateful final operator
  /// (final aggregation / final TopN): its DOP is pinned to 1 (paper §4.1).
  bool has_final_stateful = false;

  /// True when the fragment contains a hash join (stage DOP changes need
  /// hash-table reconstruction / DOP switching, paper §4.5).
  bool has_join = false;

  /// True when a hash join in the fragment emits unmatched build rows
  /// (right/full). Its stage DOP cannot change: after a switch, the old
  /// and the new task group would each drain build rows the other matched.
  bool has_unmatched_build_join = false;

  bool IsScanStage() const { return !scan_table.empty(); }

  std::string ToString() const;
};

/// Splits a physical plan into stages. Stage ids are assigned in DFS
/// preorder (probe side before build side), matching the paper's numbering
/// for Q3 (Fig. 21). The root fragment gets stage id 0.
std::vector<PlanFragment> FragmentPlan(const PlanNodePtr& root);

/// For each source stage of `fragment`, whether its pages feed a hash-join
/// *build* side within the fragment. Build-feeding stages get page caches
/// and multicast task groups on their output buffers (paper §4.5);
/// probe-feeding stages switch routing instead.
std::map<int, bool> BuildSideSourceStages(const PlanFragment& fragment);

}  // namespace accordion

#endif  // ACCORDION_PLAN_FRAGMENT_H_
