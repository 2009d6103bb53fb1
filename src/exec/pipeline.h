#ifndef ACCORDION_EXEC_PIPELINE_H_
#define ACCORDION_EXEC_PIPELINE_H_

#include <functional>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "plan/fragment.h"

namespace accordion {

/// One pipeline of a task: an ordered list of operator factories, each of
/// which can instantiate any number of physical operators — the
/// class/object relationship from the paper (§2, Fig. 6).
struct Pipeline {
  int id = 0;
  std::vector<OperatorFactoryPtr> factories;

  /// False when the pipeline contains stateful final operators (final
  /// aggregation / final TopN) whose parallelism is pinned to 1 (§4.1).
  bool tunable = true;

  /// True if the last factory is the task output (the "task output
  /// pipeline" of Fig. 12a).
  bool is_output = false;

  std::string ToString() const;
};

/// Wiring surface the task offers to the pipeline builder: creation of the
/// shared structures referenced by operator factories.
struct PipelineBuildContext {
  std::function<ExchangeClient*(int source_stage_id)> exchange_client;
  std::function<LocalExchange*(int node_id)> local_exchange;
  std::function<JoinBridge*(const HashJoinNode& join)> join_bridge;
  OutputBuffer* output_buffer = nullptr;
  NextSplitFn next_split;
  OpenSplitFn open_split;
};

/// Converts a fragment into its pipelines by splitting at the pipeline
/// breakers (LocalExchange -> sink+source, HashJoin -> build+probe) and
/// appending the task output operator to the main pipeline (paper Fig. 6).
/// The main (output) pipeline is always last.
std::vector<Pipeline> BuildPipelines(const PlanFragment& fragment,
                                     PipelineBuildContext* ctx);

}  // namespace accordion

#endif  // ACCORDION_EXEC_PIPELINE_H_
