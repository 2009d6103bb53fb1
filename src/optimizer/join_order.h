#ifndef ACCORDION_OPTIMIZER_JOIN_ORDER_H_
#define ACCORDION_OPTIMIZER_JOIN_ORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "optimizer/options.h"

namespace accordion {

/// Logical join graph the analyzer hands to the optimizer: one node per
/// FROM table (with its estimated post-filter cardinality), one edge per
/// equi-join conjunct.
struct JoinGraph {
  struct Table {
    std::string label;  // alias (or name) for the optimizer report
    double rows = 1;    // estimated rows after local filters
  };
  struct Edge {
    int left = 0;
    int right = 0;
    double left_ndv = 1;   // distinct join-key values on each side
    double right_ndv = 1;
  };
  std::vector<Table> tables;
  std::vector<Edge> edges;
};

/// One left-deep join step. The accumulated relation is the probe side and
/// `table` the build side unless `flip` — then the new table probes and
/// the accumulated relation builds (legal for inner joins; the analyzer's
/// final projection restores column order by name).
struct JoinStep {
  int table = -1;
  bool flip = false;
  bool broadcast = false;
  double est_rows = 0;  // estimated rows after this step
};

/// A full left-deep order: steps[0] is the starting scan (flip/broadcast
/// meaningless there), steps[i>0] the i-th join.
struct JoinPlan {
  std::vector<JoinStep> steps;
  double cost = 0;          // sum of estimated intermediate cardinalities
  bool reordered = false;   // order differs from textual 0,1,2,...
};

/// Chooses a join order for `graph` under `options`:
///  - kOn: exhaustive left-deep dynamic programming over connected
///    subsets, minimizing the sum of estimated intermediate cardinalities
///    (TPC-H shapes are <= 8 tables; DP is 2^n * n^2). Past 16 tables the
///    DP is skipped and the textual order 0,1,2,... is kept (tables
///    unconnected at their turn are deferred);
///  - kFuzz: a seeded random connected order with random build-side flips
///    and broadcast choices.
/// Fails with InvalidArgument when the graph is not connected (cross
/// joins are outside the engine's SQL subset).
Result<JoinPlan> PlanJoinOrder(const JoinGraph& graph,
                               const OptimizerOptions& options);

}  // namespace accordion

#endif  // ACCORDION_OPTIMIZER_JOIN_ORDER_H_
