#ifndef ACCORDION_PLAN_BUILDER_H_
#define ACCORDION_PLAN_BUILDER_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "plan/plan_node.h"

namespace accordion {

/// Fluent construction of distributed physical plans with the exchange
/// placement rules the paper's optimizer applies:
///  - every base-table scan is its own stage;
///  - a hash join is its own stage: probe side arrives through a
///    hash-partitioned (or arbitrary, for broadcast joins) exchange, build
///    side through a hash-partitioned (or broadcast) exchange topped by a
///    LocalExchange (the Fig. 6 pipeline breaker);
///  - aggregations use the two-phase model (§4.1): partial aggregation in
///    the producing stage, gather exchange, final aggregation at DOP 1;
///  - ORDER BY + LIMIT uses partial TopN below a gather exchange unless
///    the input is already a gathered final aggregation;
///  - InsertShuffleStage() adds the §4.6 elastic shuffle stage.
///
/// The SQL frontend lowers onto this builder; the TPC-H benchmark queries
/// use it directly.
class PlanBuilder {
 public:
  explicit PlanBuilder(const Catalog* catalog) : catalog_(catalog) {}

  /// A sub-plan plus the column names of its output channels.
  struct Rel {
    PlanNodePtr node;
    std::vector<std::string> names;

    /// Channel of `name`; aborts if absent (query bugs fail loudly).
    int Ch(const std::string& name) const;
    DataType TypeOf(const std::string& name) const;
    /// Column-reference expression for `name`.
    ExprPtr Ref(const std::string& name) const;
  };

  /// Scans `columns` (a non-empty subset of distinct names, in the given
  /// order) of a base table. The TableScanNode carries the list, and the
  /// data source generates only those columns.
  Rel Scan(const std::string& table, const std::vector<std::string>& columns);

  Rel Filter(Rel input, ExprPtr predicate);

  /// Projects expressions with output names.
  Rel Project(Rel input, std::vector<ExprPtr> exprs,
              std::vector<std::string> names);

  /// Hash join in a new stage. Output for inner/outer types: all probe
  /// columns, then `build_output` columns; semi/anti emit probe columns
  /// only (build_output must be empty). `broadcast` selects the Fig. 16a
  /// replicated build (probe exchange becomes arbitrary) — rejected by
  /// ACC_CHECK for right/full joins (their unmatched-build padding must be
  /// emitted by exactly one worker per build row) and forced on for
  /// null-aware anti joins (their per-probe-row decision reads the global
  /// build-empty / build-has-null flags).
  Rel Join(Rel probe, Rel build, const std::vector<std::string>& probe_keys,
           const std::vector<std::string>& build_keys,
           const std::vector<std::string>& build_output,
           bool broadcast = false, JoinType join_type = JoinType::kInner);

  /// Aggregation spec: function, input column name ("" for COUNT(*)),
  /// output name.
  struct AggSpec {
    AggFunc func;
    std::string input;
    std::string output;
  };

  /// Two-phase aggregation; output = group-by columns then agg outputs.
  Rel Aggregate(Rel input, const std::vector<std::string>& group_by,
                const std::vector<AggSpec>& aggs);

  /// ORDER BY `keys` LIMIT `limit`.
  struct OrderKey {
    std::string column;
    bool ascending = true;
  };
  Rel OrderByLimit(Rel input, const std::vector<OrderKey>& keys,
                   int64_t limit);

  Rel Limit(Rel input, int64_t limit);

  /// Elastic shuffle stage below the consumer (paper Fig. 27).
  Rel InsertShuffleStage(Rel input);

  /// Explicit stage boundary: everything below becomes its own stage whose
  /// output is routed by `partitioning`. Used e.g. to give Q1 a partial-
  /// aggregation stage separate from its scan stage (paper Fig. 25b).
  Rel Repartition(Rel input, Partitioning partitioning,
                  const std::vector<std::string>& keys = {});

  /// Finalizes the plan: OutputNode on top (stage 0 root).
  PlanNodePtr Output(Rel input);

  /// Literal rows, for tests.
  Rel Values(std::vector<PagePtr> pages, std::vector<DataType> types,
             std::vector<std::string> names);

  /// Attaches a cardinality estimate to the relation's top node (and to
  /// the exchange it may sit on). Builder-owned nodes are not shared yet,
  /// so mutating the annotation here is safe.
  static Rel AnnotateRows(Rel rel, double rows);

 private:
  int NextId() { return next_node_id_++; }

  const Catalog* catalog_;
  int next_node_id_ = 0;
};

}  // namespace accordion

#endif  // ACCORDION_PLAN_BUILDER_H_
