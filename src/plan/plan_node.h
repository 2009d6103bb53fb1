#ifndef ACCORDION_PLAN_PLAN_NODE_H_
#define ACCORDION_PLAN_PLAN_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "vector/data_type.h"

namespace accordion {

class PlanNode;
using PlanNodePtr = std::shared_ptr<const PlanNode>;

/// Physical plan node kinds. Exchange and LocalExchange are the paper's
/// two special nodes: Exchange cuts the plan into fragments (stages),
/// LocalExchange and HashJoin are the pipeline breakers inside a fragment.
enum class PlanNodeKind {
  kTableScan,
  kFilter,
  kProject,
  kHashJoin,
  kPartialAggregation,
  kFinalAggregation,
  kTopN,
  kLimit,
  kExchange,
  kLocalExchange,
  kOutput,
  kValues,
  kShufflePassThrough,
  kRemoteSource,
};

const char* PlanNodeKindName(PlanNodeKind kind);

/// How a producer's rows are routed to its consumers — applies both to the
/// inter-stage exchange (task output buffer) and the intra-task local
/// exchange.
enum class Partitioning {
  kArbitrary,  ///< any consumer may take any page (shared buffer)
  kHash,       ///< row-hash on key channels modulo consumer count
  kBroadcast,  ///< every consumer receives every page
  kGather,     ///< single consumer
};

const char* PartitioningName(Partitioning partitioning);

/// Join variants supported by HashJoinNode. All of them build a hash table
/// on child 1 and stream child 0 through it; they differ in which rows are
/// emitted and how unmatched rows are padded.
enum class JoinType {
  kInner,         ///< matched pairs only
  kLeft,          ///< + unmatched probe rows, build columns NULL
  kRight,         ///< + unmatched build rows, probe columns NULL
  kFull,          ///< both of the above
  kLeftSemi,      ///< probe rows with >=1 match, probe columns only
  kLeftAnti,      ///< probe rows with no match (NULL keys qualify)
  kNullAwareAnti, ///< SQL NOT IN: empty when build has any NULL key
  kMark,          ///< probe columns + nullable bool "matched" (3VL IN)
};

const char* JoinTypeName(JoinType type);

/// Semi/anti/mark joins emit no build columns; mark adds a bool channel.
inline bool JoinEmitsBuildColumns(JoinType t) {
  return t == JoinType::kInner || t == JoinType::kLeft ||
         t == JoinType::kRight || t == JoinType::kFull;
}

/// Right/full joins also emit the build rows no probe row matched, drained
/// after the whole probe side has been seen.
inline bool JoinEmitsUnmatchedBuild(JoinType t) {
  return t == JoinType::kRight || t == JoinType::kFull;
}

/// Aggregate function kinds supported by the two-phase aggregation model.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc func);

///// One aggregate: func over an input channel (-1 = COUNT(*)).
struct Aggregate {
  AggFunc func = AggFunc::kCount;
  int input_channel = -1;
  DataType input_type = DataType::kInt64;

  /// Number of partial-state columns this aggregate needs (avg uses 2).
  int NumStateColumns() const { return func == AggFunc::kAvg ? 2 : 1; }

  /// Final result type.
  DataType ResultType() const;
};

/// One ORDER BY key.
struct SortKey {
  int channel = 0;
  bool ascending = true;
};

/// Immutable physical plan node. `output_types` is the row schema this
/// node produces; children are owned shared_ptrs (plans are trees).
class PlanNode {
 public:
  PlanNode(PlanNodeKind kind, int id, std::vector<DataType> output_types,
           std::vector<PlanNodePtr> children)
      : kind_(kind),
        id_(id),
        output_types_(std::move(output_types)),
        children_(std::move(children)) {}
  virtual ~PlanNode() = default;

  PlanNodeKind kind() const { return kind_; }
  int id() const { return id_; }
  const std::vector<DataType>& output_types() const { return output_types_; }
  const std::vector<PlanNodePtr>& children() const { return children_; }

  /// Single-line description used by plan printing.
  virtual std::string Describe() const { return PlanNodeKindName(kind_); }

  /// Indented multi-line plan tree rendering (appends the estimated-rows
  /// annotation when present).
  std::string ToString(int indent = 0) const;

  /// Optimizer cardinality estimate for this node's output, or -1 when the
  /// node was not annotated (hand-built plans, optimizer off).
  double estimated_rows() const { return estimated_rows_; }

  /// Attaches a cardinality estimate. Only the plan builder (before the
  /// node is shared) and the fragmenter (when cloning) may call this —
  /// nodes are immutable once published.
  void set_estimated_rows(double rows) { estimated_rows_ = rows; }

 private:
  PlanNodeKind kind_;
  int id_;
  std::vector<DataType> output_types_;
  std::vector<PlanNodePtr> children_;
  double estimated_rows_ = -1;
};

// ---------------------------------------------------------------------------
// Node subclasses
// ---------------------------------------------------------------------------

/// Reads `columns` of a base table: its table-schema channels, in output
/// order, with `types` their types. The data source emits only these.
class TableScanNode : public PlanNode {
 public:
  TableScanNode(int id, std::string table, std::vector<int> columns,
                std::vector<DataType> types)
      : PlanNode(PlanNodeKind::kTableScan, id, std::move(types), {}),
        table_(std::move(table)),
        columns_(std::move(columns)) {}

  const std::string& table() const { return table_; }
  const std::vector<int>& columns() const { return columns_; }
  std::string Describe() const override { return "TableScan(" + table_ + ")"; }

 private:
  std::string table_;
  std::vector<int> columns_;
};

class FilterNode : public PlanNode {
 public:
  FilterNode(int id, ExprPtr predicate, PlanNodePtr child)
      : PlanNode(PlanNodeKind::kFilter, id, child->output_types(), {child}),
        predicate_(std::move(predicate)) {}

  const ExprPtr& predicate() const { return predicate_; }
  std::string Describe() const override {
    return "Filter(" + predicate_->ToString() + ")";
  }

 private:
  ExprPtr predicate_;
};

class ProjectNode : public PlanNode {
 public:
  ProjectNode(int id, std::vector<ExprPtr> exprs, PlanNodePtr child);

  const std::vector<ExprPtr>& exprs() const { return exprs_; }
  std::string Describe() const override;

 private:
  std::vector<ExprPtr> exprs_;
};

/// Hash join. Child 0 is the probe side, child 1 the build side.
/// Output for inner/left/right/full = all probe columns followed by
/// `build_output_channels` (build columns are nullable under left/full,
/// probe columns under right/full). Semi/anti joins emit probe columns
/// only and require an empty `build_output_channels`; mark joins append
/// one nullable kBool "matched" channel after the probe columns.
class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(int id, PlanNodePtr probe, PlanNodePtr build,
               std::vector<int> probe_keys, std::vector<int> build_keys,
               std::vector<int> build_output_channels,
               JoinType join_type = JoinType::kInner);

  const PlanNodePtr& probe() const { return children()[0]; }
  const PlanNodePtr& build() const { return children()[1]; }
  const std::vector<int>& probe_keys() const { return probe_keys_; }
  const std::vector<int>& build_keys() const { return build_keys_; }
  const std::vector<int>& build_output_channels() const {
    return build_output_channels_;
  }
  JoinType join_type() const { return join_type_; }
  std::string Describe() const override;

 private:
  std::vector<int> probe_keys_;
  std::vector<int> build_keys_;
  std::vector<int> build_output_channels_;
  JoinType join_type_;
};

/// Shared base of the two aggregation phases (paper §4.1: partial is
/// destroy-and-rebuildable hence "stateless"; final is stateful, DOP 1).
class AggregationBaseNode : public PlanNode {
 public:
  AggregationBaseNode(PlanNodeKind kind, int id,
                      std::vector<DataType> output_types,
                      std::vector<int> group_by, std::vector<Aggregate> aggs,
                      PlanNodePtr child)
      : PlanNode(kind, id, std::move(output_types), {child}),
        group_by_(std::move(group_by)),
        aggregates_(std::move(aggs)) {}

  const std::vector<int>& group_by() const { return group_by_; }
  const std::vector<Aggregate>& aggregates() const { return aggregates_; }
  std::string Describe() const override;

 private:
  std::vector<int> group_by_;
  std::vector<Aggregate> aggregates_;
};

class PartialAggregationNode : public AggregationBaseNode {
 public:
  PartialAggregationNode(int id, std::vector<int> group_by,
                         std::vector<Aggregate> aggs, PlanNodePtr child);

  /// Output layout: group-by key columns, then per-aggregate state columns.
  static std::vector<DataType> PartialTypes(const PlanNode& child,
                                            const std::vector<int>& group_by,
                                            const std::vector<Aggregate>& aggs);
};

/// Final aggregation consumes the partial layout and emits keys + results.
class FinalAggregationNode : public AggregationBaseNode {
 public:
  /// `group_by`/`aggs` refer to the ORIGINAL (pre-partial) channels; the
  /// node derives its input layout from the partial convention.
  FinalAggregationNode(int id, std::vector<int> group_by,
                       std::vector<Aggregate> aggs, PlanNodePtr child);

  static std::vector<DataType> FinalTypes(const PlanNode& partial_child,
                                          const std::vector<int>& group_by,
                                          const std::vector<Aggregate>& aggs);
};

/// Top-N (ORDER BY + LIMIT). `partial` instances keep per-driver heaps and
/// can be destroyed/rebuilt (stateless in the paper's sense); the final
/// instance runs at DOP 1.
class TopNNode : public PlanNode {
 public:
  TopNNode(int id, std::vector<SortKey> keys, int64_t limit, bool partial,
           PlanNodePtr child)
      : PlanNode(PlanNodeKind::kTopN, id, child->output_types(), {child}),
        keys_(std::move(keys)),
        limit_(limit),
        partial_(partial) {}

  const std::vector<SortKey>& keys() const { return keys_; }
  int64_t limit() const { return limit_; }
  bool partial() const { return partial_; }
  std::string Describe() const override;

 private:
  std::vector<SortKey> keys_;
  int64_t limit_;
  bool partial_;
};

class LimitNode : public PlanNode {
 public:
  LimitNode(int id, int64_t limit, PlanNodePtr child)
      : PlanNode(PlanNodeKind::kLimit, id, child->output_types(), {child}),
        limit_(limit) {}

  int64_t limit() const { return limit_; }
  std::string Describe() const override {
    return "Limit(" + std::to_string(limit_) + ")";
  }

 private:
  int64_t limit_;
};

/// Remote exchange: the fragment boundary. The child subtree becomes a
/// separate stage whose task output buffers partition by `partitioning`.
class ExchangeNode : public PlanNode {
 public:
  ExchangeNode(int id, Partitioning partitioning, std::vector<int> keys,
               PlanNodePtr child)
      : PlanNode(PlanNodeKind::kExchange, id, child->output_types(), {child}),
        partitioning_(partitioning),
        keys_(std::move(keys)) {}

  Partitioning partitioning() const { return partitioning_; }
  const std::vector<int>& keys() const { return keys_; }
  std::string Describe() const override;

 private:
  Partitioning partitioning_;
  std::vector<int> keys_;
};

/// Intra-task exchange: pipeline breaker splitting into sink + source.
class LocalExchangeNode : public PlanNode {
 public:
  LocalExchangeNode(int id, Partitioning partitioning, std::vector<int> keys,
                    PlanNodePtr child)
      : PlanNode(PlanNodeKind::kLocalExchange, id, child->output_types(),
                 {child}),
        partitioning_(partitioning),
        keys_(std::move(keys)) {}

  Partitioning partitioning() const { return partitioning_; }
  const std::vector<int>& keys() const { return keys_; }
  std::string Describe() const override;

 private:
  Partitioning partitioning_;
  std::vector<int> keys_;
};

/// Root of stage 0: results stream to the coordinator/client.
class OutputNode : public PlanNode {
 public:
  OutputNode(int id, std::vector<std::string> column_names, PlanNodePtr child)
      : PlanNode(PlanNodeKind::kOutput, id, child->output_types(), {child}),
        column_names_(std::move(column_names)) {}

  const std::vector<std::string>& column_names() const {
    return column_names_;
  }

 private:
  std::vector<std::string> column_names_;
};

/// Literal pages (tests and examples).
class ValuesNode : public PlanNode {
 public:
  ValuesNode(int id, std::vector<PagePtr> pages,
             std::vector<DataType> output_types)
      : PlanNode(PlanNodeKind::kValues, id, std::move(output_types), {}),
        pages_(std::move(pages)) {}

  const std::vector<PagePtr>& pages() const { return pages_; }

 private:
  std::vector<PagePtr> pages_;
};

/// Produced by the fragmenter: stands where an ExchangeNode was, reading
/// pages from the tasks of `source_stage_id` (paper Fig. 5's remote splits).
class RemoteSourceNode : public PlanNode {
 public:
  RemoteSourceNode(int id, int source_stage_id,
                   std::vector<DataType> output_types)
      : PlanNode(PlanNodeKind::kRemoteSource, id, std::move(output_types), {}),
        source_stage_id_(source_stage_id) {}

  int source_stage_id() const { return source_stage_id_; }
  std::string Describe() const override {
    return "RemoteSource(stage " + std::to_string(source_stage_id_) + ")";
  }

 private:
  int source_stage_id_;
};

/// Pure pass-through node marking an elastic shuffle stage (paper §4.6):
/// the fragment contains only Exchange -> TaskOutput so its DOP widens
/// shuffle bandwidth.
class ShufflePassThroughNode : public PlanNode {
 public:
  ShufflePassThroughNode(int id, PlanNodePtr child)
      : PlanNode(PlanNodeKind::kShufflePassThrough, id, child->output_types(),
                 {child}) {}
  std::string Describe() const override { return "Shuffle"; }
};

}  // namespace accordion

#endif  // ACCORDION_PLAN_PLAN_NODE_H_
