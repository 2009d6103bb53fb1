#ifndef ACCORDION_EXEC_OPERATORS_H_
#define ACCORDION_EXEC_OPERATORS_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "exec/exchange_client.h"
#include "exec/join_bridge.h"
#include "exec/local_exchange.h"
#include "exec/operator.h"
#include "exec/output_buffer.h"
#include "exec/split.h"
#include "expr/expr.h"
#include "plan/plan_node.h"
#include "storage/page_source.h"

namespace accordion {

/// Pulls the next system split for a scan driver; nullopt when the stage's
/// split queue is exhausted (Presto-style dynamic split assignment — new
/// tasks/drivers simply keep pulling).
using NextSplitFn = std::function<std::optional<SystemSplit>()>;

/// Opens a split for reading `columns`, the table-schema channels the scan
/// emits in page order (cluster layer adds storage-node NIC costs).
using OpenSplitFn = std::function<std::unique_ptr<PageSource>(
    const SystemSplit&, const std::vector<int>& columns)>;

// --- source operators ---
OperatorFactoryPtr MakeTableScanFactory(NextSplitFn next_split,
                                        OpenSplitFn open_split,
                                        std::vector<int> columns);
OperatorFactoryPtr MakeValuesFactory(std::vector<PagePtr> pages);
OperatorFactoryPtr MakeExchangeFactory(ExchangeClient* client);
OperatorFactoryPtr MakeLocalExchangeSourceFactory(LocalExchange* exchange);

// --- compute operators ---
OperatorFactoryPtr MakeFilterFactory(ExprPtr predicate);
OperatorFactoryPtr MakeProjectFactory(std::vector<ExprPtr> exprs);
OperatorFactoryPtr MakeLookupJoinFactory(
    JoinBridge* bridge, std::vector<int> probe_keys,
    std::vector<int> build_output_channels,
    JoinType join_type = JoinType::kInner);
OperatorFactoryPtr MakePartialAggFactory(std::vector<int> group_by,
                                         std::vector<Aggregate> aggs,
                                         std::vector<DataType> input_types);
OperatorFactoryPtr MakeFinalAggFactory(std::vector<int> group_by,
                                       std::vector<Aggregate> aggs,
                                       std::vector<DataType> input_types);
OperatorFactoryPtr MakeTopNFactory(std::vector<SortKey> keys, int64_t limit,
                                   std::vector<DataType> input_types);
OperatorFactoryPtr MakeLimitFactory(int64_t limit);

// --- sink operators ---
OperatorFactoryPtr MakeLocalExchangeSinkFactory(LocalExchange* exchange);
OperatorFactoryPtr MakeHashBuildFactory(JoinBridge* bridge);
OperatorFactoryPtr MakeTaskOutputFactory(OutputBuffer* buffer);

}  // namespace accordion

#endif  // ACCORDION_EXEC_OPERATORS_H_
