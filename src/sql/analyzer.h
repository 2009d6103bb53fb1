#ifndef ACCORDION_SQL_ANALYZER_H_
#define ACCORDION_SQL_ANALYZER_H_

#include <string>

#include "catalog/catalog.h"
#include "optimizer/options.h"
#include "plan/plan_node.h"
#include "sql/parser.h"

namespace accordion {

/// Lowers a parsed SQL query onto the distributed PlanBuilder, applying
/// the same rules the hand-built TPC-H plans use:
///  - column pruning (only referenced columns are scanned),
///  - per-table filter pushdown below the exchanges,
///  - join ordering by FROM order with equi-join conjunct extraction
///    (nation/region builds are broadcast); self-joins are supported via
///    alias-qualified columns (`nation n1, nation n2` ... `n1.n_name`),
///  - two-phase aggregation for GROUP BY over columns, select aliases or
///    expressions (`GROUP BY l_year` with `EXTRACT(YEAR FROM ...) AS
///    l_year` in the select list), with HAVING filtered over the
///    aggregate output,
///  - `EXISTS (SELECT ...)` conjuncts lowered to dedup-then-join (the
///    hand-built Q4 shape), `NOT EXISTS` to an anti join against the same
///    deduplicated relation, and `<expr> <op> (SELECT <agg> ...)` scalar
///    subqueries decorrelated into aggregate joins (the Q2 shape);
///    correlation must be `<inner column> = <outer column>` equalities,
///  - uncorrelated `<expr> IN (SELECT ...)` as a left semi join and
///    `<expr> NOT IN (SELECT ...)` as a null-aware anti join (keeping
///    SQL's three-valued `<> ALL` semantics around NULLs),
///  - LEFT/RIGHT/FULL [OUTER] JOIN ... ON applied over the inner join
///    tree in textual order — outer joins do not commute, so they are
///    invisible to the join-order optimizer and to plan-space fuzzing,
///  - SELECT DISTINCT as a trailing all-column grouping,
///  - TopN for ORDER BY [+ LIMIT].
///
/// Limitations (documented engine scope, all rejected with a typed
/// Status — see API.md "SQL reference"): single result SELECT block, no
/// correlated or nested IN subqueries, no uncorrelated EXISTS, no
/// subqueries outside top-level WHERE conjuncts, inner joins must
/// precede the first outer join, outer-join ON conjuncts are limited to
/// equalities plus non-preserved-side filters, and a RIGHT/FULL join
/// admits at most one inner-joined table (WHERE conjuncts cannot be
/// pushed below a join that NULL-pads or drops probe rows, so they
/// could not connect an inner prefix).
/// `options` selects the cost-based optimizer mode (src/optimizer/):
/// kOn (the default) estimates cardinalities from catalog statistics,
/// reorders joins by dynamic programming, picks build sides and broadcast
/// exchanges by estimated size and applies filters as early as possible;
/// kFuzz draws every decision from `options.fuzz_seed` (differential
/// plan-space testing).
Result<PlanNodePtr> AnalyzeSql(const SqlQuery& query, const Catalog& catalog,
                               const OptimizerOptions& options = {});

/// Plan plus the optimizer's human-readable decision report (join order,
/// per-step cardinality estimates, build sides, pushdown knobs) —
/// rendered by Session::Explain above the fragment tree.
struct AnalyzedPlan {
  PlanNodePtr plan;
  std::string optimizer_report;
};

Result<AnalyzedPlan> AnalyzeSqlWithReport(const SqlQuery& query,
                                          const Catalog& catalog,
                                          const OptimizerOptions& options = {});

/// Parse + analyze in one call.
Result<PlanNodePtr> SqlToPlan(const std::string& sql, const Catalog& catalog,
                              const OptimizerOptions& options = {});

}  // namespace accordion

#endif  // ACCORDION_SQL_ANALYZER_H_
