#include "sql/analyzer.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "optimizer/cardinality.h"
#include "optimizer/join_order.h"
#include "plan/builder.h"
#include "vector/hashing.h"

namespace accordion {
namespace {

std::string LowerStr(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(c));
  return out;
}

/// Collects every kColumn node below `expr` (aggregates included).
/// Subquery bodies are stored out-of-band in SqlExpr::subquery, so this
/// never descends into them — their columns belong to the inner scope.
void CollectColumnNodes(const SqlExprPtr& expr,
                        std::vector<SqlExprPtr>* out) {
  if (expr->kind == SqlExpr::Kind::kColumn) out->push_back(expr);
  for (const auto& child : expr->children) CollectColumnNodes(child, out);
}

bool ContainsAggregate(const SqlExprPtr& expr) {
  if (expr->kind == SqlExpr::Kind::kAggregate) return true;
  for (const auto& child : expr->children) {
    if (ContainsAggregate(child)) return true;
  }
  return false;
}

bool ContainsSubquery(const SqlExprPtr& expr) {
  if (expr->kind == SqlExpr::Kind::kExists ||
      expr->kind == SqlExpr::Kind::kScalarSubquery ||
      expr->kind == SqlExpr::Kind::kInSubquery) {
    return true;
  }
  for (const auto& child : expr->children) {
    if (ContainsSubquery(child)) return true;
  }
  return false;
}

bool IsComparisonOp(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

/// `sub op x` rewritten as `x MirrorOp(op) sub`.
std::string MirrorOp(const std::string& op) {
  if (op == "<") return ">";
  if (op == "<=") return ">=";
  if (op == ">") return "<";
  if (op == ">=") return "<=";
  return op;  // = and <> are symmetric
}

/// Structural equality, used to match GROUP BY expressions against select
/// items and to dedup aggregate calls. Column names compare
/// case-insensitively; subqueries only compare by identity.
bool SqlExprEquals(const SqlExprPtr& a, const SqlExprPtr& b) {
  if (a == b) return true;
  if (a == nullptr || b == nullptr || a->kind != b->kind) return false;
  if (a->kind == SqlExpr::Kind::kColumn) {
    return LowerStr(a->text) == LowerStr(b->text) &&
           LowerStr(a->qualifier) == LowerStr(b->qualifier);
  }
  if (a->text != b->text || a->qualifier != b->qualifier) return false;
  if (a->placeholder_index != b->placeholder_index) return false;
  if (a->subquery != b->subquery) return false;
  if (a->kind == SqlExpr::Kind::kBoundValue) {
    // Exact payload comparison — ToString would round doubles to 4
    // decimals and merge distinct bound parameters.
    const Value& va = a->bound_value;
    const Value& vb = b->bound_value;
    if (va.type != vb.type || va.i64 != vb.i64 || va.f64 != vb.f64 ||
        va.str != vb.str) {
      return false;
    }
  }
  if (a->children.size() != b->children.size()) return false;
  for (size_t i = 0; i < a->children.size(); ++i) {
    if (!SqlExprEquals(a->children[i], b->children[i])) return false;
  }
  return true;
}

SqlExprPtr MakeColumnRef(std::string name) {
  auto node = std::make_shared<SqlExpr>();
  node->kind = SqlExpr::Kind::kColumn;
  node->text = std::move(name);
  return node;
}

bool IsStringType(DataType t) { return t == DataType::kString; }

/// Type-checks a binary operator the way the Expr factories enforce it
/// with ACC_CHECK, but as a recoverable Status: user SQL must never take
/// the process down (the factories still hard-check engine-built plans).
Status CheckBinaryTypes(const std::string& op, DataType left, DataType right) {
  if (op == "AND" || op == "OR") {
    if (left != DataType::kBool || right != DataType::kBool) {
      return Status::InvalidArgument(op + " requires boolean operands");
    }
    return Status::OK();
  }
  if (IsComparisonOp(op)) {
    if (IsStringType(left) != IsStringType(right)) {
      return Status::InvalidArgument(
          "cannot compare string with non-string ('" + op + "')");
    }
    return Status::OK();
  }
  // Arithmetic.
  if (IsStringType(left) || IsStringType(right)) {
    return Status::InvalidArgument("arithmetic ('" + op + "') on a string");
  }
  if (left == DataType::kBool || right == DataType::kBool) {
    return Status::InvalidArgument("arithmetic ('" + op + "') on a boolean");
  }
  return Status::OK();
}

/// The DATE value of a DATE literal, a string coerced to a date or a bound
/// string parameter; kInvalidArgument unless it is a valid 'YYYY-MM-DD'.
Result<Value> DateValue(const std::string& text) {
  const int64_t days = ParseDate(text);
  if (days == kInvalidDate) {
    return Status::InvalidArgument("invalid DATE '" + text +
                                   "': expected a valid YYYY-MM-DD date");
  }
  return Value::Date(days);
}

class Analyzer {
 public:
  /// `select_list_matters` is false for EXISTS subqueries, whose select
  /// list is validated but never evaluated — its columns must not be
  /// scanned or carried through the inner join tree.
  Analyzer(const SqlQuery& query, const Catalog& catalog, PlanBuilder* builder,
           const Analyzer* outer, const OptimizerOptions& options,
           bool select_list_matters = true)
      : query_(query),
        catalog_(catalog),
        builder_(builder),
        outer_(outer),
        options_(options),
        select_list_matters_(select_list_matters) {}

  Result<PlanNodePtr> Run() {
    ACCORDION_ASSIGN_OR_RETURN(PlanBuilder::Rel rel, RunToRel());
    return builder_->Output(rel);
  }

  /// Optimizer decision report accumulated during Run().
  const std::string& report() const { return report_; }

 private:
  using Rel = PlanBuilder::Rel;

  struct TableInfo {
    std::string name;   // catalog name (lower case)
    std::string alias;  // lower case, unique within the FROM list
    TableSchema schema;
    std::set<std::string> needed_columns;  // catalog column names
    std::vector<SqlExprPtr> filters;       // single-table conjuncts
    bool joined = false;
    double base_rows = -1;  // catalog row count (cost model)
    double est_rows = -1;   // estimated rows after local filters
  };

  /// A column resolved against this scope's FROM list.
  struct ResolvedColumn {
    int table = -1;
    std::string column;  // catalog name
  };

  /// An equi-join conjunct between two FROM tables.
  struct JoinPred {
    int left_table = -1;
    int right_table = -1;
    std::string left;   // catalog name on left_table
    std::string right;  // catalog name on right_table
    bool consumed = false;
  };

  /// A WHERE conjunct carrying a subquery: `[NOT] EXISTS (SELECT ...)`,
  /// `<expr> <op> (SELECT <aggregate> ...)` or `<expr> [NOT] IN
  /// (SELECT ...)`. PrepareSubquery decorrelates the first two into an
  /// aggregate relation joined on the correlation keys; PrepareInSubquery
  /// lowers the third onto a semi join (IN) or a null-aware anti join
  /// (NOT IN, which must keep SQL's three-valued `x <> all` semantics:
  /// a NULL probe or a NULL in the subquery output rejects every row).
  struct PendingSubquery {
    std::shared_ptr<SqlQuery> query;
    bool exists = false;
    bool negated = false;   // NOT EXISTS / NOT IN
    bool in_probe = false;  // `<expr> [NOT] IN (SELECT ...)`; lhs = probe
    SqlExprPtr lhs;  // scalar / IN: outer comparison operand
    std::string op;  // scalar only: normalized to `lhs op subquery`
    // Filled by PrepareSubquery:
    Rel rel;                              // aggregated inner relation
    std::vector<std::string> outer_keys;  // internal names, this scope
    std::vector<std::string> inner_keys;  // names in rel
    std::string value_column;             // aggregate output (scalar)
  };

  Result<Rel> RunToRel() {
    ACCORDION_RETURN_NOT_OK(ResolveTables());
    ACCORDION_RETURN_NOT_OK(ClassifyConjuncts());
    ACCORDION_RETURN_NOT_OK(ClassifyOuterJoins());
    ACCORDION_RETURN_NOT_OK(PrepareSubqueries());
    ACCORDION_ASSIGN_OR_RETURN(Rel rel, BuildJoinTree());
    ACCORDION_RETURN_NOT_OK(ApplyOuterJoins(&rel));
    ACCORDION_RETURN_NOT_OK(ApplyResidualFilters(&rel));
    ACCORDION_RETURN_NOT_OK(ApplySubqueryJoins(&rel));
    ACCORDION_ASSIGN_OR_RETURN(rel, BuildProjectionAndAggregation(rel));
    ACCORDION_RETURN_NOT_OK(ApplyOrderByLimit(&rel));
    return rel;
  }

  // ---- Scope resolution -------------------------------------------------

  Status AddTable(const SqlTableRef& ref) {
    TableInfo info;
    info.name = LowerStr(ref.table);
    info.alias = LowerStr(ref.alias);
    ACCORDION_ASSIGN_OR_RETURN(info.schema, catalog_.GetTable(info.name));
    if (alias_table_.count(info.alias) > 0) {
      return Status::InvalidArgument(
          "duplicate table alias '" + info.alias +
          "' in FROM (alias each occurrence of a self-joined table)");
    }
    alias_table_[info.alias] = static_cast<int>(tables_.size());
    tables_.push_back(std::move(info));
    return Status::OK();
  }

  Status ResolveTables() {
    // Inner-joined tables first: they form the reorderable prefix of
    // tables_; outer-joined tables follow in textual order and are
    // applied above the inner join tree by ApplyOuterJoins.
    for (const auto& ref : query_.from) {
      ACCORDION_RETURN_NOT_OK(AddTable(ref));
    }
    num_inner_ = tables_.size();
    for (const auto& join : query_.outer_joins) {
      ACCORDION_RETURN_NOT_OK(AddTable(join.table));
      has_right_or_full_ |= join.kind != SqlOuterJoin::Kind::kLeft;
    }
    for (size_t t = 0; t < tables_.size(); ++t) {
      for (const auto& col : tables_[t].schema.columns()) {
        column_tables_[col.name].push_back(static_cast<int>(t));
      }
    }
    // Record needed columns from every clause (tolerantly: names that do
    // not resolve here may be select aliases or outer references; they are
    // diagnosed when lowered).
    auto note = [this](const SqlExprPtr& e) { NoteNeededColumns(e); };
    if (select_list_matters_) {
      for (const auto& item : query_.select_items) note(item.expr);
    }
    for (const auto& c : query_.conjuncts) note(c);
    for (const auto& join : query_.outer_joins) {
      for (const auto& c : join.on) note(c);
    }
    for (const auto& g : query_.group_by) note(g);
    for (const auto& h : query_.having) note(h);
    for (const auto& o : query_.order_by) note(o.expr);
    return Status::OK();
  }

  void NoteNeededColumns(const SqlExprPtr& expr) {
    std::vector<SqlExprPtr> cols;
    CollectColumnNodes(expr, &cols);
    ResolvedColumn rc;
    for (const auto& col : cols) {
      if (TryResolve(col, &rc)) {
        tables_[rc.table].needed_columns.insert(rc.column);
      }
    }
  }

  /// Resolves a kColumn node in this scope only; false when unknown or
  /// ambiguous (strict diagnosis happens in Resolve / Lower).
  bool TryResolve(const SqlExprPtr& col, ResolvedColumn* out) const {
    return TryResolve(*col, out);
  }

  bool TryResolve(const SqlExpr& col, ResolvedColumn* out) const {
    if (col.kind != SqlExpr::Kind::kColumn) return false;
    std::string name = LowerStr(col.text);
    if (!col.qualifier.empty()) {
      auto it = alias_table_.find(LowerStr(col.qualifier));
      if (it == alias_table_.end()) return false;
      if (tables_[it->second].schema.ChannelOf(name) < 0) return false;
      *out = ResolvedColumn{it->second, name};
      return true;
    }
    auto it = column_tables_.find(name);
    if (it == column_tables_.end() || it->second.size() != 1) return false;
    *out = ResolvedColumn{it->second[0], name};
    return true;
  }

  /// Strict resolution with typed errors (this scope only).
  Result<ResolvedColumn> Resolve(const SqlExprPtr& col) const {
    std::string name = LowerStr(col->text);
    if (!col->qualifier.empty()) {
      std::string alias = LowerStr(col->qualifier);
      auto it = alias_table_.find(alias);
      if (it == alias_table_.end()) {
        return Status::InvalidArgument("unknown table or alias '" + alias +
                                       "'");
      }
      if (tables_[it->second].schema.ChannelOf(name) < 0) {
        return Status::InvalidArgument("table '" + alias +
                                       "' has no column '" + name + "'");
      }
      return ResolvedColumn{it->second, name};
    }
    auto it = column_tables_.find(name);
    if (it == column_tables_.end()) {
      return Status::InvalidArgument("unknown column '" + name + "'");
    }
    if (it->second.size() > 1) {
      return Status::InvalidArgument(
          "ambiguous column '" + name +
          "' — qualify it with a table alias (e.g. n1." + name + ")");
    }
    return ResolvedColumn{it->second[0], name};
  }

  /// True when the bare name exists in several FROM entries of THIS
  /// scope — such a reference must be diagnosed as ambiguous, never
  /// resolved against an enclosing scope.
  bool IsAmbiguousLocal(const SqlExprPtr& col) const {
    if (col->kind != SqlExpr::Kind::kColumn || !col->qualifier.empty()) {
      return false;
    }
    auto it = column_tables_.find(LowerStr(col->text));
    return it != column_tables_.end() && it->second.size() > 1;
  }

  bool ResolvesInChain(const SqlExprPtr& col) const {
    ResolvedColumn rc;
    for (const Analyzer* a = this; a != nullptr; a = a->outer_) {
      if (a->TryResolve(col, &rc)) return true;
    }
    return false;
  }

  /// The column's name in Rel outputs. Columns whose plain name is
  /// ambiguous across the FROM list (self-joins) are qualified as
  /// "<alias>.<column>"; everything else keeps the catalog name.
  std::string InternalName(const ResolvedColumn& rc) const {
    auto it = column_tables_.find(rc.column);
    if (it != column_tables_.end() && it->second.size() > 1) {
      return tables_[rc.table].alias + "." + rc.column;
    }
    return rc.column;
  }

  DataType ColumnType(const ResolvedColumn& rc) const {
    const TableSchema& schema = tables_[rc.table].schema;
    return schema.TypeOf(schema.ChannelOf(rc.column));
  }

  /// Internal names of this scope's columns referenced below `expr`.
  void CollectLocalInternal(const SqlExprPtr& expr,
                            std::set<std::string>* out) const {
    std::vector<SqlExprPtr> cols;
    CollectColumnNodes(expr, &cols);
    ResolvedColumn rc;
    for (const auto& col : cols) {
      if (TryResolve(col, &rc)) out->insert(InternalName(rc));
    }
  }

  // ---- Conjunct classification ------------------------------------------

  Status ClassifyConjuncts() {
    for (const auto& conjunct : query_.conjuncts) {
      ACCORDION_RETURN_NOT_OK(ClassifyOne(conjunct));
    }
    return Status::OK();
  }

  Status ClassifyOne(const SqlExprPtr& conjunct) {
    if (conjunct->kind == SqlExpr::Kind::kExists) {
      PendingSubquery sq;
      sq.query = conjunct->subquery;
      sq.exists = true;
      subqueries_.push_back(std::move(sq));
      return Status::OK();
    }
    if (conjunct->kind == SqlExpr::Kind::kNot &&
        conjunct->children[0]->kind == SqlExpr::Kind::kExists) {
      PendingSubquery sq;
      sq.query = conjunct->children[0]->subquery;
      sq.exists = true;
      sq.negated = true;
      subqueries_.push_back(std::move(sq));
      return Status::OK();
    }
    if (conjunct->kind == SqlExpr::Kind::kInSubquery) {
      PendingSubquery sq;
      sq.query = conjunct->subquery;
      sq.in_probe = true;
      sq.negated = conjunct->text == "NOT";
      sq.lhs = conjunct->children[0];
      subqueries_.push_back(std::move(sq));
      return Status::OK();
    }
    if (conjunct->kind == SqlExpr::Kind::kBinary &&
        IsComparisonOp(conjunct->text)) {
      bool left_sub =
          conjunct->children[0]->kind == SqlExpr::Kind::kScalarSubquery;
      bool right_sub =
          conjunct->children[1]->kind == SqlExpr::Kind::kScalarSubquery;
      if (left_sub && right_sub) {
        return Status::Unimplemented(
            "comparing two scalar subqueries with each other");
      }
      if (left_sub || right_sub) {
        PendingSubquery sq;
        sq.lhs = conjunct->children[left_sub ? 1 : 0];
        sq.op = left_sub ? MirrorOp(conjunct->text) : conjunct->text;
        sq.query = conjunct->children[left_sub ? 0 : 1]->subquery;
        if (ContainsSubquery(sq.lhs)) {
          return Status::Unimplemented(
              "expressions combining multiple subqueries");
        }
        if (ContainsAggregate(sq.lhs)) {
          return Status::InvalidArgument(
              "aggregates cannot be compared with a subquery in WHERE");
        }
        subqueries_.push_back(std::move(sq));
        return Status::OK();
      }
    }
    if (ContainsSubquery(conjunct)) {
      return Status::InvalidArgument(
          "subqueries are only supported as top-level WHERE conjuncts: "
          "[NOT] EXISTS (SELECT ...), <expr> <op> (SELECT <aggregate> ...) "
          "or <expr> [NOT] IN (SELECT ...)");
    }

    // Plain conjunct: route by the set of referenced tables.
    std::vector<SqlExprPtr> cols;
    CollectColumnNodes(conjunct, &cols);
    std::set<int> refs;
    ResolvedColumn rc;
    for (const auto& col : cols) {
      if (TryResolve(col, &rc)) refs.insert(rc.table);
    }
    // WHERE applies above the join tree; for a column of an outer-joined
    // table the conjunct must see the NULL-padded rows, so it can never
    // be pushed into a scan or consumed as an inner-join predicate.
    for (int r : refs) {
      if (r >= static_cast<int>(num_inner_)) {
        residual_.push_back(conjunct);
        return Status::OK();
      }
    }
    // Under a RIGHT/FULL join even probe-side-only conjuncts change
    // meaning when evaluated before the join: pre-filtering the probe
    // turns its matches into NULL-padded preserved rows instead of
    // dropping them. Everything stays above the join tree. (LEFT joins
    // preserve the probe side, so probe filters commute and push down.)
    if (has_right_or_full_) {
      residual_.push_back(conjunct);
      return Status::OK();
    }
    if (refs.size() <= 1) {
      if (refs.empty()) {
        residual_.push_back(conjunct);
      } else {
        tables_[*refs.begin()].filters.push_back(conjunct);
      }
      return Status::OK();
    }
    // Two-table equality on plain columns => join predicate.
    if (refs.size() == 2 && conjunct->kind == SqlExpr::Kind::kBinary &&
        conjunct->text == "=" &&
        conjunct->children[0]->kind == SqlExpr::Kind::kColumn &&
        conjunct->children[1]->kind == SqlExpr::Kind::kColumn) {
      ResolvedColumn left, right;
      if (TryResolve(conjunct->children[0], &left) &&
          TryResolve(conjunct->children[1], &right)) {
        if (ColumnType(left) != ColumnType(right)) {
          return Status::InvalidArgument(
              "join predicate compares mismatched types: " +
              InternalName(left) + " = " + InternalName(right));
        }
        join_preds_.push_back(JoinPred{left.table, right.table, left.column,
                                       right.column, false});
        return Status::OK();
      }
    }
    residual_.push_back(conjunct);
    return Status::OK();
  }

  // ---- Outer joins ------------------------------------------------------

  /// A classified LEFT/RIGHT/FULL OUTER JOIN: applied over the inner join
  /// tree in textual order. Outer joins do not commute with inner joins
  /// or each other, so they are deliberately invisible to the join-order
  /// optimizer (and to plan-space fuzzing): only the inner prefix of
  /// tables_ enters the JoinGraph.
  struct OuterJoinInfo {
    JoinType type = JoinType::kLeft;
    int table = -1;                       // index into tables_
    std::vector<std::string> probe_keys;  // internal names, earlier tables
    std::vector<std::string> build_keys;  // internal names, the new table
    // RIGHT only: ON conjuncts over earlier tables, applied as a filter
    // below the join (sound because a right join does not preserve the
    // probe side — a filtered-out probe row would have matched nothing).
    std::vector<SqlExprPtr> probe_filters;
  };

  Status ClassifyOuterJoins() {
    if (has_right_or_full_ && num_inner_ > 1) {
      // WHERE conjuncts cannot be pushed below a RIGHT/FULL join (see
      // ClassifyOne), but this grammar's only way to connect comma /
      // INNER JOIN tables is through those conjuncts — so the inner
      // prefix would degenerate to a cross join. Reject it instead.
      return Status::Unimplemented(
          "RIGHT/FULL OUTER JOIN combined with multiple inner-joined "
          "tables (rewrite the inner joins as LEFT joins or a subquery)");
    }
    for (size_t j = 0; j < query_.outer_joins.size(); ++j) {
      const SqlOuterJoin& join = query_.outer_joins[j];
      const int tj = static_cast<int>(num_inner_ + j);
      OuterJoinInfo info;
      info.table = tj;
      switch (join.kind) {
        case SqlOuterJoin::Kind::kLeft: info.type = JoinType::kLeft; break;
        case SqlOuterJoin::Kind::kRight: info.type = JoinType::kRight; break;
        case SqlOuterJoin::Kind::kFull: info.type = JoinType::kFull; break;
      }
      for (const auto& c : join.on) {
        if (ContainsSubquery(c)) {
          return Status::Unimplemented(
              "subqueries in an outer join ON clause");
        }
        if (ContainsAggregate(c)) {
          return Status::InvalidArgument(
              "aggregates in an outer join ON clause");
        }
        std::vector<SqlExprPtr> cols;
        CollectColumnNodes(c, &cols);
        std::set<int> refs;
        ResolvedColumn rc;
        for (const auto& col : cols) {
          if (!TryResolve(col, &rc)) return Resolve(col).status();
          if (rc.table > tj) {
            return Status::InvalidArgument(
                "outer join ON clause references table '" +
                tables_[rc.table].alias + "', which is joined later");
          }
          refs.insert(rc.table);
        }
        // `earlier.x = new.y` becomes a key pair of this join.
        if (c->kind == SqlExpr::Kind::kBinary && c->text == "=" &&
            c->children[0]->kind == SqlExpr::Kind::kColumn &&
            c->children[1]->kind == SqlExpr::Kind::kColumn) {
          ResolvedColumn left, right;
          if (TryResolve(c->children[0], &left) &&
              TryResolve(c->children[1], &right) &&
              (left.table == tj) != (right.table == tj)) {
            const ResolvedColumn& build_rc = left.table == tj ? left : right;
            const ResolvedColumn& probe_rc = left.table == tj ? right : left;
            if (ColumnType(build_rc) != ColumnType(probe_rc)) {
              return Status::InvalidArgument(
                  "outer join predicate compares mismatched types: " +
                  InternalName(probe_rc) + " = " + InternalName(build_rc));
            }
            tables_[probe_rc.table].needed_columns.insert(probe_rc.column);
            tables_[tj].needed_columns.insert(build_rc.column);
            std::string probe_name = InternalName(probe_rc);
            extra_refs_.insert(probe_name);
            info.probe_keys.push_back(std::move(probe_name));
            info.build_keys.push_back(InternalName(build_rc));
            continue;
          }
        }
        const bool uses_build = refs.count(tj) > 0;
        if (!uses_build) {
          // ON filter over earlier tables only. Sound below a RIGHT join
          // (probe side not preserved); for LEFT/FULL it would have to
          // mark rows as unmatched without dropping them.
          if (info.type != JoinType::kRight) {
            return Status::Unimplemented(
                "ON filters over the preserved side of a LEFT/FULL join "
                "(move the filter to WHERE if post-join filtering is "
                "intended)");
          }
          info.probe_filters.push_back(c);
          CollectLocalInternal(c, &extra_refs_);
          continue;
        }
        if (refs.size() == 1) {
          // ON filter over the new table only. Below a LEFT join this
          // pushes into the build scan (non-preserved side); RIGHT/FULL
          // preserve the build side, so the rows must survive the filter.
          if (info.type == JoinType::kLeft) {
            tables_[tj].filters.push_back(c);
            continue;
          }
          return Status::Unimplemented(
              "ON filters over the preserved side of a RIGHT/FULL join "
              "(move the filter to WHERE if post-join filtering is "
              "intended)");
        }
        return Status::Unimplemented(
            "outer join ON conjuncts must be `a.x = b.y` equalities or "
            "single-table filters");
      }
      if (info.build_keys.empty()) {
        return Status::InvalidArgument(
            "outer join ON clause needs at least one `a.x = b.y` "
            "equi-join conjunct");
      }
      outer_infos_.push_back(std::move(info));
    }
    return Status::OK();
  }

  /// Applies the outer joins, in textual order, on top of the inner join
  /// tree. The build side never broadcasts: right/full joins emit
  /// unmatched build rows and a broadcast build would replicate them.
  Status ApplyOuterJoins(Rel* rel) {
    for (const auto& info : outer_infos_) {
      for (const auto& f : info.probe_filters) {
        ACCORDION_ASSIGN_OR_RETURN(ExprPtr pred, LowerPredicate(f, *rel));
        *rel = builder_->Filter(*rel, pred);
      }
      ACCORDION_ASSIGN_OR_RETURN(Rel build, ScanTable(info.table));
      TableInfo& table = tables_[info.table];
      // Build keys are not redundant with probe keys (unlike inner
      // joins): unmatched rows carry NULL on the non-preserved side, so
      // no key pruning happens here.
      std::vector<std::string> build_output;
      for (const auto& c : table.needed_columns) {
        build_output.push_back(InternalName(ResolvedColumn{info.table, c}));
      }
      *rel = builder_->Join(*rel, build, info.probe_keys, info.build_keys,
                            build_output, /*broadcast=*/false, info.type);
      report_ += std::string("outer join ") + table.alias + ": " +
                 JoinTypeName(info.type) +
                 ", textual order (outer joins are never commuted)\n";
    }
    return Status::OK();
  }

  // ---- Subquery decorrelation -------------------------------------------

  /// Strictly diagnoses every column below `expr` against the subquery
  /// scope chain (`sub`, then this outer scope): resolvable names pass,
  /// unknown or locally-ambiguous names return their typed error.
  Status DiagnoseSubqueryColumns(const Analyzer& sub,
                                 const SqlExprPtr& expr) const {
    std::vector<SqlExprPtr> cols;
    CollectColumnNodes(expr, &cols);
    ResolvedColumn rc;
    for (const auto& col : cols) {
      if (sub.TryResolve(col, &rc)) continue;
      if (sub.IsAmbiguousLocal(col)) return sub.Resolve(col).status();
      if (IsAmbiguousLocal(col)) {
        // Ambiguous in THIS (outer) scope: report the ambiguity, not an
        // inner-scope "unknown column".
        return Resolve(col).status();
      }
      if (!ResolvesInChain(col)) return sub.Resolve(col).status();
    }
    return Status::OK();
  }

  Status PrepareSubqueries() {
    for (auto& sq : subqueries_) {
      if (sq.in_probe) {
        ACCORDION_RETURN_NOT_OK(PrepareInSubquery(&sq));
      } else {
        ACCORDION_RETURN_NOT_OK(PrepareSubquery(&sq));
      }
    }
    return Status::OK();
  }

  /// Lowers `<expr> [NOT] IN (SELECT <column> ...)`: the subquery is
  /// analyzed in its own scope (uncorrelated only) and projected to its
  /// single output column; ApplySubqueryJoins then semi-joins (IN) or
  /// null-aware anti-joins (NOT IN) the outer relation against it. The
  /// inner relation is deliberately NOT deduplicated: the semi/anti join
  /// handles duplicate keys, and dedup via GROUP BY would be outright
  /// wrong for NOT IN (the null-aware anti join must see whether any
  /// inner row is NULL, and NULL forms its own group in GROUP BY).
  Status PrepareInSubquery(PendingSubquery* sq) {
    if (outer_ != nullptr) return Status::Unimplemented("nested subqueries");
    const SqlQuery& sub_query = *sq->query;
    if (!sub_query.group_by.empty() || !sub_query.having.empty() ||
        !sub_query.order_by.empty() || sub_query.limit >= 0 ||
        sub_query.distinct || !sub_query.outer_joins.empty()) {
      return Status::Unimplemented(
          "GROUP BY / HAVING / ORDER BY / LIMIT / DISTINCT / outer joins "
          "inside an IN subquery");
    }
    if (sub_query.select_star || sub_query.select_items.size() != 1 ||
        ContainsAggregate(sub_query.select_items[0].expr) ||
        ContainsSubquery(sub_query.select_items[0].expr)) {
      return Status::InvalidArgument(
          "an IN subquery must select exactly one non-aggregate "
          "expression, e.g. x IN (SELECT y FROM ...)");
    }
    if (ContainsAggregate(sq->lhs) || ContainsSubquery(sq->lhs)) {
      return Status::InvalidArgument(
          "the probe of [NOT] IN (SELECT ...) cannot contain aggregates "
          "or subqueries");
    }

    auto sub = std::make_unique<Analyzer>(sub_query, catalog_, builder_, this,
                                          options_);
    ACCORDION_RETURN_NOT_OK(sub->ResolveTables());
    ACCORDION_RETURN_NOT_OK(
        DiagnoseSubqueryColumns(*sub, sub_query.select_items[0].expr));
    for (const auto& c : sub_query.conjuncts) {
      if (ContainsSubquery(c)) {
        return Status::Unimplemented("nested subqueries");
      }
      std::vector<SqlExprPtr> cols;
      CollectColumnNodes(c, &cols);
      ResolvedColumn rc;
      for (const auto& col : cols) {
        if (!sub->TryResolve(col, &rc)) {
          // A typo gets its proper diagnosis; a genuine outer reference
          // gets the unsupported-correlation error.
          ACCORDION_RETURN_NOT_OK(DiagnoseSubqueryColumns(*sub, c));
          return Status::Unimplemented(
              "correlated [NOT] IN subqueries (rewrite as EXISTS / "
              "NOT EXISTS)");
        }
      }
      ACCORDION_RETURN_NOT_OK(sub->ClassifyOne(c));
    }

    ACCORDION_ASSIGN_OR_RETURN(Rel inner, sub->BuildJoinTree());
    ACCORDION_RETURN_NOT_OK(sub->ApplyResidualFilters(&inner));
    if (!sub->report_.empty()) {
      report_ += "IN subquery:\n" + sub->report_;
    }
    sq->value_column = "#subq" + std::to_string(subquery_ordinal_++);
    ACCORDION_ASSIGN_OR_RETURN(
        ExprPtr item, sub->Lower(sub_query.select_items[0].expr, inner));
    sq->rel = builder_->Project(inner, {item}, {sq->value_column});
    sq->inner_keys = {sq->value_column};

    // Probe side: a plain column joins directly (and must survive
    // pruning); any other expression is projected as a computed key
    // column by ApplySubqueryJoins.
    ResolvedColumn probe_rc;
    if (sq->lhs->kind == SqlExpr::Kind::kColumn &&
        TryResolve(sq->lhs, &probe_rc)) {
      tables_[probe_rc.table].needed_columns.insert(probe_rc.column);
      std::string name = InternalName(probe_rc);
      extra_refs_.insert(name);
      sq->outer_keys = {std::move(name)};
    } else {
      CollectLocalInternal(sq->lhs, &extra_refs_);
    }
    return Status::OK();
  }

  /// Lowers one EXISTS / scalar subquery onto the shape the hand-built
  /// TPC-H plans use: the inner query is analyzed in its own scope,
  /// correlated equality conjuncts become GROUP BY keys of an aggregate
  /// over the inner join tree, and the result is later joined back to the
  /// outer relation on those keys (EXISTS keeps no payload — the dedup
  /// join IS the semi-join; a scalar subquery carries its aggregate and is
  /// compared in a post-join filter).
  Status PrepareSubquery(PendingSubquery* sq) {
    if (outer_ != nullptr) return Status::Unimplemented("nested subqueries");
    const SqlQuery& sub_query = *sq->query;
    if (!sub_query.group_by.empty() || !sub_query.having.empty() ||
        !sub_query.order_by.empty() || sub_query.limit >= 0 ||
        sub_query.distinct || !sub_query.outer_joins.empty()) {
      return Status::Unimplemented(
          "GROUP BY / HAVING / ORDER BY / LIMIT / DISTINCT / outer joins "
          "inside a subquery");
    }
    SqlExprPtr agg_node;
    if (!sq->exists) {
      if (sub_query.select_star || sub_query.select_items.size() != 1 ||
          sub_query.select_items[0].expr->kind !=
              SqlExpr::Kind::kAggregate) {
        return Status::InvalidArgument(
            "a subquery in scalar position must select exactly one "
            "aggregate, e.g. (SELECT min(x) FROM ...)");
      }
      agg_node = sub_query.select_items[0].expr;
      if (agg_node->text == "COUNT") {
        // COUNT over an empty correlation group is 0, not NULL; the
        // inner-join decorrelation would wrongly drop those outer rows
        // (zero-fill needs an outer join the engine does not have).
        return Status::Unimplemented(
            "COUNT in scalar subqueries (empty groups would need "
            "zero-fill; use min/max/sum/avg or rewrite as EXISTS)");
      }
    } else if (!sub_query.select_star) {
      // EXISTS ignores its select list, but it must still be well-formed:
      // an aggregate would make the subquery always yield one row
      // (EXISTS constantly true), and unknown columns must not slip by.
      for (const auto& item : sub_query.select_items) {
        if (ContainsAggregate(item.expr)) {
          return Status::Unimplemented(
              "aggregates in an EXISTS select list (an aggregate subquery "
              "always yields one row — compare the aggregate instead)");
        }
        if (ContainsSubquery(item.expr)) {
          return Status::Unimplemented("nested subqueries");
        }
      }
    }

    auto sub = std::make_unique<Analyzer>(sub_query, catalog_, builder_, this,
                                          options_,
                                          /*select_list_matters=*/!sq->exists);
    ACCORDION_RETURN_NOT_OK(sub->ResolveTables());
    for (const auto& item : sub_query.select_items) {
      ACCORDION_RETURN_NOT_OK(DiagnoseSubqueryColumns(*sub, item.expr));
    }

    // Split the inner conjuncts: fully-local ones classify as usual;
    // anything touching the outer scope must be an
    // `<inner column> = <outer column>` correlation.
    std::vector<std::pair<ResolvedColumn, ResolvedColumn>> corr;  // in, out
    for (const auto& c : sub_query.conjuncts) {
      if (ContainsSubquery(c)) {
        return Status::Unimplemented("nested subqueries");
      }
      std::vector<SqlExprPtr> cols;
      CollectColumnNodes(c, &cols);
      bool all_local = true;
      ResolvedColumn rc;
      for (const auto& col : cols) {
        all_local &= sub->TryResolve(col, &rc);
      }
      if (all_local) {
        ACCORDION_RETURN_NOT_OK(sub->ClassifyOne(c));
        continue;
      }
      // Diagnose unknown / locally-ambiguous names first, so a typo gets
      // its proper error instead of the unsupported-correlation one.
      ACCORDION_RETURN_NOT_OK(DiagnoseSubqueryColumns(*sub, c));
      if (!(c->kind == SqlExpr::Kind::kBinary && c->text == "=" &&
            c->children[0]->kind == SqlExpr::Kind::kColumn &&
            c->children[1]->kind == SqlExpr::Kind::kColumn)) {
        return Status::Unimplemented(
            "correlated subquery predicates are limited to "
            "<inner column> = <outer column> equalities");
      }
      ResolvedColumn inner_rc, outer_rc;
      bool left_inner = sub->TryResolve(c->children[0], &inner_rc);
      const SqlExprPtr& outer_col =
          left_inner ? c->children[1] : c->children[0];
      if (!left_inner && !sub->TryResolve(c->children[1], &inner_rc)) {
        // Every name diagnosed above resolves somewhere, so both sides
        // are outer columns here.
        return Status::InvalidArgument(
            "subquery predicate references only outer columns (move it "
            "to the outer WHERE)");
      }
      ACCORDION_ASSIGN_OR_RETURN(outer_rc, Resolve(outer_col));
      if (sub->ColumnType(inner_rc) != ColumnType(outer_rc)) {
        return Status::InvalidArgument(
            "correlated predicate compares mismatched types: " +
            sub->InternalName(inner_rc) + " = " + InternalName(outer_rc));
      }
      corr.emplace_back(inner_rc, outer_rc);
    }
    if (corr.empty()) {
      return Status::Unimplemented(
          sq->exists
              ? "uncorrelated EXISTS subqueries"
              : "uncorrelated scalar subqueries (correlate with an outer "
                "column equality; constant thresholds can be inlined)");
    }

    for (const auto& [inner_rc, outer_rc] : corr) {
      sub->tables_[inner_rc.table].needed_columns.insert(inner_rc.column);
      std::string inner_name = sub->InternalName(inner_rc);
      sub->extra_refs_.insert(inner_name);
      sq->inner_keys.push_back(std::move(inner_name));
      tables_[outer_rc.table].needed_columns.insert(outer_rc.column);
      std::string outer_name = InternalName(outer_rc);
      extra_refs_.insert(outer_name);
      sq->outer_keys.push_back(std::move(outer_name));
    }
    // The outer comparison operand is evaluated above the outer join tree;
    // protect its columns from join-key pruning too.
    if (sq->lhs != nullptr) CollectLocalInternal(sq->lhs, &extra_refs_);

    ACCORDION_ASSIGN_OR_RETURN(Rel inner, sub->BuildJoinTree());
    ACCORDION_RETURN_NOT_OK(sub->ApplyResidualFilters(&inner));
    if (!sub->report_.empty()) {
      report_ += std::string(sq->exists ? "EXISTS" : "scalar") +
                 " subquery:\n" + sub->report_;
    }

    // Aggregate the inner relation by the correlation keys.
    // '#' cannot appear in a SQL identifier, so internal names can never
    // collide with user aliases or catalog columns.
    sq->value_column = "#subq" + std::to_string(subquery_ordinal_++);
    std::vector<ExprPtr> pre_exprs;
    std::vector<std::string> pre_names;
    for (const auto& k : sq->inner_keys) {
      pre_exprs.push_back(inner.Ref(k));
      pre_names.push_back(k);
    }
    PlanBuilder::AggSpec spec;
    spec.output = sq->value_column;
    if (sq->exists) {
      spec.func = AggFunc::kCount;
      spec.input = "";
    } else {
      ACCORDION_RETURN_NOT_OK(AggFuncOf(agg_node, &spec.func));
      ACCORDION_ASSIGN_OR_RETURN(ExprPtr input,
                                 sub->Lower(agg_node->children[0], inner));
      ACCORDION_RETURN_NOT_OK(CheckAggInput(agg_node, input->type()));
      std::string input_name = sq->value_column + "_in";
      pre_exprs.push_back(std::move(input));
      pre_names.push_back(input_name);
      spec.input = input_name;
    }
    Rel pre = builder_->Project(inner, std::move(pre_exprs),
                                std::move(pre_names));
    sq->rel = builder_->Aggregate(pre, sq->inner_keys, {spec});
    return Status::OK();
  }

  Status ApplySubqueryJoins(Rel* rel) {
    for (const auto& sq : subqueries_) {
      if (sq.in_probe) {
        ACCORDION_RETURN_NOT_OK(ApplyInSubqueryJoin(sq, rel));
        continue;
      }
      if (sq.exists && sq.negated) {
        // NOT EXISTS: plain anti join against the deduplicated inner
        // relation. A NULL correlation key on either side never matches
        // (SQL equality), so the probe row survives — exactly the
        // kLeftAnti NULL treatment.
        *rel = builder_->Join(*rel, sq.rel, sq.outer_keys, sq.inner_keys,
                              /*build_output=*/{}, /*broadcast=*/false,
                              JoinType::kLeftAnti);
        continue;
      }
      std::vector<std::string> build_output;
      if (!sq.exists) build_output.push_back(sq.value_column);
      *rel = builder_->Join(*rel, sq.rel, sq.outer_keys, sq.inner_keys,
                            build_output);
      if (sq.exists) continue;
      // `lhs op value`: a missing group would be NULL in standard SQL and
      // the comparison false — the inner join already dropped those rows.
      // Lower() supplies the operator mapping and type checks.
      auto cmp = std::make_shared<SqlExpr>();
      cmp->kind = SqlExpr::Kind::kBinary;
      cmp->text = sq.op;
      cmp->children = {sq.lhs, MakeColumnRef(sq.value_column)};
      ACCORDION_ASSIGN_OR_RETURN(ExprPtr pred, LowerPredicate(cmp, *rel));
      *rel = builder_->Filter(*rel, pred);
    }
    return Status::OK();
  }

  /// `<expr> IN (SELECT ...)` -> left semi join; `<expr> NOT IN
  /// (SELECT ...)` -> null-aware anti join (the builder broadcasts the
  /// build side so every worker sees the global empty / has-NULL state).
  Status ApplyInSubqueryJoin(const PendingSubquery& sq, Rel* rel) {
    std::string probe_name;
    if (!sq.outer_keys.empty()) {
      probe_name = sq.outer_keys[0];
    } else {
      // Computed probe: append it as an extra column (harmless — the
      // final projection selects only the select-list outputs).
      ACCORDION_ASSIGN_OR_RETURN(ExprPtr probe, Lower(sq.lhs, *rel));
      probe_name = sq.value_column + "_probe";
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names = rel->names;
      for (const auto& name : rel->names) exprs.push_back(rel->Ref(name));
      exprs.push_back(std::move(probe));
      names.push_back(probe_name);
      *rel = builder_->Project(*rel, std::move(exprs), std::move(names));
    }
    DataType probe_type = DataType::kInt64;
    bool found = false;
    for (size_t i = 0; i < rel->names.size(); ++i) {
      if (rel->names[i] == probe_name) {
        probe_type = rel->node->output_types()[i];
        found = true;
      }
    }
    if (!found) {
      return Status::Internal("IN probe column '" + probe_name +
                              "' missing from the outer relation");
    }
    DataType inner_type = sq.rel.node->output_types()[0];
    if (probe_type != inner_type) {
      return Status::InvalidArgument(
          "[NOT] IN probe type does not match the subquery column type");
    }
    *rel = builder_->Join(*rel, sq.rel, {probe_name}, {sq.value_column},
                          /*build_output=*/{}, /*broadcast=*/false,
                          sq.negated ? JoinType::kNullAwareAnti
                                     : JoinType::kLeftSemi);
    return Status::OK();
  }

  // ---- Join tree --------------------------------------------------------

  Result<Rel> ScanTable(int table_idx) {
    TableInfo& table = tables_[table_idx];
    std::vector<std::string> columns(table.needed_columns.begin(),
                                     table.needed_columns.end());
    if (columns.empty()) {
      // Degenerate (e.g., COUNT(*) from t): scan the primary key column.
      columns.push_back(table.schema.columns()[0].name);
    }
    Rel rel = builder_->Scan(table.name, columns);
    // Rename to internal names when this instance's columns need
    // alias-qualification (self-joins).
    bool renamed = false;
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const auto& c : columns) {
      std::string internal = InternalName(ResolvedColumn{table_idx, c});
      renamed |= internal != c;
      exprs.push_back(rel.Ref(c));
      names.push_back(std::move(internal));
    }
    if (renamed) rel = builder_->Project(rel, std::move(exprs), std::move(names));
    rel = PlanBuilder::AnnotateRows(rel, table.base_rows);
    for (const auto& filter : table.filters) {
      ACCORDION_ASSIGN_OR_RETURN(ExprPtr pred, LowerPredicate(filter, rel));
      rel = builder_->Filter(rel, pred);
    }
    if (!table.filters.empty()) {
      rel = PlanBuilder::AnnotateRows(rel, table.est_rows);
    }
    return rel;
  }

  // ---- Statistics access (cost model inputs) ----------------------------

  const ColumnStats* ResolvedStats(const ResolvedColumn& rc) const {
    const TableStats* ts = catalog_.GetStats(tables_[rc.table].name);
    if (ts == nullptr) return nullptr;
    int ch = tables_[rc.table].schema.ChannelOf(rc.column);
    if (ch < 0 || ch >= static_cast<int>(ts->columns.size())) return nullptr;
    return &ts->columns[ch];
  }

  /// Resolver restricted to one FROM table (per-table filter selectivity).
  ColumnStatsResolver TableStatsResolver(int table) const {
    return [this, table](const SqlExpr& col) -> const ColumnStats* {
      ResolvedColumn rc;
      if (!TryResolve(col, &rc) || rc.table != table) return nullptr;
      return ResolvedStats(rc);
    };
  }

  /// Resolver over the whole FROM scope (post-join expressions).
  ColumnStatsResolver ScopeStatsResolver() const {
    return [this](const SqlExpr& col) -> const ColumnStats* {
      ResolvedColumn rc;
      if (!TryResolve(col, &rc)) return nullptr;
      return ResolvedStats(rc);
    };
  }

  double ColumnNdv(int table, const std::string& column) const {
    const ColumnStats* stats =
        ResolvedStats(ResolvedColumn{table, column});
    if (stats != nullptr && stats->ndv > 0) {
      return static_cast<double>(stats->ndv);
    }
    // No statistics: assume a key-ish column on a tenth of the rows.
    return std::max(1.0, tables_[table].base_rows / 10.0);
  }

  // ---- Join tree --------------------------------------------------------

  Result<Rel> BuildJoinTree() {
    // Pushdown is always on, except that kFuzz draws it from the seed.
    bool filter_pushdown = true;
    bool projection_pushdown = true;
    if (options_.mode == OptimizerMode::kFuzz) {
      uint64_t bits = Mix64(options_.fuzz_seed ^ 0x9E3779B97F4A7C15ULL);
      filter_pushdown = (bits & 1) != 0;
      projection_pushdown = (bits & 2) != 0;
    }
    if (!filter_pushdown) {
      // Pushdown off: single-table predicates leave the scans and apply
      // above the join tree like any residual conjunct. Outer-joined
      // tables are exempt: their pushed filters came from ON clauses,
      // whose only semantics-preserving placement is below the join.
      for (size_t t = 0; t < num_inner_; ++t) {
        for (auto& f : tables_[t].filters) residual_.push_back(f);
        tables_[t].filters.clear();
      }
    }
    residual_applied_.assign(residual_.size(), false);
    // Eager residual application inside the (pre-outer-join) tree is only
    // sound when every join above it preserves the probe side.
    eager_residuals_ = filter_pushdown && !has_right_or_full_;

    // Make sure all join-key columns are scanned, and count how many join
    // predicates use each column so pruning below never drops a key a
    // later join still needs.
    std::map<std::string, int> join_uses;
    for (const auto& p : join_preds_) {
      tables_[p.left_table].needed_columns.insert(p.left);
      tables_[p.right_table].needed_columns.insert(p.right);
      ++join_uses[InternalName(ResolvedColumn{p.left_table, p.left})];
      ++join_uses[InternalName(ResolvedColumn{p.right_table, p.right})];
    }
    // Columns referenced above the join tree (select list, grouping,
    // having, ordering, residual predicates, subquery correlations) must
    // survive every pruning step.
    std::set<std::string> later_refs = extra_refs_;
    if (select_list_matters_) {
      for (const auto& item : query_.select_items) {
        CollectLocalInternal(item.expr, &later_refs);
      }
    }
    for (const auto& g : query_.group_by) CollectLocalInternal(g, &later_refs);
    for (const auto& h : query_.having) CollectLocalInternal(h, &later_refs);
    for (const auto& o : query_.order_by) {
      CollectLocalInternal(o.expr, &later_refs);
    }
    for (const auto& r : residual_) CollectLocalInternal(r, &later_refs);

    // Cost model: estimate each table's post-filter cardinality from the
    // catalog statistics, then hand the join graph to the optimizer.
    // Only the inner prefix of tables_ enters the graph — outer joins are
    // pinned to their textual position and must not be commuted (neither
    // by the DP optimizer nor by plan-space fuzzing).
    JoinGraph graph;
    for (size_t t = 0; t < tables_.size(); ++t) {
      TableInfo& table = tables_[t];
      const TableStats* ts = catalog_.GetStats(table.name);
      table.base_rows =
          ts != nullptr ? std::max<double>(1.0, ts->row_count) : 1000.0;
      double selectivity = 1.0;
      ColumnStatsResolver resolver = TableStatsResolver(static_cast<int>(t));
      for (const auto& f : table.filters) {
        selectivity *= EstimateSelectivity(f, resolver);
      }
      table.est_rows = std::max(1.0, table.base_rows * selectivity);
      if (t < num_inner_) {
        graph.tables.push_back(JoinGraph::Table{
            table.alias.empty() ? table.name : table.alias, table.est_rows});
      }
    }
    for (const auto& p : join_preds_) {
      graph.edges.push_back(JoinGraph::Edge{
          p.left_table, p.right_table, ColumnNdv(p.left_table, p.left),
          ColumnNdv(p.right_table, p.right)});
    }
    ACCORDION_ASSIGN_OR_RETURN(JoinPlan jplan, PlanJoinOrder(graph, options_));

    std::ostringstream rep;
    rep << "join order:";
    for (const auto& step : jplan.steps) {
      rep << " " << graph.tables[step.table].label;
    }
    if (jplan.reordered) {
      rep << "  [reordered; FROM order:";
      for (const auto& table : graph.tables) rep << " " << table.label;
      rep << "]";
    } else {
      rep << "  [FROM order kept]";
    }
    rep << "\n";

    int start = jplan.steps[0].table;
    ACCORDION_ASSIGN_OR_RETURN(Rel rel, ScanTable(start));
    tables_[start].joined = true;
    rep << "  scan " << graph.tables[start].label << ": est rows "
        << static_cast<int64_t>(jplan.steps[0].est_rows) << "\n";
    ACCORDION_RETURN_NOT_OK(ApplyEagerResiduals(&rel));

    for (size_t i = 1; i < jplan.steps.size(); ++i) {
      const JoinStep& step = jplan.steps[i];
      int next = step.table;
      // Every unconsumed predicate between the joined set and `next`
      // becomes a key pair of this join, in predicate declaration order.
      std::vector<std::string> probe_keys;
      std::vector<std::string> build_keys;
      std::vector<JoinPred*> used;
      for (auto& p : join_preds_) {
        if (p.consumed) continue;
        if (tables_[p.left_table].joined && p.right_table == next) {
          probe_keys.push_back(
              InternalName(ResolvedColumn{p.left_table, p.left}));
          build_keys.push_back(
              InternalName(ResolvedColumn{p.right_table, p.right}));
          used.push_back(&p);
        } else if (tables_[p.right_table].joined && p.left_table == next) {
          probe_keys.push_back(
              InternalName(ResolvedColumn{p.right_table, p.right}));
          build_keys.push_back(
              InternalName(ResolvedColumn{p.left_table, p.left}));
          used.push_back(&p);
        }
      }
      if (probe_keys.empty()) {
        return Status::InvalidArgument(
            "FROM tables are not connected by equi-join predicates "
            "(cross joins are outside the SQL subset)");
      }
      // The chosen join consumes its predicates: their columns have one
      // fewer pending join use.
      for (JoinPred* p : used) {
        p->consumed = true;
        --join_uses[InternalName(ResolvedColumn{p->left_table, p->left})];
        --join_uses[InternalName(ResolvedColumn{p->right_table, p->right})];
      }
      TableInfo& table = tables_[next];
      ACCORDION_ASSIGN_OR_RETURN(Rel build, ScanTable(next));
      if (!step.flip) {
        // Build output: every needed column except join keys whose only
        // remaining purpose was this join (they are redundant with the
        // probe side); keys referenced by later joins or clauses survive.
        std::vector<std::string> build_output;
        for (const auto& c : table.needed_columns) {
          std::string internal = InternalName(ResolvedColumn{next, c});
          bool is_key = std::find(build_keys.begin(), build_keys.end(),
                                  internal) != build_keys.end();
          bool still_needed =
              later_refs.count(internal) > 0 || join_uses[internal] > 0;
          if (!is_key || still_needed || !projection_pushdown) {
            build_output.push_back(internal);
          }
        }
        rel = builder_->Join(rel, build, probe_keys, build_keys, build_output,
                             step.broadcast);
      } else {
        // Build-side flip: the accumulated relation is the (smaller)
        // build side and the new table probes. Legal for inner joins —
        // names track the columns and the final projection restores
        // output order. The same key-pruning rule applies to the
        // accumulated side's keys.
        std::vector<std::string> acc_output;
        for (const auto& name : rel.names) {
          bool is_key = std::find(probe_keys.begin(), probe_keys.end(),
                                  name) != probe_keys.end();
          bool still_needed =
              later_refs.count(name) > 0 || join_uses[name] > 0;
          if (!is_key || still_needed || !projection_pushdown) {
            acc_output.push_back(name);
          }
        }
        rel = builder_->Join(build, rel, build_keys, probe_keys, acc_output,
                             step.broadcast);
      }
      rel = PlanBuilder::AnnotateRows(rel, step.est_rows);
      table.joined = true;
      rep << "  join " << graph.tables[next].label << ": build="
          << (step.flip ? "accumulated (flipped)"
                        : graph.tables[next].label)
          << (step.broadcast ? ", broadcast" : ", partitioned")
          << ", est rows " << static_cast<int64_t>(step.est_rows) << "\n";
      ACCORDION_RETURN_NOT_OK(ApplyEagerResiduals(&rel));
    }
    rep << "filter pushdown: " << (filter_pushdown ? "on" : "off")
        << ", projection pushdown: " << (projection_pushdown ? "on" : "off")
        << "\n";
    report_ += rep.str();
    return rel;
  }

  /// With filter pushdown on, applies every residual conjunct whose
  /// columns are all available in `rel` — as soon as possible instead of
  /// once above the full join tree. Conjuncts that do not lower yet (or
  /// carry errors, e.g. aggregates in WHERE) stay pending for
  /// ApplyResidualFilters, which reports them properly.
  Status ApplyEagerResiduals(Rel* rel) {
    if (!eager_residuals_) return Status::OK();
    for (size_t i = 0; i < residual_.size(); ++i) {
      if (residual_applied_[i]) continue;
      Result<ExprPtr> pred = LowerPredicate(residual_[i], *rel);
      if (!pred.ok()) continue;
      *rel = builder_->Filter(*rel, *pred);
      residual_applied_[i] = true;
    }
    return Status::OK();
  }

  Status ApplyResidualFilters(Rel* rel) {
    for (size_t i = 0; i < residual_.size(); ++i) {
      if (i < residual_applied_.size() && residual_applied_[i]) {
        continue;  // already applied inside the join tree
      }
      const auto& conjunct = residual_[i];
      if (ContainsAggregate(conjunct)) {
        return Status::InvalidArgument(
            "aggregates are not allowed in WHERE (move the predicate to "
            "HAVING)");
      }
      ACCORDION_ASSIGN_OR_RETURN(ExprPtr pred, LowerPredicate(conjunct, *rel));
      *rel = builder_->Filter(*rel, pred);
    }
    return Status::OK();
  }

  // ---- Expression lowering ----------------------------------------------

  /// Lower + require a boolean result (WHERE/ON/HAVING conjuncts).
  Result<ExprPtr> LowerPredicate(const SqlExprPtr& expr, const Rel& rel) {
    ACCORDION_ASSIGN_OR_RETURN(ExprPtr pred, Lower(expr, rel));
    if (pred->type() != DataType::kBool) {
      return Status::InvalidArgument(
          "WHERE/ON predicate is not boolean: " + pred->ToString());
    }
    return pred;
  }

  Result<ExprPtr> LowerColumn(const SqlExprPtr& expr, const Rel& rel) {
    std::string name = LowerStr(expr->text);
    if (expr->qualifier.empty()) {
      // Direct output-name match first: covers internal names below the
      // aggregation and group-key / select-alias names above it.
      for (size_t i = 0; i < rel.names.size(); ++i) {
        if (rel.names[i] == name) {
          return Col(static_cast<int>(i), rel.node->output_types()[i]);
        }
      }
    }
    ACCORDION_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveOrExplain(expr));
    std::string internal = InternalName(rc);
    for (size_t i = 0; i < rel.names.size(); ++i) {
      if (rel.names[i] == internal) {
        return Col(static_cast<int>(i), rel.node->output_types()[i]);
      }
    }
    return Status::InvalidArgument(
        "column '" + internal +
        "' is not available here (grouped output carries only GROUP BY "
        "keys and aggregates)");
  }

  /// Strict resolution, upgrading "unknown column" to a correlation
  /// diagnosis when the name would resolve in an enclosing query.
  Result<ResolvedColumn> ResolveOrExplain(const SqlExprPtr& col) const {
    Result<ResolvedColumn> rc = Resolve(col);
    if (!rc.ok() && !IsAmbiguousLocal(col) && outer_ != nullptr &&
        ResolvesInChain(col)) {
      return Status::Unimplemented(
          "correlated reference to outer column '" + LowerStr(col->text) +
          "' (only <inner column> = <outer column> equality conjuncts are "
          "supported)");
    }
    return rc;
  }

  /// Lowers an AST expression against `rel`'s columns.
  Result<ExprPtr> Lower(const SqlExprPtr& expr, const Rel& rel) {
    switch (expr->kind) {
      case SqlExpr::Kind::kColumn:
        return LowerColumn(expr, rel);
      case SqlExpr::Kind::kIntLiteral:
        return LitInt(std::atoll(expr->text.c_str()));
      case SqlExpr::Kind::kDecimalLiteral:
        return LitDouble(std::atof(expr->text.c_str()));
      case SqlExpr::Kind::kStringLiteral:
        return LitStr(expr->text);
      case SqlExpr::Kind::kDateLiteral: {
        ACCORDION_ASSIGN_OR_RETURN(Value date, DateValue(expr->text));
        return Lit(std::move(date));
      }
      case SqlExpr::Kind::kBinary: {
        // A bare NULL operand borrows the other side's type (`x = NULL`
        // is well-typed and constantly NULL under 3VL).
        const bool left_null =
            expr->children[0]->kind == SqlExpr::Kind::kNullLiteral;
        const bool right_null =
            expr->children[1]->kind == SqlExpr::Kind::kNullLiteral;
        if (left_null && right_null) {
          return Status::InvalidArgument(
              "cannot infer a type for NULL " + expr->text + " NULL");
        }
        ExprPtr left, right;
        if (left_null) {
          ACCORDION_ASSIGN_OR_RETURN(right, Lower(expr->children[1], rel));
          left = Lit(Value::Null(right->type()));
        } else {
          ACCORDION_ASSIGN_OR_RETURN(left, Lower(expr->children[0], rel));
        }
        // Date/string coercion: date_col < '1995-03-15' (literal or bound
        // string parameter).
        auto date_literal = [](const SqlExprPtr& e) -> const std::string* {
          if (e->kind == SqlExpr::Kind::kStringLiteral) return &e->text;
          if (e->kind == SqlExpr::Kind::kBoundValue &&
              e->bound_value.type == DataType::kString) {
            return &e->bound_value.str;
          }
          return nullptr;
        };
        if (right_null) {
          right = Lit(Value::Null(left->type()));
        } else if (const std::string* iso = date_literal(expr->children[1]);
                   left->type() == DataType::kDate && iso != nullptr) {
          ACCORDION_ASSIGN_OR_RETURN(Value date, DateValue(*iso));
          right = Lit(std::move(date));
        } else if (right == nullptr) {
          ACCORDION_ASSIGN_OR_RETURN(right, Lower(expr->children[1], rel));
        }
        // And the mirrored form: '1995-03-15' < date_col.
        if (const std::string* iso = date_literal(expr->children[0]);
            !left_null && right->type() == DataType::kDate && iso != nullptr) {
          ACCORDION_ASSIGN_OR_RETURN(Value date, DateValue(*iso));
          left = Lit(std::move(date));
        }
        const std::string& op = expr->text;
        ACCORDION_RETURN_NOT_OK(
            CheckBinaryTypes(op, left->type(), right->type()));
        if (op == "+") return Add(left, right);
        if (op == "-") return Sub(left, right);
        if (op == "*") return Mul(left, right);
        if (op == "/") return Div(left, right);
        if (op == "=") return Eq(left, right);
        if (op == "<>") return Ne(left, right);
        if (op == "<") return Lt(left, right);
        if (op == "<=") return Le(left, right);
        if (op == ">") return Gt(left, right);
        if (op == ">=") return Ge(left, right);
        if (op == "AND") return And(left, right);
        if (op == "OR") return Or(left, right);
        return Status::Internal("unknown operator " + op);
      }
      case SqlExpr::Kind::kNot: {
        ACCORDION_ASSIGN_OR_RETURN(ExprPtr inner, Lower(expr->children[0], rel));
        if (inner->type() != DataType::kBool) {
          return Status::InvalidArgument("NOT requires a boolean operand");
        }
        return Not(inner);
      }
      case SqlExpr::Kind::kLike: {
        ACCORDION_ASSIGN_OR_RETURN(ExprPtr inner, Lower(expr->children[0], rel));
        if (inner->type() != DataType::kString) {
          return Status::InvalidArgument("LIKE requires a string operand");
        }
        return Like(inner, expr->text);
      }
      case SqlExpr::Kind::kIn: {
        ACCORDION_ASSIGN_OR_RETURN(ExprPtr probe, Lower(expr->children[0], rel));
        std::vector<Value> candidates;
        for (size_t i = 1; i < expr->children.size(); ++i) {
          ACCORDION_ASSIGN_OR_RETURN(Value v,
                                     LiteralValue(expr->children[i],
                                                  probe->type()));
          if (v.type != probe->type()) {
            return Status::InvalidArgument(
                "IN list value '" + v.ToString() +
                "' does not match the probe type");
          }
          candidates.push_back(std::move(v));
        }
        return In(probe, std::move(candidates));
      }
      case SqlExpr::Kind::kBetween: {
        ACCORDION_ASSIGN_OR_RETURN(ExprPtr value, Lower(expr->children[0], rel));
        ACCORDION_ASSIGN_OR_RETURN(
            Value lo, LiteralValue(expr->children[1], value->type()));
        ACCORDION_ASSIGN_OR_RETURN(
            Value hi, LiteralValue(expr->children[2], value->type()));
        if (lo.type != value->type() || hi.type != value->type()) {
          return Status::InvalidArgument(
              "BETWEEN bounds do not match the value type");
        }
        return Between(value, std::move(lo), std::move(hi));
      }
      case SqlExpr::Kind::kCaseWhen: {
        // Branch values first: the CASE type comes from the first
        // non-NULL branch (ELSE included), and NULL branches — notably
        // the implicit ELSE NULL — borrow it.
        size_t n = expr->children.size();
        std::vector<ExprPtr> lowered(n);
        std::vector<size_t> val_slots;
        for (size_t i = 0; i + 1 < n; i += 2) val_slots.push_back(i + 1);
        val_slots.push_back(n - 1);
        DataType result_type = DataType::kInt64;
        bool have_type = false;
        for (size_t s : val_slots) {
          if (expr->children[s]->kind == SqlExpr::Kind::kNullLiteral) continue;
          ACCORDION_ASSIGN_OR_RETURN(lowered[s], Lower(expr->children[s], rel));
          if (!have_type) {
            result_type = lowered[s]->type();
            have_type = true;
          } else if (lowered[s]->type() != result_type) {
            return Status::InvalidArgument("CASE branches must share one type");
          }
        }
        if (!have_type) {
          return Status::InvalidArgument(
              "every CASE branch is NULL — the result type cannot be "
              "inferred");
        }
        for (size_t s : val_slots) {
          if (lowered[s] == nullptr) lowered[s] = Lit(Value::Null(result_type));
        }
        std::vector<std::pair<ExprPtr, ExprPtr>> branches;
        for (size_t i = 0; i + 1 < n; i += 2) {
          ACCORDION_ASSIGN_OR_RETURN(ExprPtr cond, Lower(expr->children[i], rel));
          if (cond->type() != DataType::kBool) {
            return Status::InvalidArgument("WHEN condition must be boolean");
          }
          branches.emplace_back(std::move(cond), std::move(lowered[i + 1]));
        }
        return CaseWhen(std::move(branches), lowered[n - 1]);
      }
      case SqlExpr::Kind::kExtractYear: {
        ACCORDION_ASSIGN_OR_RETURN(ExprPtr inner, Lower(expr->children[0], rel));
        if (inner->type() != DataType::kDate) {
          return Status::InvalidArgument("EXTRACT(YEAR) requires a date");
        }
        return ExtractYear(inner);
      }
      case SqlExpr::Kind::kBoundValue:
        return Lit(expr->bound_value);
      case SqlExpr::Kind::kPlaceholder:
        return Status::InvalidArgument(
            "unbound '?' parameter — prepare the statement and bind values");
      case SqlExpr::Kind::kIsNull: {
        if (expr->children[0]->kind == SqlExpr::Kind::kNullLiteral) {
          return Status::InvalidArgument(
              "IS [NOT] NULL needs a typed operand, not a NULL literal");
        }
        ACCORDION_ASSIGN_OR_RETURN(ExprPtr inner, Lower(expr->children[0], rel));
        return expr->text == "NOT" ? IsNotNull(inner) : IsNull(inner);
      }
      case SqlExpr::Kind::kNullLiteral:
        return Status::InvalidArgument(
            "NULL literal requires a typed context (a comparison operand, "
            "a CASE branch, or IS [NOT] NULL)");
      case SqlExpr::Kind::kExists:
      case SqlExpr::Kind::kScalarSubquery:
      case SqlExpr::Kind::kInSubquery:
        return Status::InvalidArgument(
            "subqueries are only supported as top-level WHERE conjuncts: "
            "[NOT] EXISTS (SELECT ...), <expr> <op> (SELECT <aggregate> "
            "...) or <expr> [NOT] IN (SELECT ...)");
      case SqlExpr::Kind::kAggregate:
        return Status::InvalidArgument(
            "aggregate not allowed here (nested aggregate or aggregate "
            "outside the select list / HAVING)");
    }
    return Status::Internal("unreachable");
  }

  /// Literal AST node -> Value, coerced to `target` for dates.
  Result<Value> LiteralValue(const SqlExprPtr& expr, DataType target) {
    switch (expr->kind) {
      case SqlExpr::Kind::kIntLiteral:
        if (target == DataType::kDouble) {
          return Value::Double(std::atof(expr->text.c_str()));
        }
        return Value::Int(std::atoll(expr->text.c_str()));
      case SqlExpr::Kind::kDecimalLiteral:
        return Value::Double(std::atof(expr->text.c_str()));
      case SqlExpr::Kind::kStringLiteral:
        if (target == DataType::kDate) return DateValue(expr->text);
        return Value::Str(expr->text);
      case SqlExpr::Kind::kDateLiteral:
        return DateValue(expr->text);
      case SqlExpr::Kind::kBoundValue: {
        Value v = expr->bound_value;
        if (target == DataType::kDouble && v.type == DataType::kInt64) {
          return Value::Double(static_cast<double>(v.i64));
        }
        if (target == DataType::kDate && v.type == DataType::kString) {
          return DateValue(v.str);
        }
        return v;
      }
      case SqlExpr::Kind::kPlaceholder:
        return Status::InvalidArgument(
            "unbound '?' parameter — prepare the statement and bind values");
      default:
        return Status::InvalidArgument("expected a literal");
    }
  }

  // ---- Aggregation, HAVING and the select list --------------------------

  static Status AggFuncOf(const SqlExprPtr& node, AggFunc* out) {
    if (node->text == "COUNT") *out = AggFunc::kCount;
    else if (node->text == "SUM") *out = AggFunc::kSum;
    else if (node->text == "MIN") *out = AggFunc::kMin;
    else if (node->text == "MAX") *out = AggFunc::kMax;
    else if (node->text == "AVG") *out = AggFunc::kAvg;
    else return Status::Internal("unknown aggregate " + node->text);
    return Status::OK();
  }

  static Status CheckAggInput(const SqlExprPtr& node, DataType input) {
    if ((node->text == "SUM" || node->text == "AVG") &&
        (input == DataType::kString || input == DataType::kBool)) {
      return Status::InvalidArgument(node->text +
                                     " requires a numeric argument");
    }
    return Status::OK();
  }

  struct GroupKey {
    SqlExprPtr expr;
    std::string name;  // output name (select alias, column, or _key<i>)
  };

  /// Resolves one GROUP BY item to the expression it groups on and the
  /// output column name: a bare identifier naming a select alias groups on
  /// that item's expression; any expression key borrows the alias of a
  /// structurally-equal select item when one exists.
  Result<GroupKey> ResolveGroupKey(const SqlExprPtr& key, size_t index) {
    if (ContainsAggregate(key)) {
      return Status::InvalidArgument("aggregates are not allowed in GROUP BY");
    }
    if (ContainsSubquery(key)) {
      return Status::InvalidArgument("subqueries are not allowed in GROUP BY");
    }
    {
      // A key without any column reference is a constant — most likely
      // the `GROUP BY 1` ordinal idiom, which this subset does not have.
      std::vector<SqlExprPtr> cols;
      CollectColumnNodes(key, &cols);
      if (cols.empty()) {
        return Status::InvalidArgument(
            "constant GROUP BY key (ordinals like GROUP BY 1 are not "
            "supported — name the column or select alias)");
      }
    }
    if (key->kind == SqlExpr::Kind::kColumn && key->qualifier.empty()) {
      std::string name = LowerStr(key->text);
      // Standard resolution order: an input column wins over a select
      // alias of the same name; aliases only catch names that are not
      // (unambiguous) columns.
      ResolvedColumn rc;
      if (!TryResolve(key, &rc)) {
        for (const auto& item : query_.select_items) {
          if (LowerStr(item.alias) != name) continue;
          if (ContainsAggregate(item.expr)) {
            return Status::InvalidArgument(
                "GROUP BY references select alias '" + name +
                "', which is an aggregate");
          }
          return GroupKey{item.expr, name};
        }
      }
      return GroupKey{key, name};
    }
    for (const auto& item : query_.select_items) {
      if (!item.alias.empty() && SqlExprEquals(item.expr, key)) {
        return GroupKey{key, LowerStr(item.alias)};
      }
    }
    // Internal, never user-visible ('#' is untypeable in an identifier).
    return GroupKey{key, "#key" + std::to_string(index)};
  }

  /// Rewrites a post-aggregation expression (select item or HAVING
  /// conjunct): subtrees equal to a group key become references to the
  /// key's output column, aggregate calls become references to their
  /// aggregate output. The rewritten tree lowers against the aggregation's
  /// output relation.
  SqlExprPtr RewritePostAgg(const SqlExprPtr& expr,
                            const std::vector<GroupKey>& keys,
                            const std::vector<SqlExprPtr>& agg_nodes) {
    for (const auto& k : keys) {
      if (SqlExprEquals(expr, k.expr)) return MakeColumnRef(k.name);
    }
    if (expr->kind == SqlExpr::Kind::kAggregate) {
      for (size_t a = 0; a < agg_nodes.size(); ++a) {
        if (SqlExprEquals(expr, agg_nodes[a])) {
          return MakeColumnRef("#agg" + std::to_string(a));
        }
      }
      return expr;  // unreachable: every aggregate was collected
    }
    if (expr->children.empty()) return expr;
    auto copy = std::make_shared<SqlExpr>(*expr);
    for (auto& child : copy->children) {
      child = RewritePostAgg(child, keys, agg_nodes);
    }
    return copy;
  }

  static void CollectAggregatesIn(const SqlExprPtr& expr,
                                  std::vector<SqlExprPtr>* out) {
    if (expr->kind == SqlExpr::Kind::kAggregate) {
      for (const auto& seen : *out) {
        if (SqlExprEquals(seen, expr)) return;
      }
      out->push_back(expr);
      return;
    }
    for (const auto& child : expr->children) CollectAggregatesIn(child, out);
  }

  Result<Rel> BuildProjectionAndAggregation(Rel rel) {
    if (query_.select_star) {
      return Status::InvalidArgument(
          "SELECT * is only supported inside EXISTS (list columns "
          "explicitly)");
    }
    bool has_agg = !query_.group_by.empty();
    for (const auto& item : query_.select_items) {
      has_agg |= ContainsAggregate(item.expr);
    }
    if (!query_.having.empty() && query_.group_by.empty()) {
      return Status::InvalidArgument("HAVING requires GROUP BY");
    }
    double input_est = rel.node != nullptr ? rel.node->estimated_rows() : -1;
    if (!has_agg) {
      // Plain projection.
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (size_t i = 0; i < query_.select_items.size(); ++i) {
        const auto& item = query_.select_items[i];
        if (ContainsSubquery(item.expr)) {
          return Status::InvalidArgument(
              "subqueries are not allowed in the select list");
        }
        ACCORDION_ASSIGN_OR_RETURN(ExprPtr e, Lower(item.expr, rel));
        exprs.push_back(std::move(e));
        names.push_back(OutputName(item, i));
      }
      return ApplyDistinct(PlanBuilder::AnnotateRows(
          builder_->Project(rel, std::move(exprs), std::move(names)),
          input_est));
    }

    // Group keys: plain columns, select aliases or expressions.
    std::vector<GroupKey> keys;
    for (size_t i = 0; i < query_.group_by.size(); ++i) {
      ACCORDION_ASSIGN_OR_RETURN(GroupKey key,
                                 ResolveGroupKey(query_.group_by[i], i));
      keys.push_back(std::move(key));
    }

    // Aggregate calls from the select list and HAVING, deduplicated
    // structurally (the same sum in both places is computed once).
    std::vector<SqlExprPtr> agg_nodes;
    for (const auto& item : query_.select_items) {
      CollectAggregatesIn(item.expr, &agg_nodes);
    }
    for (const auto& h : query_.having) CollectAggregatesIn(h, &agg_nodes);

    // Pre-aggregation projection: group-key expressions + one column per
    // aggregate input expression.
    std::vector<ExprPtr> pre_exprs;
    std::vector<std::string> pre_names;
    std::vector<std::string> group_names;
    for (const auto& k : keys) {
      ACCORDION_ASSIGN_OR_RETURN(ExprPtr e, Lower(k.expr, rel));
      pre_exprs.push_back(std::move(e));
      pre_names.push_back(k.name);
      group_names.push_back(k.name);
    }
    std::vector<PlanBuilder::AggSpec> specs;
    for (size_t a = 0; a < agg_nodes.size(); ++a) {
      const auto& node = agg_nodes[a];
      PlanBuilder::AggSpec spec;
      spec.output = "#agg" + std::to_string(a);  // reserved internal name
      ACCORDION_RETURN_NOT_OK(AggFuncOf(node, &spec.func));
      if (node->children.empty()) {
        spec.input = "";  // COUNT(*)
      } else {
        std::string input_name = "#in" + std::to_string(a);
        ACCORDION_ASSIGN_OR_RETURN(ExprPtr input,
                                   Lower(node->children[0], rel));
        ACCORDION_RETURN_NOT_OK(CheckAggInput(node, input->type()));
        pre_exprs.push_back(std::move(input));
        pre_names.push_back(input_name);
        spec.input = input_name;
      }
      specs.push_back(std::move(spec));
    }
    // No keys and only COUNT(*) aggregates would project zero columns and
    // lose the row counts; aggregate the input relation directly instead.
    Rel pre = pre_exprs.empty()
                  ? rel
                  : builder_->Project(rel, std::move(pre_exprs),
                                      std::move(pre_names));
    Rel agg = builder_->Aggregate(pre, group_names, specs);
    // Output-group estimate: the product of the key expressions' distinct
    // counts, capped by the input cardinality.
    double group_est = -1;
    if (input_est >= 0) {
      group_est = 1;
      ColumnStatsResolver resolver = ScopeStatsResolver();
      for (const auto& k : keys) {
        group_est *= EstimateExprNdv(k.expr, resolver, input_est);
      }
      group_est = std::max(1.0, std::min(group_est, input_est));
      agg = PlanBuilder::AnnotateRows(agg, group_est);
    }

    // HAVING filters over the aggregation output.
    for (const auto& h : query_.having) {
      if (ContainsSubquery(h)) {
        return Status::Unimplemented(
            "subqueries in HAVING (inline the threshold as a literal)");
      }
      SqlExprPtr rewritten = RewritePostAgg(h, keys, agg_nodes);
      ACCORDION_ASSIGN_OR_RETURN(ExprPtr pred, Lower(rewritten, agg));
      if (pred->type() != DataType::kBool) {
        return Status::InvalidArgument("HAVING predicate is not boolean");
      }
      agg = builder_->Filter(agg, pred);
    }

    // Post-aggregation projection: select items with group keys and
    // aggregates replaced by their output columns.
    std::vector<ExprPtr> post_exprs;
    std::vector<std::string> post_names;
    for (size_t i = 0; i < query_.select_items.size(); ++i) {
      const auto& item = query_.select_items[i];
      SqlExprPtr rewritten = RewritePostAgg(item.expr, keys, agg_nodes);
      ACCORDION_ASSIGN_OR_RETURN(ExprPtr e, Lower(rewritten, agg));
      post_exprs.push_back(std::move(e));
      post_names.push_back(OutputName(item, i));
    }
    return ApplyDistinct(PlanBuilder::AnnotateRows(
        builder_->Project(agg, std::move(post_exprs), std::move(post_names)),
        group_est));
  }

  /// SELECT DISTINCT: group the projected output by all of its columns
  /// with no aggregates. NULL forms its own group (SQL DISTINCT treats
  /// NULLs as duplicates of each other), which is exactly the engine's
  /// GROUP BY NULL semantics.
  Rel ApplyDistinct(Rel rel) {
    if (!query_.distinct) return rel;
    return builder_->Aggregate(rel, rel.names, {});
  }

  static std::string OutputName(const SqlSelectItem& item, size_t index) {
    if (!item.alias.empty()) return LowerStr(item.alias);
    if (item.expr->kind == SqlExpr::Kind::kColumn) {
      return LowerStr(item.expr->text);
    }
    return "_col" + std::to_string(index);
  }

  Status ApplyOrderByLimit(Rel* rel) {
    double input_est = rel->node != nullptr ? rel->node->estimated_rows() : -1;
    auto capped = [input_est](int64_t limit) {
      double l = static_cast<double>(limit);
      return input_est >= 0 ? std::min(input_est, l) : l;
    };
    if (query_.order_by.empty()) {
      if (query_.limit >= 0) {
        *rel = PlanBuilder::AnnotateRows(builder_->Limit(*rel, query_.limit),
                                         capped(query_.limit));
      }
      return Status::OK();
    }
    std::vector<PlanBuilder::OrderKey> keys;
    for (const auto& item : query_.order_by) {
      if (item.expr->kind != SqlExpr::Kind::kColumn) {
        return Status::Unimplemented("ORDER BY expressions (alias them)");
      }
      if (!item.expr->qualifier.empty()) {
        // Ordering operates on output columns; a bare qualified name
        // could silently bind to the wrong self-join side.
        return Status::InvalidArgument(
            "ORDER BY must reference an output column or select alias — "
            "alias '" + LowerStr(item.expr->qualifier) + "." +
            LowerStr(item.expr->text) + "' in the select list and order "
            "by the alias");
      }
      std::string name = LowerStr(item.expr->text);
      if (std::find(rel->names.begin(), rel->names.end(), name) ==
          rel->names.end()) {
        return Status::InvalidArgument(
            "unknown column '" + name +
            "' in ORDER BY (not an output column or select alias)");
      }
      keys.push_back(PlanBuilder::OrderKey{name, item.ascending});
    }
    int64_t limit = query_.limit >= 0 ? query_.limit : 1000000;
    *rel = PlanBuilder::AnnotateRows(builder_->OrderByLimit(*rel, keys, limit),
                                     capped(limit));
    return Status::OK();
  }

  const SqlQuery& query_;
  const Catalog& catalog_;
  PlanBuilder* builder_;
  const Analyzer* outer_;  // enclosing query scope (subqueries only)
  const OptimizerOptions options_;
  bool select_list_matters_;  // false inside EXISTS (list is ignored)
  std::vector<TableInfo> tables_;
  size_t num_inner_ = 0;  // tables_[0..num_inner_) are inner-joined
  bool has_right_or_full_ = false;  // any non-probe-preserving outer join
  std::vector<OuterJoinInfo> outer_infos_;
  std::map<std::string, int> alias_table_;
  std::map<std::string, std::vector<int>> column_tables_;
  std::vector<JoinPred> join_preds_;
  std::vector<SqlExprPtr> residual_;
  std::vector<bool> residual_applied_;  // consumed by eager pushdown
  bool eager_residuals_ = false;
  std::vector<PendingSubquery> subqueries_;
  std::set<std::string> extra_refs_;  // internal names pruning must keep
  int subquery_ordinal_ = 0;
  std::string report_;  // optimizer decision log
};

}  // namespace

Result<PlanNodePtr> AnalyzeSql(const SqlQuery& query, const Catalog& catalog,
                               const OptimizerOptions& options) {
  PlanBuilder builder(&catalog);
  return Analyzer(query, catalog, &builder, nullptr, options).Run();
}

Result<AnalyzedPlan> AnalyzeSqlWithReport(const SqlQuery& query,
                                          const Catalog& catalog,
                                          const OptimizerOptions& options) {
  PlanBuilder builder(&catalog);
  Analyzer analyzer(query, catalog, &builder, nullptr, options);
  ACCORDION_ASSIGN_OR_RETURN(PlanNodePtr plan, analyzer.Run());
  return AnalyzedPlan{std::move(plan), analyzer.report()};
}

Result<PlanNodePtr> SqlToPlan(const std::string& sql, const Catalog& catalog,
                              const OptimizerOptions& options) {
  ACCORDION_ASSIGN_OR_RETURN(SqlQuery query, ParseSqlQuery(sql));
  return AnalyzeSql(query, catalog, options);
}

}  // namespace accordion
