#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace accordion {
namespace {

// Textbook defaults when statistics cannot decide (System R's constants).
constexpr double kDefaultEq = 0.1;
constexpr double kDefaultRange = 1.0 / 3.0;
constexpr double kDefaultLike = 0.15;
constexpr double kDefaultOther = 0.25;
constexpr double kMinSelectivity = 1e-4;

double Clamp(double s) {
  return std::min(1.0, std::max(kMinSelectivity, s));
}

/// 'YYYY-MM-DD' text to a DATE Value; false when it is not a valid date.
bool DateOf(const std::string& text, Value* out) {
  const int64_t days = ParseDate(text);
  if (days == kInvalidDate) return false;
  *out = Value::Date(days);
  return true;
}

/// Literal (or bound parameter) to a Value coerced toward `target`;
/// false when the node is not a literal or not a valid date.
bool LiteralOf(const SqlExpr& expr, DataType target, Value* out) {
  switch (expr.kind) {
    case SqlExpr::Kind::kIntLiteral:
      *out = target == DataType::kDouble
                 ? Value::Double(std::atof(expr.text.c_str()))
                 : Value::Int(std::atoll(expr.text.c_str()));
      return true;
    case SqlExpr::Kind::kDecimalLiteral:
      *out = Value::Double(std::atof(expr.text.c_str()));
      return true;
    case SqlExpr::Kind::kStringLiteral:
      if (target == DataType::kDate) return DateOf(expr.text, out);
      *out = Value::Str(expr.text);
      return true;
    case SqlExpr::Kind::kDateLiteral:
      return DateOf(expr.text, out);
    case SqlExpr::Kind::kBoundValue: {
      Value v = expr.bound_value;
      if (target == DataType::kDate && v.type == DataType::kString) {
        return DateOf(v.str, out);
      }
      if (target == DataType::kDouble && v.type == DataType::kInt64) {
        v = Value::Double(static_cast<double>(v.i64));
      }
      *out = std::move(v);
      return true;
    }
    default:
      return false;
  }
}

/// Fraction of the [min, max] span at or below `v` (numeric view; strings
/// have no usable span and return the range default).
double RangeFractionBelow(const ColumnStats& stats, const Value& v) {
  if (!stats.has_min_max || stats.type == DataType::kString) {
    return kDefaultRange;
  }
  double lo = stats.min.AsDouble();
  double hi = stats.max.AsDouble();
  if (hi <= lo) return v.AsDouble() >= lo ? 1.0 : 0.0;
  double f = (v.AsDouble() - lo) / (hi - lo);
  return std::min(1.0, std::max(0.0, f));
}

double CompareSelectivity(const std::string& op, const ColumnStats* stats,
                          bool have_literal, const Value& literal) {
  if (stats == nullptr || !have_literal) {
    return op == "=" ? kDefaultEq
                     : (op == "<>" ? 1.0 - kDefaultEq : kDefaultRange);
  }
  if (op == "=") return 1.0 / stats->NdvOrOne();
  if (op == "<>") return 1.0 - 1.0 / stats->NdvOrOne();
  double below = RangeFractionBelow(*stats, literal);
  if (op == "<" || op == "<=") return below;
  return 1.0 - below;  // > and >=
}

}  // namespace

double EstimateSelectivity(const SqlExprPtr& predicate,
                           const ColumnStatsResolver& resolver) {
  const SqlExpr& e = *predicate;
  switch (e.kind) {
    case SqlExpr::Kind::kBinary: {
      if (e.text == "AND") {
        return Clamp(EstimateSelectivity(e.children[0], resolver) *
                     EstimateSelectivity(e.children[1], resolver));
      }
      if (e.text == "OR") {
        double a = EstimateSelectivity(e.children[0], resolver);
        double b = EstimateSelectivity(e.children[1], resolver);
        return Clamp(a + b - a * b);
      }
      bool is_cmp = e.text == "=" || e.text == "<>" || e.text == "<" ||
                    e.text == "<=" || e.text == ">" || e.text == ">=";
      if (!is_cmp) return kDefaultOther;  // arithmetic reached as predicate
      // Normalize to <column> op <literal>; mirror when the column is on
      // the right.
      for (int side = 0; side < 2; ++side) {
        const SqlExpr& col = *e.children[side];
        const SqlExpr& other = *e.children[1 - side];
        if (col.kind != SqlExpr::Kind::kColumn) continue;
        const ColumnStats* stats = resolver(col);
        std::string op = e.text;
        if (side == 1) {  // literal op column
          if (op == "<") op = ">";
          else if (op == "<=") op = ">=";
          else if (op == ">") op = "<";
          else if (op == ">=") op = "<=";
        }
        Value literal;
        bool have = LiteralOf(
            other, stats != nullptr ? stats->type : DataType::kInt64,
            &literal);
        if (!have && other.kind == SqlExpr::Kind::kColumn) {
          // column-vs-column comparison (e.g. l_commitdate < l_receiptdate)
          return op == "=" ? kDefaultEq : kDefaultRange;
        }
        return Clamp(CompareSelectivity(op, stats, have, literal));
      }
      return kDefaultOther;
    }
    case SqlExpr::Kind::kNot:
      return Clamp(1.0 - EstimateSelectivity(e.children[0], resolver));
    case SqlExpr::Kind::kBetween: {
      const SqlExpr& col = *e.children[0];
      const ColumnStats* stats =
          col.kind == SqlExpr::Kind::kColumn ? resolver(col) : nullptr;
      Value lo, hi;
      if (stats != nullptr && stats->has_min_max &&
          stats->type != DataType::kString &&
          LiteralOf(*e.children[1], stats->type, &lo) &&
          LiteralOf(*e.children[2], stats->type, &hi)) {
        double f = RangeFractionBelow(*stats, hi) -
                   RangeFractionBelow(*stats, lo);
        return Clamp(f);
      }
      return kDefaultRange * kDefaultRange * 4;  // narrower than one bound
    }
    case SqlExpr::Kind::kIn: {
      const SqlExpr& col = *e.children[0];
      double candidates = static_cast<double>(e.children.size() - 1);
      const ColumnStats* stats =
          col.kind == SqlExpr::Kind::kColumn ? resolver(col) : nullptr;
      if (stats != nullptr) return Clamp(candidates / stats->NdvOrOne());
      return Clamp(candidates * kDefaultEq);
    }
    case SqlExpr::Kind::kLike:
      return kDefaultLike;
    default:
      return kDefaultOther;
  }
}

double EstimateExprNdv(const SqlExprPtr& expr,
                       const ColumnStatsResolver& resolver,
                       double input_rows) {
  const SqlExpr& e = *expr;
  double fallback = std::max(1.0, std::sqrt(std::max(0.0, input_rows)));
  if (e.kind == SqlExpr::Kind::kColumn) {
    const ColumnStats* stats = resolver(e);
    if (stats != nullptr) {
      return std::max(1.0, std::min(stats->NdvOrOne(), input_rows));
    }
    return fallback;
  }
  if (e.kind == SqlExpr::Kind::kExtractYear &&
      e.children[0]->kind == SqlExpr::Kind::kColumn) {
    const ColumnStats* stats = resolver(*e.children[0]);
    if (stats != nullptr && stats->has_min_max &&
        stats->type == DataType::kDate) {
      // Distinct years spanned by [min, max].
      double days = stats->max.AsDouble() - stats->min.AsDouble();
      return std::max(1.0, days / 365.25 + 1.0);
    }
  }
  return fallback;
}

}  // namespace accordion
