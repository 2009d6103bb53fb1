#include "tests/reference_eval.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "common/logging.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

// --- relation <-> page helpers ---------------------------------------------

PagePtr ToPage(const RefRelation& rel) {
  std::vector<Column> cols;
  cols.reserve(rel.types.size());
  for (DataType t : rel.types) cols.emplace_back(t);
  for (const auto& row : rel.rows) {
    for (size_t c = 0; c < row.size(); ++c) cols[c].AppendValue(row[c]);
  }
  return Page::Make(std::move(cols));
}

std::vector<Value> RowOf(const Page& page, int64_t r) {
  std::vector<Value> row;
  row.reserve(page.num_columns());
  for (int c = 0; c < page.num_columns(); ++c) {
    row.push_back(page.column(c).ValueAt(r));
  }
  return row;
}

// --- plan walking -----------------------------------------------------------

/// Skips the transparent routing nodes between a final aggregation / TopN
/// and the operator that actually produces its input.
const PlanNode* SkipRouting(const PlanNode* node) {
  while (node->kind() == PlanNodeKind::kExchange ||
         node->kind() == PlanNodeKind::kLocalExchange ||
         node->kind() == PlanNodeKind::kShufflePassThrough) {
    node = node->children()[0].get();
  }
  return node;
}

struct ValueVecLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = CompareValues(a[i], b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  }
};

class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(double scale_factor, double null_rate = 0.0,
                              uint64_t null_seed = 0)
      : sf_(scale_factor), null_rate_(null_rate), null_seed_(null_seed) {}

  RefRelation Eval(const PlanNode& node) {
    switch (node.kind()) {
      case PlanNodeKind::kTableScan:
        return EvalScan(static_cast<const TableScanNode&>(node));
      case PlanNodeKind::kFilter:
        return EvalFilter(static_cast<const FilterNode&>(node));
      case PlanNodeKind::kProject:
        return EvalProject(static_cast<const ProjectNode&>(node));
      case PlanNodeKind::kHashJoin:
        return EvalJoin(static_cast<const HashJoinNode&>(node));
      case PlanNodeKind::kFinalAggregation:
        return EvalAggregate(static_cast<const FinalAggregationNode&>(node));
      case PlanNodeKind::kTopN:
        return EvalTopN(static_cast<const TopNNode&>(node));
      case PlanNodeKind::kLimit: {
        const auto& limit = static_cast<const LimitNode&>(node);
        RefRelation in = Eval(*node.children()[0]);
        if (static_cast<int64_t>(in.rows.size()) > limit.limit()) {
          in.rows.resize(limit.limit());
        }
        return in;
      }
      case PlanNodeKind::kValues: {
        const auto& values = static_cast<const ValuesNode&>(node);
        RefRelation out;
        out.types = values.output_types();
        for (const auto& page : values.pages()) {
          for (int64_t r = 0; r < page->num_rows(); ++r) {
            out.rows.push_back(RowOf(*page, r));
          }
        }
        return out;
      }
      // Routing-only nodes: single-threaded reference passes through.
      case PlanNodeKind::kExchange:
      case PlanNodeKind::kLocalExchange:
      case PlanNodeKind::kShufflePassThrough:
      case PlanNodeKind::kOutput:
        return Eval(*node.children()[0]);
      case PlanNodeKind::kPartialAggregation:
        // Always consumed via the matching FinalAggregation above it.
        ACC_CHECK(false) << "partial aggregation outside a final aggregation";
        return {};
      default:
        ACC_CHECK(false) << "reference evaluator: unsupported node "
                         << node.Describe();
        return {};
    }
  }

 private:
  RefRelation EvalScan(const TableScanNode& scan) {
    RefRelation out;
    out.types = scan.output_types();
    // Full-schema pages, then the scan's columns: the engine's projecting
    // data source is compared against full generation.
    for (const auto& page : GenerateSplit(scan.table(), sf_, 0, 1, 4096)) {
      // Same content-keyed nullification the engine's storage layer
      // applies under EngineConfig::null_injection_rate.
      PagePtr data = InjectNulls(page, null_rate_, null_seed_);
      for (int64_t r = 0; r < data->num_rows(); ++r) {
        std::vector<Value> row;
        row.reserve(scan.columns().size());
        for (int ch : scan.columns()) {
          row.push_back(data->column(ch).ValueAt(r));
        }
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }

  RefRelation EvalFilter(const FilterNode& filter) {
    RefRelation in = Eval(*filter.children()[0]);
    RefRelation out;
    out.types = in.types;
    if (in.rows.empty()) return out;
    // The predicate is evaluated through the expression tree (there is no
    // second independent expression interpreter), but row selection and
    // everything downstream stays scalar.
    PagePtr page = ToPage(in);
    Column pred = filter.predicate()->Eval(*page);
    for (size_t r = 0; r < in.rows.size(); ++r) {
      // 3VL: a NULL predicate does not pass the filter (only TRUE does).
      const int64_t i = static_cast<int64_t>(r);
      if (!pred.IsNull(i) && pred.IntAt(i) != 0) {
        out.rows.push_back(std::move(in.rows[r]));
      }
    }
    return out;
  }

  RefRelation EvalProject(const ProjectNode& project) {
    RefRelation in = Eval(*project.children()[0]);
    RefRelation out;
    out.types = project.output_types();
    if (in.rows.empty()) return out;
    PagePtr page = ToPage(in);
    std::vector<Column> cols;
    for (const auto& expr : project.exprs()) cols.push_back(expr->Eval(*page));
    out.rows.reserve(in.rows.size());
    for (size_t r = 0; r < in.rows.size(); ++r) {
      std::vector<Value> row;
      row.reserve(cols.size());
      for (const auto& col : cols) {
        row.push_back(col.ValueAt(static_cast<int64_t>(r)));
      }
      out.rows.push_back(std::move(row));
    }
    return out;
  }

  RefRelation EvalJoin(const HashJoinNode& join) {
    RefRelation probe = Eval(*join.probe());
    RefRelation build = Eval(*join.build());
    RefRelation out;
    out.types = join.output_types();
    const auto& pk = join.probe_keys();
    const auto& bk = join.build_keys();
    const auto& bout = join.build_output_channels();
    const JoinType jt = join.join_type();

    // SQL join equality: NULL = anything is NULL, which never matches —
    // CompareValues alone would treat NULL == NULL as equal (its GROUP BY
    // ordering semantics), so guard on is_null explicitly.
    auto keys_match = [&](const std::vector<Value>& prow,
                          const std::vector<Value>& brow) {
      for (size_t k = 0; k < pk.size(); ++k) {
        const Value& pv = prow[pk[k]];
        const Value& bv = brow[bk[k]];
        if (pv.is_null || bv.is_null) return false;
        if (CompareValues(pv, bv) != 0) return false;
      }
      return true;
    };
    auto probe_key_null = [&](const std::vector<Value>& prow) {
      for (int ch : pk) {
        if (prow[ch].is_null) return true;
      }
      return false;
    };
    bool build_has_null_key = false;
    for (const auto& brow : build.rows) {
      for (int ch : bk) build_has_null_key |= brow[ch].is_null;
    }

    auto pad_probe_row = [&](const std::vector<Value>& prow) {
      std::vector<Value> row = prow;
      for (int ch : bout) row.push_back(Value::Null(build.types[ch]));
      return row;
    };
    auto pad_build_row = [&](const std::vector<Value>& brow) {
      std::vector<Value> row;
      row.reserve(probe.types.size() + bout.size());
      for (DataType t : probe.types) row.push_back(Value::Null(t));
      for (int ch : bout) row.push_back(brow[ch]);
      return row;
    };

    // Nested loop, on purpose: every probe row scans every build row.
    std::vector<uint8_t> build_matched(build.rows.size(), 0);
    for (const auto& prow : probe.rows) {
      int64_t matches = 0;
      for (size_t b = 0; b < build.rows.size(); ++b) {
        const auto& brow = build.rows[b];
        if (!keys_match(prow, brow)) continue;
        ++matches;
        build_matched[b] = 1;
        if (JoinEmitsBuildColumns(jt)) {
          std::vector<Value> row = prow;
          for (int ch : bout) row.push_back(brow[ch]);
          out.rows.push_back(std::move(row));
        }
      }
      switch (jt) {
        case JoinType::kInner:
        case JoinType::kRight:
          break;
        case JoinType::kLeft:
        case JoinType::kFull:
          if (matches == 0) out.rows.push_back(pad_probe_row(prow));
          break;
        case JoinType::kLeftSemi:
          if (matches > 0) out.rows.push_back(prow);
          break;
        case JoinType::kLeftAnti:
          if (matches == 0) out.rows.push_back(prow);
          break;
        case JoinType::kNullAwareAnti:
          // NOT IN: an empty build set accepts everything (even NULL keys);
          // any NULL build key accepts nothing; otherwise a miss with
          // non-NULL probe keys qualifies.
          if (build.rows.empty()) {
            out.rows.push_back(prow);
          } else if (!build_has_null_key && matches == 0 &&
                     !probe_key_null(prow)) {
            out.rows.push_back(prow);
          }
          break;
        case JoinType::kMark: {
          std::vector<Value> row = prow;
          if (matches > 0) {
            row.push_back(Value::Bool(true));
          } else if (build.rows.empty()) {
            row.push_back(Value::Bool(false));
          } else if (build_has_null_key || probe_key_null(prow)) {
            row.push_back(Value::Null(DataType::kBool));
          } else {
            row.push_back(Value::Bool(false));
          }
          out.rows.push_back(std::move(row));
          break;
        }
      }
    }
    if (jt == JoinType::kRight || jt == JoinType::kFull) {
      for (size_t b = 0; b < build.rows.size(); ++b) {
        if (build_matched[b] == 0) {
          out.rows.push_back(pad_build_row(build.rows[b]));
        }
      }
    }
    return out;
  }

  /// Evaluates the two-phase pair in one shot: descends through the
  /// routing nodes to the PartialAggregation, takes ITS input (original
  /// channel layout) and aggregates with a std::map over key tuples.
  RefRelation EvalAggregate(const FinalAggregationNode& final_agg) {
    const PlanNode* below = SkipRouting(final_agg.children()[0].get());
    ACC_CHECK(below->kind() == PlanNodeKind::kPartialAggregation)
        << "final aggregation is not fed by a partial aggregation";
    RefRelation in = Eval(*below->children()[0]);

    const auto& group_by = final_agg.group_by();
    const auto& aggs = final_agg.aggregates();
    RefRelation out;
    out.types = final_agg.output_types();

    struct Acc {
      int64_t count = 0;
      int64_t seen = 0;  // non-NULL inputs folded into the sum
      int64_t isum = 0;
      double dsum = 0;
      Value extreme;
      bool has_extreme = false;
    };
    std::map<std::vector<Value>, std::vector<Acc>, ValueVecLess> groups;
    for (const auto& row : in.rows) {
      std::vector<Value> key;
      key.reserve(group_by.size());
      for (int ch : group_by) key.push_back(row[ch]);
      auto [it, inserted] = groups.try_emplace(std::move(key));
      if (inserted) it->second.resize(aggs.size());
      for (size_t a = 0; a < aggs.size(); ++a) {
        const Aggregate& agg = aggs[a];
        Acc& acc = it->second[a];
        // SQL aggregates skip NULL inputs (COUNT(*) counts rows).
        const Value* v =
            agg.input_channel >= 0 ? &row[agg.input_channel] : nullptr;
        if (v != nullptr && v->is_null) continue;
        switch (agg.func) {
          case AggFunc::kCount:
            acc.count += 1;
            break;
          case AggFunc::kSum: {
            if (agg.ResultType() == DataType::kInt64) {
              acc.isum += v->i64;
            } else {
              acc.dsum += v->AsDouble();
            }
            acc.seen += 1;
            break;
          }
          case AggFunc::kMin:
          case AggFunc::kMax: {
            bool better =
                !acc.has_extreme ||
                (agg.func == AggFunc::kMax ? CompareValues(*v, acc.extreme) > 0
                                           : CompareValues(*v, acc.extreme) < 0);
            if (better) {
              acc.extreme = *v;
              acc.has_extreme = true;
            }
            break;
          }
          case AggFunc::kAvg:
            acc.dsum += v->AsDouble();
            acc.count += 1;
            break;
        }
      }
    }

    if (groups.empty() && group_by.empty()) {
      // Zero-input global aggregation: the engine emits one default row.
      groups.try_emplace({}).first->second.resize(aggs.size());
    }

    for (const auto& [key, accs] : groups) {
      std::vector<Value> row = key;
      for (size_t a = 0; a < aggs.size(); ++a) {
        const Aggregate& agg = aggs[a];
        const Acc& acc = accs[a];
        switch (agg.func) {
          case AggFunc::kCount:
            row.push_back(Value::Int(acc.count));
            break;
          case AggFunc::kSum:
            // SUM over zero non-NULL inputs is NULL, not 0.
            if (acc.seen == 0) {
              row.push_back(Value::Null(agg.ResultType()));
            } else if (agg.ResultType() == DataType::kInt64) {
              row.push_back(Value::Int(acc.isum));
            } else {
              row.push_back(Value::Double(acc.dsum));
            }
            break;
          case AggFunc::kMin:
          case AggFunc::kMax:
            row.push_back(acc.has_extreme ? acc.extreme
                                          : Value::Null(agg.input_type));
            break;
          case AggFunc::kAvg:
            if (acc.count == 0) {
              row.push_back(Value::Null(DataType::kDouble));
            } else {
              row.push_back(
                  Value::Double(acc.dsum / static_cast<double>(acc.count)));
            }
            break;
        }
      }
      out.rows.push_back(std::move(row));
    }
    return out;
  }

  RefRelation EvalTopN(const TopNNode& topn) {
    if (topn.partial()) {
      // Partial TopN only prunes a superset; the reference defers all
      // ordering to the final instance.
      return Eval(*topn.children()[0]);
    }
    RefRelation in = Eval(*topn.children()[0]);
    const auto& keys = topn.keys();
    std::stable_sort(in.rows.begin(), in.rows.end(),
                     [&keys](const std::vector<Value>& a,
                             const std::vector<Value>& b) {
                       for (const auto& key : keys) {
                         int c = CompareValues(a[key.channel], b[key.channel]);
                         if (c != 0) return key.ascending ? c < 0 : c > 0;
                       }
                       return false;
                     });
    if (static_cast<int64_t>(in.rows.size()) > topn.limit()) {
      in.rows.resize(topn.limit());
    }
    return in;
  }

  double sf_;
  double null_rate_;
  uint64_t null_seed_;
};

// --- diffing ----------------------------------------------------------------

bool CellsClose(const Value& expected, const Value& actual, double rel_tol) {
  if (expected.is_null || actual.is_null) {
    return expected.is_null && actual.is_null;
  }
  if (expected.type == DataType::kString ||
      actual.type == DataType::kString) {
    return expected.type == actual.type && expected.str == actual.str;
  }
  if (expected.type == DataType::kDouble || actual.type == DataType::kDouble) {
    double e = expected.AsDouble();
    double a = actual.AsDouble();
    return std::abs(e - a) <=
           rel_tol * std::max({1.0, std::abs(e), std::abs(a)});
  }
  // Integer-backed kinds compare by payload (date/bool/int64 share i64).
  return expected.i64 == actual.i64;
}

std::string RenderRow(const std::vector<Value>& row) {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) os << ", ";
    os << row[i].ToString();
  }
  os << ")";
  return os.str();
}

}  // namespace

RefRelation ReferenceEvaluate(const PlanNodePtr& plan, double scale_factor,
                              double null_injection_rate,
                              uint64_t null_injection_seed) {
  ReferenceEvaluator evaluator(scale_factor, null_injection_rate,
                               null_injection_seed);
  return evaluator.Eval(*plan);
}

std::string DiffRows(const RefRelation& expected,
                     const std::vector<PagePtr>& actual_pages,
                     double rel_tol) {
  std::vector<std::vector<Value>> actual;
  for (const auto& page : actual_pages) {
    if (page == nullptr || page->IsEnd()) continue;
    for (int64_t r = 0; r < page->num_rows(); ++r) {
      actual.push_back(RowOf(*page, r));
    }
  }
  std::vector<std::vector<Value>> want = expected.rows;
  if (want.size() != actual.size()) {
    std::ostringstream os;
    os << "row count mismatch: reference " << want.size() << ", engine "
       << actual.size();
    return os.str();
  }
  for (const auto& row : actual) {
    if (!want.empty() && row.size() != want[0].size()) {
      return "column count mismatch";
    }
  }
  // Multiset comparison: sort both sides canonically. Key columns (the
  // non-double prefix of most result schemas) dominate the order, so tiny
  // double drift cannot re-pair rows with different keys.
  auto less = [](const std::vector<Value>& a, const std::vector<Value>& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      // Engine/reference may disagree on int-backed flavors; order by
      // payload, not type. NULLs sort first so both sides line up.
      const Value& x = a[i];
      const Value& y = b[i];
      if (x.is_null || y.is_null) {
        if (x.is_null != y.is_null) return x.is_null;
        continue;
      }
      if (x.type == DataType::kString || y.type == DataType::kString) {
        if (x.str != y.str) return x.str < y.str;
      } else if (x.type == DataType::kDouble || y.type == DataType::kDouble) {
        double dx = x.AsDouble(), dy = y.AsDouble();
        if (dx != dy) return dx < dy;
      } else if (x.i64 != y.i64) {
        return x.i64 < y.i64;
      }
    }
    return false;
  };
  std::sort(want.begin(), want.end(), less);
  std::sort(actual.begin(), actual.end(), less);
  for (size_t r = 0; r < want.size(); ++r) {
    for (size_t c = 0; c < want[r].size(); ++c) {
      if (!CellsClose(want[r][c], actual[r][c], rel_tol)) {
        std::ostringstream os;
        os << "row " << r << " column " << c
           << " mismatch:\n  reference: " << RenderRow(want[r])
           << "\n  engine:    " << RenderRow(actual[r]);
        return os.str();
      }
    }
  }
  return "";
}

}  // namespace accordion
