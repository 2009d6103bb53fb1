#include "optimizer/join_order.h"

#include <algorithm>
#include <cmath>

namespace accordion {
namespace {

/// Deterministic seeded generator for kFuzz decisions (SplitMix64 —
/// identical across platforms, unlike std:: distributions).
class FuzzRng {
 public:
  explicit FuzzRng(uint64_t seed) : state_(seed + 0x9E3779B97F4A7C15ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  bool Coin() { return (Next() & 1) != 0; }

 private:
  uint64_t state_;
};

/// Estimated cardinality of the join of the tables in `mask`: product of
/// per-table rows discounted by 1/max(ndv) for every internal equi-join
/// edge (the classic containment-of-values assumption).
double SubsetCardinality(const JoinGraph& graph, uint32_t mask) {
  double card = 1;
  for (size_t t = 0; t < graph.tables.size(); ++t) {
    if (mask & (1u << t)) card *= std::max(1.0, graph.tables[t].rows);
  }
  for (const auto& e : graph.edges) {
    if ((mask & (1u << e.left)) == 0 || (mask & (1u << e.right)) == 0) {
      continue;
    }
    double lhs = std::max(
        1.0, std::min(e.left_ndv, std::max(1.0, graph.tables[e.left].rows)));
    double rhs = std::max(
        1.0,
        std::min(e.right_ndv, std::max(1.0, graph.tables[e.right].rows)));
    card /= std::max(lhs, rhs);
  }
  return std::max(card, 0.0);
}

bool Connected(const JoinGraph& graph, int table, uint32_t mask) {
  for (const auto& e : graph.edges) {
    if (e.left == table && (mask & (1u << e.right))) return true;
    if (e.right == table && (mask & (1u << e.left))) return true;
  }
  return false;
}

Status DisconnectedError() {
  return Status::InvalidArgument(
      "FROM tables are not connected by equi-join predicates "
      "(cross joins are outside the SQL subset)");
}

/// Textual order: start at table 0, repeatedly take the first FROM-order
/// table connected to the joined set.
Result<std::vector<int>> TextualOrder(const JoinGraph& graph) {
  int n = static_cast<int>(graph.tables.size());
  std::vector<int> order = {0};
  uint32_t mask = 1;
  while (static_cast<int>(order.size()) < n) {
    int next = -1;
    for (int t = 0; t < n && next < 0; ++t) {
      if ((mask & (1u << t)) == 0 && Connected(graph, t, mask)) next = t;
    }
    if (next < 0) return DisconnectedError();
    order.push_back(next);
    mask |= 1u << next;
  }
  return order;
}

/// Exhaustive left-deep DP over connected subsets, minimizing the sum of
/// estimated intermediate cardinalities. Singletons cost their scan
/// cardinality: the starting relation streams through the whole join
/// chain, so beginning from a heavily filtered table is rewarded even
/// when the subsequent subset cardinalities tie.
Result<std::vector<int>> BestOrder(const JoinGraph& graph) {
  int n = static_cast<int>(graph.tables.size());
  uint32_t full = (1u << n) - 1;
  constexpr double kUnset = -1;
  std::vector<double> cost(full + 1, kUnset);
  std::vector<int> last(full + 1, -1);
  for (int t = 0; t < n; ++t) {
    cost[1u << t] = SubsetCardinality(graph, 1u << t);
  }
  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (cost[mask] == kUnset) continue;
    for (int t = 0; t < n; ++t) {
      uint32_t bit = 1u << t;
      if ((mask & bit) != 0 || !Connected(graph, t, mask)) continue;
      uint32_t next = mask | bit;
      double step_cost = cost[mask] + SubsetCardinality(graph, next);
      if (cost[next] == kUnset || step_cost < cost[next]) {
        cost[next] = step_cost;
        last[next] = t;
      }
    }
  }
  if (cost[full] == kUnset) return DisconnectedError();
  std::vector<int> order;
  uint32_t mask = full;
  while (last[mask] >= 0) {
    order.push_back(last[mask]);
    mask &= ~(1u << last[mask]);
  }
  // One bit left: the starting table.
  for (int t = 0; t < n; ++t) {
    if (mask & (1u << t)) order.push_back(t);
  }
  std::reverse(order.begin(), order.end());
  return order;
}

/// Seeded random connected order.
Result<std::vector<int>> RandomOrder(const JoinGraph& graph, FuzzRng* rng) {
  int n = static_cast<int>(graph.tables.size());
  std::vector<int> order = {static_cast<int>(rng->Below(n))};
  uint32_t mask = 1u << order[0];
  while (static_cast<int>(order.size()) < n) {
    std::vector<int> candidates;
    for (int t = 0; t < n; ++t) {
      if ((mask & (1u << t)) == 0 && Connected(graph, t, mask)) {
        candidates.push_back(t);
      }
    }
    if (candidates.empty()) return DisconnectedError();
    int next = candidates[rng->Below(candidates.size())];
    order.push_back(next);
    mask |= 1u << next;
  }
  return order;
}

}  // namespace

Result<JoinPlan> PlanJoinOrder(const JoinGraph& graph,
                               const OptimizerOptions& options) {
  int n = static_cast<int>(graph.tables.size());
  if (n == 0) return Status::InvalidArgument("empty join graph");
  JoinPlan plan;
  if (n == 1) {
    plan.steps.push_back(
        JoinStep{0, false, false, std::max(1.0, graph.tables[0].rows)});
    return plan;
  }

  FuzzRng rng(options.fuzz_seed);
  bool fuzz = options.mode == OptimizerMode::kFuzz;
  std::vector<int> order;
  if (fuzz) {
    ACCORDION_ASSIGN_OR_RETURN(order, RandomOrder(graph, &rng));
  } else if (n <= 16) {
    ACCORDION_ASSIGN_OR_RETURN(order, BestOrder(graph));
  } else {
    ACCORDION_ASSIGN_OR_RETURN(order, TextualOrder(graph));
  }

  // Decorate the order with per-step estimates, build-side flips and
  // broadcast decisions.
  uint32_t mask = 1u << order[0];
  double accumulated = std::max(1.0, graph.tables[order[0]].rows);
  plan.steps.push_back(JoinStep{order[0], false, false, accumulated});
  plan.cost = accumulated;
  for (size_t i = 1; i < order.size(); ++i) {
    int t = order[i];
    mask |= 1u << t;
    JoinStep step;
    step.table = t;
    double table_rows = std::max(1.0, graph.tables[t].rows);
    if (fuzz) {
      step.flip = rng.Coin();
      step.broadcast = rng.Coin();
    } else {
      step.flip = options.build_side_selection && accumulated < table_rows;
      double build_rows = step.flip ? accumulated : table_rows;
      step.broadcast =
          options.broadcast_row_limit > 0 &&
          build_rows <= static_cast<double>(options.broadcast_row_limit);
    }
    accumulated = SubsetCardinality(graph, mask);
    step.est_rows = accumulated;
    plan.cost += accumulated;
    plan.steps.push_back(step);
  }
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    plan.reordered |= plan.steps[i].table != static_cast<int>(i);
  }
  return plan;
}

}  // namespace accordion
