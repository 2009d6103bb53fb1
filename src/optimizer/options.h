#ifndef ACCORDION_OPTIMIZER_OPTIONS_H_
#define ACCORDION_OPTIMIZER_OPTIONS_H_

#include <cstdint>

namespace accordion {

/// How the SQL analyzer shapes the join tree.
enum class OptimizerMode {
  /// Cost-based planning from catalog statistics: join-order enumeration
  /// minimizing estimated intermediate cardinalities, build-side and
  /// broadcast selection by estimated size, residual-filter placement as
  /// soon as the referenced columns exist.
  kOn,
  /// Seeded randomized-but-legal rewrites (join-order permutations,
  /// build-side flips, broadcast and pushdown toggles) for the plan-space
  /// differential fuzzer. Every variant must produce the same rows.
  kFuzz,
};

/// Per-query optimizer knobs, carried inside QueryOptions. The
/// sub-switches apply to kOn; kFuzz randomizes them from `fuzz_seed`.
struct OptimizerOptions {
  OptimizerMode mode = OptimizerMode::kOn;

  /// Let the estimated-smaller side become the hash-join build side
  /// (off: the newly joined table always builds).
  bool build_side_selection = true;

  /// Builds whose estimated row count is at most this broadcast to every
  /// probe task instead of hash-partitioning both sides (<= 0: never).
  int64_t broadcast_row_limit = 2048;

  /// Seed for kFuzz rewrite decisions.
  uint64_t fuzz_seed = 0;

  static OptimizerOptions Fuzz(uint64_t seed) {
    OptimizerOptions o;
    o.mode = OptimizerMode::kFuzz;
    o.fuzz_seed = seed;
    return o;
  }
};

}  // namespace accordion

#endif  // ACCORDION_OPTIMIZER_OPTIONS_H_
