#ifndef ACCORDION_OPTIMIZER_STATS_H_
#define ACCORDION_OPTIMIZER_STATS_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "vector/page.h"
#include "vector/value.h"

namespace accordion {

class PageSource;

/// KMV (k-minimum-values) distinct-count sketch: keeps the k smallest
/// distinct 64-bit hashes seen; with the hash space treated as [0, 2^64),
/// the k-th smallest value h_k estimates NDV as (k-1) * 2^64 / h_k.
/// Deterministic, mergeable in principle, and a few KiB of state — the
/// "HLL-style sketch" slot of the catalog statistics.
class NdvSketch {
 public:
  explicit NdvSketch(int k = 1024) : k_(k) {}

  void Add(uint64_t hash) {
    if (static_cast<int>(kept_.size()) < k_) {
      kept_.insert(hash);
      return;
    }
    auto largest = std::prev(kept_.end());
    if (hash >= *largest) return;
    if (kept_.insert(hash).second) kept_.erase(std::prev(kept_.end()));
  }

  /// Estimated number of distinct values added so far.
  int64_t Estimate() const;

  int64_t distinct_kept() const { return static_cast<int64_t>(kept_.size()); }

 private:
  int k_;
  std::set<uint64_t> kept_;  // the k smallest distinct hashes
};

// ColumnStats / TableStats live in catalog/catalog.h — the catalog owns
// them; this header adds the machinery that computes them.

/// Streaming statistics builder: feed every page of a table (or a sample
/// prefix), then Finish(). Used by the TPC-H catalog bootstrap.
class StatsCollector {
 public:
  explicit StatsCollector(const TableSchema& schema, int sketch_k = 1024);

  void AddPage(const Page& page);

  TableStats Finish() const;

  int64_t rows_seen() const { return rows_seen_; }

 private:
  TableSchema schema_;
  int64_t rows_seen_ = 0;
  std::vector<NdvSketch> sketches_;
  std::vector<bool> has_min_max_;
  std::vector<Value> mins_;
  std::vector<Value> maxs_;
};

/// Drains `source` (up to `sample_rows` rows; < 0 = all) through a
/// StatsCollector. When the sample is a prefix of a larger table pass the
/// true total as `actual_rows` and the stats are extrapolated: row counts
/// scale exactly, near-unique NDVs scale linearly, low-cardinality NDVs
/// saturate, min/max stay those of the sample.
TableStats CollectStats(const TableSchema& schema, PageSource* source,
                        int64_t sample_rows = -1, int64_t actual_rows = -1);

/// Extrapolates sample statistics to a table of `actual_rows` rows.
TableStats ExtrapolateStats(TableStats sample, int64_t actual_rows);

}  // namespace accordion

#endif  // ACCORDION_OPTIMIZER_STATS_H_
