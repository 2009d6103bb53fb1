#ifndef ACCORDION_EXEC_RADIX_PARTITIONER_H_
#define ACCORDION_EXEC_RADIX_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "vector/page.h"

namespace accordion {

/// Radix partitioning machinery shared by the join build, grace spill and
/// the partitioned shuffle write path.
///
/// The join uses (the radix-partitioned in-memory build and the grace
/// spill fan-out): rows split into 2^bits partitions by the TOP `bits` of
/// each row hash, and each partition gets its own small HashTable. Slot
/// indices use the LOW bits of the same hash, so within a partition the
/// slot distribution stays uniform. Build and probe rows with equal keys
/// land in the same partition, so partitions join pairwise.
///
/// The shuffle use: consumer routing is `hash % count` (count is the
/// consumer count, not a power of two) — BuildModuloSelections keeps that
/// assignment bit-for-bit while the scatter itself goes through the same
/// selection-vector machinery.
class RadixPartitioner {
 public:
  /// Smallest number of radix bits (capped at `max_bits`) so that
  /// `expected_groups` distinct keys land at or under
  /// `target_per_partition` per partition.
  static int ChooseBits(int64_t expected_groups, int64_t target_per_partition,
                        int max_bits);

  explicit RadixPartitioner(int bits);

  int bits() const { return bits_; }
  int num_partitions() const { return 1 << bits_; }

  /// Partition of one 64-bit hash: its top `bits` bits.
  int PartitionOf(uint64_t hash) const {
    return static_cast<int>(hash >> shift_);
  }

  /// Splits a batch of row hashes into per-partition selection vectors.
  /// `selections` is resized to num_partitions(); inner vectors are
  /// cleared but keep capacity, so callers can reuse one scratch instance.
  void BuildSelections(const uint64_t* hashes, int64_t n,
                       std::vector<std::vector<int32_t>>* selections) const;

  /// Same, with the shuffle routing function `hash % num_partitions`
  /// (`num_partitions` need not be a power of two).
  static void BuildModuloSelections(
      const uint64_t* hashes, int64_t n, int num_partitions,
      std::vector<std::vector<int32_t>>* selections);

 private:
  int bits_;
  int shift_;  // 64 - bits
};

/// Gathers the rows of `selection` out of `page` into a new page,
/// coalescing runs of consecutive row indices into bulk AppendRange
/// copies (selection vectors from partitioning are ascending, so runs are
/// common when the partition count is small).
PagePtr GatherSelection(const Page& page, const std::vector<int32_t>& selection);

}  // namespace accordion

#endif  // ACCORDION_EXEC_RADIX_PARTITIONER_H_
