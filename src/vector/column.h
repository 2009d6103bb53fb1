#ifndef ACCORDION_VECTOR_COLUMN_H_
#define ACCORDION_VECTOR_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "vector/data_type.h"
#include "vector/value.h"

namespace accordion {

/// A typed contiguous vector of values — one column of a Page. Follows the
/// Arrow layout philosophy (columnar, batch-at-a-time) with *optional*
/// nullability: a column carries a validity buffer only once a NULL has
/// been appended. All-valid columns (the TPC-H hot path) keep an empty
/// validity vector, so kernels pay a single empty() check and the wire
/// format stays byte-identical to the NOT NULL era.
///
/// A NULL row keeps a deterministic zeroed payload (0 / 0.0 / "") in the
/// data buffer, so raw-buffer kernels that ignore validity still read
/// defined memory and produce deterministic (if NULL-oblivious) results.
///
/// Integer-backed types (int64/date/bool) share the int64 buffer, which
/// keeps the kernel switch small.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }

  int64_t size() const {
    return type_ == DataType::kString ? static_cast<int64_t>(strings_.size())
           : type_ == DataType::kDouble
               ? static_cast<int64_t>(doubles_.size())
               : static_cast<int64_t>(ints_.size());
  }

  /// Approximate memory footprint, used for buffer accounting and the
  /// simulated NIC transfer costs.
  int64_t ByteSize() const;

  // --- validity ---

  /// True when this column carries a validity buffer (i.e. *may* contain
  /// NULLs; every materialized NULL implies true, but a gather of only
  /// valid rows from a nullable source also keeps the buffer).
  bool may_have_nulls() const { return !validity_.empty(); }

  bool IsNull(int64_t i) const {
    return !validity_.empty() && validity_[i] == 0;
  }

  /// Byte-per-row validity buffer: 1 = valid, 0 = NULL. Empty = all valid.
  const std::vector<uint8_t>& validity() const { return validity_; }

  /// Appends a NULL row (zeroed payload, validity 0); materializes the
  /// validity buffer on first use.
  void AppendNull();

  /// Marks an existing row NULL without touching its payload.
  void SetNull(int64_t i);

  /// Materializes the validity buffer as all-valid (no-op if present).
  void EnsureValidity();

  // --- typed element access (no bounds checks on hot paths) ---
  int64_t IntAt(int64_t i) const { return ints_[i]; }
  double DoubleAt(int64_t i) const { return doubles_[i]; }
  const std::string& StrAt(int64_t i) const { return strings_[i]; }

  /// Numeric view of row i (doubles pass through, ints widen).
  double NumericAt(int64_t i) const {
    return type_ == DataType::kDouble ? doubles_[i]
                                      : static_cast<double>(ints_[i]);
  }

  Value ValueAt(int64_t i) const;

  // --- appends ---
  void AppendInt(int64_t v) {
    ints_.push_back(v);
    if (!validity_.empty()) validity_.push_back(1);
  }
  void AppendDouble(double v) {
    doubles_.push_back(v);
    if (!validity_.empty()) validity_.push_back(1);
  }
  void AppendStr(std::string v) {
    strings_.push_back(std::move(v));
    if (!validity_.empty()) validity_.push_back(1);
  }
  void AppendValue(const Value& v);

  /// Appends row `row` of `other` (same type) to this column.
  void AppendFrom(const Column& other, int64_t row);

  /// Bulk-appends rows [start, start + count) of `other` (same type) —
  /// one buffer insert instead of `count` element pushes.
  void AppendRange(const Column& other, int64_t start, int64_t count);

  /// Appends the rows of `other` selected by `rows` (in order): the
  /// gather-append used by selection-vector scatter (radix-partitioned
  /// join builds, partitioned shuffles). One resize, then a tight indexed
  /// copy — no per-element capacity checks.
  void AppendGather(const Column& other, const int32_t* rows, int64_t count);

  /// Direct buffer access for kernels.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  std::vector<int64_t>* mutable_ints() { return &ints_; }
  std::vector<double>* mutable_doubles() { return &doubles_; }
  std::vector<std::string>* mutable_strings() { return &strings_; }

  /// New column with the rows selected by `indices`, in order.
  Column Gather(const std::vector<int32_t>& indices) const;
  Column Gather(const int32_t* indices, int64_t count) const;
  /// Gather over 64-bit row ids (join build sides can exceed 2^31 rows).
  /// Indices must be in range; use GatherNullable for -1 sentinels.
  Column Gather(const int64_t* indices, int64_t count) const;

  /// Gather where a negative index produces a NULL row — the outer-join
  /// emission path (unmatched probe rows carry build id -1). Kept separate
  /// from Gather so the inner-join hot loop stays branch-free.
  Column GatherNullable(const int64_t* indices, int64_t count) const;

  /// Stable 64-bit hash of row i, mixed into `seed`. Used by partitioned
  /// shuffles and hash joins; must agree across workers. NULL hashes to a
  /// fixed sentinel mix (distinct from 0 / "" payloads), so all NULLs of a
  /// column land in one partition and one GROUP BY group.
  uint64_t HashAt(int64_t i, uint64_t seed) const;

  /// Batch form of HashAt: folds every row of this column into the
  /// running hashes, `(*hashes)[i] = HashAt(i, (*hashes)[i])`, with the
  /// type switch hoisted out of the row loop. `hashes` must hold size()
  /// entries.
  void HashInto(std::vector<uint64_t>* hashes) const;

  void Reserve(int64_t n);

  /// Drops all rows but keeps buffer capacity (partition-buffer reuse).
  void Clear();

 private:
  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  // 1 = valid, 0 = NULL; empty = all rows valid (the fast path).
  std::vector<uint8_t> validity_;
};

/// Columns inside a Page are shared immutably; ColumnPtr lets column-ref
/// expressions and Project hand out the same physical buffers with no copy.
using ColumnPtr = std::shared_ptr<const Column>;

}  // namespace accordion

#endif  // ACCORDION_VECTOR_COLUMN_H_
