#ifndef ACCORDION_EXEC_HASH_TABLE_H_
#define ACCORDION_EXEC_HASH_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "vector/page.h"

namespace accordion {

/// Flat open-addressing hash table shared by hash aggregation and the join
/// bridge. It maps key tuples (one or more columns) to dense, first-seen
/// ids in [0, size()).
///
/// Design:
///   - One contiguous slot array `{hash, id}` with linear probing and
///     power-of-two capacity; the table grows 2x when it passes ~0.7 load.
///     Growth rehashes slots only — ids and canonical key storage are
///     stable, so consumers can index side arrays (accumulator states,
///     join chain heads) by id across resizes. A slot array of 4 MiB or
///     more is mapped straight from the OS and unmapped when freed
///     (SlotAllocator); smaller ones come from operator new.
///   - Fixed-width fast path: when every key column is 8-byte backed
///     (int64/date/bool/double), keys are packed as raw int64 words,
///     `num_key_columns` per id, in one contiguous vector. Equality is a
///     word compare; no per-row allocation anywhere.
///   - Serialized fallback: when any key column is a string, the key tuple
///     is length-prefix serialized into a shared byte arena and the table
///     stores (offset, length) spans. Batches serialize into one reused
///     scratch buffer — again no per-row allocation.
///   - Batch-at-a-time API: callers hash a whole page with Page::HashRows
///     (column-at-a-time), then resolve every row to an id in one pass.
///     `LookupOrInsert` assigns ids to unseen keys (aggregation, join
///     build); `Find` is const + thread-safe on the frozen table and
///     returns -1 for misses (join probe).
///
/// Key equality is canonical bit-pattern equality (doubles compare by
/// their bits, so NaN == NaN and +0.0 != -0.0). Group-by has always
/// behaved this way (the seed serialized key bytes); joins now match it
/// instead of IEEE value compare — acceptable for TPC-H's NaN-free key
/// columns, and it is what makes exact-match probing possible without
/// re-verifying candidates.
///
/// NULL keys are first-class *group* keys: a NULL key tuple equals itself
/// and gets its own dense id (SQL GROUP BY semantics — all NULLs form one
/// group, distinct from 0 and from ""). The encoding distinguishes NULL
/// from any payload: the multi-column fixed path appends a null-mask word
/// per key tuple, the serialized path prefixes every value with a
/// validity byte, and the single-word path routes NULLs to a dedicated
/// id outside the slot array. SQL join equality (NULL never matches
/// NULL) lives in the join probes: FindJoin/FindJoinBatch resolve any
/// probe row with a NULL key to -1 (miss) in every layout, so NULL-keyed
/// build rows keep their CSR spans but are simply never reached — which
/// is exactly what right/full outer joins need to emit them as unmatched.
///
/// The canonical key storage doubles as the group-by key columns:
/// AppendKeys re-materializes keys for an id range straight into output
/// columns, so aggregation no longer keeps a Value vector per group.
class HashTable {
 public:
  explicit HashTable(std::vector<DataType> key_types);

  /// Selects `types[ch]` for each channel — the key-type derivation
  /// shared by the aggregation and join consumers of this table.
  static std::vector<DataType> SelectKeyTypes(
      const std::vector<DataType>& types, const std::vector<int>& channels) {
    std::vector<DataType> out;
    out.reserve(channels.size());
    for (int ch : channels) out.push_back(types[ch]);
    return out;
  }

  int64_t size() const { return num_keys_; }
  bool empty() const { return num_keys_ == 0; }
  const std::vector<DataType>& key_types() const { return key_types_; }

  /// Pre-sizes the slot array for `expected_keys` distinct keys, skipping
  /// the doubling/rehash ladder (join build knows its row count up front).
  void Reserve(int64_t expected_keys);

  /// Resolves every row of `page` (keyed by `channels`) to a dense id,
  /// assigning the next id to each unseen key. `ids` is resized to
  /// page.num_rows(). Channels must match key_types() in order.
  void LookupOrInsert(const Page& page, const std::vector<int>& channels,
                      std::vector<int64_t>* ids);

  /// Same over raw columns (the join build side accumulates Columns, not
  /// Pages). `keys[k]` is the k-th key column; all must have `num_rows`.
  void LookupOrInsert(const std::vector<const Column*>& keys, int64_t num_rows,
                      std::vector<int64_t>* ids);

  /// Read-only batch probe: `(*ids)[row]` is the id of the matching key or
  /// -1. Thread-safe once the table is no longer being inserted into.
  void Find(const Page& page, const std::vector<int>& channels,
            std::vector<int64_t>* ids) const;

  /// Fused join probe: for every row of `page` whose key is present with
  /// id `id`, appends one (row, spans_rows[j]) pair per j in
  /// [span_offsets[id], span_offsets[id+1]). One pass — no intermediate
  /// id vector between the table lookup and the match expansion.
  /// Thread-safe like Find.
  void FindJoin(const Page& page, const std::vector<int>& channels,
                const int64_t* span_offsets, const int64_t* span_rows,
                std::vector<int32_t>* probe_rows,
                std::vector<int64_t>* build_rows) const;

  /// Batched join probe: resolves the whole page to ids first (the
  /// FindBatch pass Find uses, with NULL-key rows turned into misses),
  /// then sizes the output arrays once from the CSR span lengths and
  /// fills match pairs with raw stores — no per-row push_back capacity
  /// checks. Output and match order are identical to FindJoin.
  /// Thread-safe like Find.
  void FindJoinBatch(const Page& page, const std::vector<int>& channels,
                     const int64_t* span_offsets, const int64_t* span_rows,
                     std::vector<int32_t>* probe_rows,
                     std::vector<int64_t>* build_rows) const;

  /// Mix64(word ^ Page::kHashSeed) for a batch — bit-identical to
  /// Column::HashInto over one non-NULL fixed-width column.
  static void HashWords(const int64_t* words, int64_t n, uint64_t* hashes);

  /// Appends the canonical key values of ids [begin, end) to `out`:
  /// key column k is appended to (*out)[k]. Used to emit group-by keys
  /// columnar.
  void AppendKeys(int64_t begin, int64_t end, std::vector<Column>* out) const;

  /// Drops all keys but keeps slot capacity (partial-agg flush cycles).
  void Clear();

  /// Approximate heap footprint (slots + canonical keys), for accounting.
  int64_t ByteSize() const;

 private:
  struct Slot {
    /// Generic mode: the key's 64-bit hash. Single fixed-width-key mode
    /// (`word_mode_`): the key word itself, so a probe resolves with one
    /// slot access and no canonical-key load; the hash is recomputed from
    /// the word when the table grows.
    uint64_t tag = 0;
    int64_t id = kEmptyId;
  };
  static constexpr int64_t kEmptyId = -1;
  static constexpr int64_t kInitialCapacity = 1024;

  /// Allocator of the slot array: AllocateSlots maps an array of 4 MiB or
  /// more straight from the OS, and FreeSlots unmaps it.
  template <typename T>
  struct SlotAllocator {
    using value_type = T;
    SlotAllocator() = default;
    template <typename U>
    SlotAllocator(const SlotAllocator<U>&) {}
    T* allocate(size_t n) {
      return static_cast<T*>(AllocateSlots(n * sizeof(T)));
    }
    void deallocate(T* p, size_t n) { FreeSlots(p, n * sizeof(T)); }
    bool operator==(const SlotAllocator&) const = default;
  };
  static void* AllocateSlots(size_t bytes);
  static void FreeSlots(void* p, size_t bytes);
  using SlotArray = std::vector<Slot, SlotAllocator<Slot>>;

  // Reused per-batch scratch, bundled so the const Find path can stack-
  // allocate its own while LookupOrInsert reuses the member instance.
  struct Scratch {
    std::vector<uint64_t> hashes;
    std::vector<int64_t> words;    // fixed path: packed keys, row-major
    // Points at `words`, or straight at the key column's int64 buffer for
    // the dominant single-integer-key case (no packing pass at all).
    const int64_t* words_data = nullptr;
    // Per-row key-tuple validity (0 = at least one NULL key column), or
    // nullptr when all key columns are all-valid. Word mode aliases the
    // key column's own validity buffer; the other layouts fill row_valid
    // while packing. Only the join probes consult it — group lookups
    // treat NULL tuples as ordinary keys.
    const uint8_t* valid_data = nullptr;
    std::vector<uint8_t> row_valid;  // backing store for the above
    std::string bytes;             // fallback: serialized keys
    std::vector<int64_t> offsets;  // fallback: per-row offsets into bytes
  };

  void PrepareBatch(const std::vector<const Column*>& keys, int64_t num_rows,
                    Scratch* scratch) const;
  void LookupBatch(const Scratch& scratch, int64_t num_rows,
                   std::vector<int64_t>* ids);
  void FindBatch(const Scratch& scratch, int64_t num_rows,
                 std::vector<int64_t>* ids) const;
  bool KeyEquals(int64_t id, const Scratch& scratch, int64_t row) const;
  void InsertKey(const Scratch& scratch, int64_t row);
  void Grow();

  std::vector<DataType> key_types_;
  bool fixed_width_;  // all key columns 8-byte backed
  bool word_mode_;    // exactly one fixed-width key column
  int num_key_cols_;
  // Words per key tuple in fixed_keys_: num_key_cols_ in word mode, plus
  // one trailing null-mask word (bit c = key column c is NULL) otherwise.
  int fixed_stride_;
  // Word mode: dense id of the NULL-key group (-1 until a NULL key is
  // inserted). Lives outside the slot array — the slot tag is the raw key
  // word, which cannot distinguish NULL from a genuine 0.
  int64_t null_group_id_ = -1;

  SlotArray slots_;
  uint64_t mask_ = 0;  // capacity - 1; capacity == slots_.size()
  int64_t num_keys_ = 0;

  // Canonical key storage, indexed by id.
  std::vector<int64_t> fixed_keys_;           // fixed_stride_ words per id
  std::string arena_;                         // serialized fallback keys
  std::vector<std::pair<int64_t, int64_t>> spans_;  // (offset, length) per id

  Scratch scratch_;  // reused by the mutating LookupOrInsert path
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_HASH_TABLE_H_
