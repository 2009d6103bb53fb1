#include "exec/hash_table.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "common/logging.h"
#include "vector/hashing.h"

namespace accordion {
namespace {

bool IsFixedWidth(DataType type) { return type != DataType::kString; }

void AppendRaw64(std::string* out, const void* p) {
  out->append(reinterpret_cast<const char*>(p), 8);
}

/// Shared tail of the batched join probes: one sizing pass over the
/// resolved ids totals the CSR span lengths, both outputs grow exactly
/// once, then a fill pass writes match pairs through raw pointers.
void ExpandSpans(const int64_t* ids, int64_t n, const int64_t* span_offsets,
                 const int64_t* span_rows, std::vector<int32_t>* probe_rows,
                 std::vector<int64_t>* build_rows) {
  // The CSR arrays are randomly indexed by build id, so for out-of-cache
  // tables each pass is a cache-miss chain. The sizing pass prefetches the
  // offsets array ahead of itself and stages each id's span start/length;
  // the fill pass then never re-touches span_offsets, and the span_rows
  // lines it needs were requested a pass earlier.
  constexpr int64_t kDistance = 16;
  static thread_local std::vector<int64_t> starts;
  static thread_local std::vector<int64_t> lens;
  starts.resize(static_cast<size_t>(n));
  lens.resize(static_cast<size_t>(n));
  int64_t total = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (i + kDistance < n && ids[i + kDistance] >= 0) {
      __builtin_prefetch(&span_offsets[ids[i + kDistance]]);
    }
    const int64_t id = ids[i];
    if (id < 0) {
      lens[i] = 0;
      continue;
    }
    const int64_t start = span_offsets[id];
    const int64_t len = span_offsets[id + 1] - start;
    starts[i] = start;
    lens[i] = len;
    total += len;
    __builtin_prefetch(&span_rows[start]);
  }
  if (total == 0) return;
  const size_t base = probe_rows->size();
  probe_rows->resize(base + static_cast<size_t>(total));
  build_rows->resize(build_rows->size() + static_cast<size_t>(total));
  int32_t* pr = probe_rows->data() + base;
  int64_t* br = build_rows->data() + (build_rows->size() - total);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t len = lens[i];
    if (len == 0) continue;
    if (i + kDistance < n && lens[i + kDistance] != 0) {
      __builtin_prefetch(&span_rows[starts[i + kDistance]]);
    }
    const int64_t start = starts[i];
    for (int64_t j = 0; j < len; ++j) {
      *pr++ = static_cast<int32_t>(i);
      *br++ = span_rows[start + j];
    }
  }
}

// Slot arrays this large are mapped straight from the OS. glibc maps them
// too, but freeing a mapped block raises its dynamic mmap threshold to that
// block's size; later arrays of that size then come from the heap, and
// glibc keeps their memory after they are freed, which raises the peak RSS
// of a process that builds one large join table after another. Mapping
// here leaves the threshold alone and returns every large array to the OS
// when it is freed. Smaller arrays stay on operator new, where the
// sanitizers see them.
constexpr size_t kMappedSlotBytes = size_t{4} << 20;

}  // namespace

void* HashTable::AllocateSlots(size_t bytes) {
  if (bytes < kMappedSlotBytes) return ::operator new(bytes);
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void HashTable::FreeSlots(void* p, size_t bytes) {
  if (bytes < kMappedSlotBytes) {
    ::operator delete(p);
  } else {
    munmap(p, bytes);
  }
}

void HashTable::HashWords(const int64_t* words, int64_t n, uint64_t* hashes) {
  for (int64_t i = 0; i < n; ++i) {
    hashes[i] = Mix64(static_cast<uint64_t>(words[i]) ^ Page::kHashSeed);
  }
}

HashTable::HashTable(std::vector<DataType> key_types)
    : key_types_(std::move(key_types)),
      num_key_cols_(static_cast<int>(key_types_.size())) {
  fixed_width_ = true;
  for (DataType t : key_types_) fixed_width_ &= IsFixedWidth(t);
  word_mode_ = fixed_width_ && num_key_cols_ == 1;
  fixed_stride_ = word_mode_ ? 1 : num_key_cols_ + 1;
  slots_.assign(kInitialCapacity, Slot{});
  mask_ = kInitialCapacity - 1;
}

void HashTable::PrepareBatch(const std::vector<const Column*>& keys,
                             int64_t num_rows, Scratch* scratch) const {
  ACC_CHECK(static_cast<int>(keys.size()) == num_key_cols_)
      << "key column count mismatch";
  if (word_mode_) {
    // Single fixed-width key — the dominant TPC-H case. Integer-backed
    // columns are used in place as the packed key array; doubles pack
    // their bit patterns once. Hashing is fused into one pass with no
    // seed-initialization sweep, matching Column::HashInto bit-for-bit.
    scratch->valid_data =
        keys[0]->may_have_nulls() ? keys[0]->validity().data() : nullptr;
    if (keys[0]->type() != DataType::kDouble) {
      scratch->words_data = keys[0]->ints().data();
    } else {
      scratch->words.resize(static_cast<size_t>(num_rows));
      std::memcpy(scratch->words.data(), keys[0]->doubles().data(),
                  static_cast<size_t>(num_rows) * 8);
      scratch->words_data = scratch->words.data();
    }
    scratch->hashes.resize(static_cast<size_t>(num_rows));
    HashWords(scratch->words_data, num_rows, scratch->hashes.data());
    return;
  }

  scratch->hashes.assign(static_cast<size_t>(num_rows), Page::kHashSeed);
  for (const Column* col : keys) col->HashInto(&scratch->hashes);

  bool any_nullable = false;
  for (const Column* col : keys) any_nullable |= col->may_have_nulls();
  if (any_nullable) {
    scratch->row_valid.assign(static_cast<size_t>(num_rows), 1);
    scratch->valid_data = scratch->row_valid.data();
  } else {
    scratch->valid_data = nullptr;
  }

  if (fixed_width_) {
    // Pack key words row-major, fixed_stride_ per row: the key words, then
    // one null-mask word (bit c set = column c NULL; NULL payloads are the
    // column's canonical zero, so equal tuples stay memcmp-equal).
    scratch->words.resize(static_cast<size_t>(num_rows) * fixed_stride_);
    int64_t* words = scratch->words.data();
    for (int c = 0; c < num_key_cols_; ++c) {
      const Column& col = *keys[c];
      if (col.type() == DataType::kDouble) {
        const double* src = col.doubles().data();
        for (int64_t i = 0; i < num_rows; ++i) {
          std::memcpy(&words[i * fixed_stride_ + c], &src[i], 8);
        }
      } else {
        const int64_t* src = col.ints().data();
        for (int64_t i = 0; i < num_rows; ++i) {
          words[i * fixed_stride_ + c] = src[i];
        }
      }
    }
    for (int64_t i = 0; i < num_rows; ++i) {
      words[i * fixed_stride_ + num_key_cols_] = 0;
    }
    for (int c = 0; c < num_key_cols_; ++c) {
      if (!keys[c]->may_have_nulls()) continue;
      const uint8_t* valid = keys[c]->validity().data();
      for (int64_t i = 0; i < num_rows; ++i) {
        if (valid[i] == 0) {
          words[i * fixed_stride_ + num_key_cols_] |= int64_t{1} << c;
          // Canonicalize the payload so NULL tuples stay memcmp-equal even
          // if a source buffer carried a stale word under its null bit.
          words[i * fixed_stride_ + c] = 0;
          scratch->row_valid[i] = 0;
        }
      }
    }
    scratch->words_data = scratch->words.data();
    return;
  }

  // Serialized fallback: one pass per key column into a shared buffer.
  // Row-major layout requires per-row appends, so iterate rows outer but
  // reuse the single scratch buffer — no per-row string allocation.
  scratch->bytes.clear();
  scratch->offsets.resize(static_cast<size_t>(num_rows) + 1);
  for (int64_t i = 0; i < num_rows; ++i) {
    scratch->offsets[i] = static_cast<int64_t>(scratch->bytes.size());
    for (int c = 0; c < num_key_cols_; ++c) {
      const Column& col = *keys[c];
      // Validity prefix byte per value: distinguishes NULL from 0 and from
      // the empty string; a NULL writes no payload at all.
      if (col.IsNull(i)) {
        scratch->bytes.push_back('\0');
        scratch->row_valid[i] = 0;
        continue;
      }
      scratch->bytes.push_back('\1');
      switch (col.type()) {
        case DataType::kString: {
          const std::string& s = col.StrAt(i);
          uint32_t len = static_cast<uint32_t>(s.size());
          scratch->bytes.append(reinterpret_cast<const char*>(&len), 4);
          scratch->bytes.append(s);
          break;
        }
        case DataType::kDouble: {
          double d = col.DoubleAt(i);
          AppendRaw64(&scratch->bytes, &d);
          break;
        }
        default: {
          int64_t v = col.IntAt(i);
          AppendRaw64(&scratch->bytes, &v);
          break;
        }
      }
    }
  }
  scratch->offsets[num_rows] = static_cast<int64_t>(scratch->bytes.size());
}

bool HashTable::KeyEquals(int64_t id, const Scratch& scratch,
                          int64_t row) const {
  if (fixed_width_) {
    if (word_mode_) return fixed_keys_[id] == scratch.words_data[row];
    // Compares key words plus the trailing null-mask word in one sweep.
    // data() arithmetic: num_key_cols_ may be 0 (global aggregation).
    return std::memcmp(fixed_keys_.data() + id * fixed_stride_,
                       scratch.words_data + row * fixed_stride_,
                       static_cast<size_t>(fixed_stride_) * 8) == 0;
  }
  const auto& [offset, length] = spans_[id];
  int64_t row_len = scratch.offsets[row + 1] - scratch.offsets[row];
  return row_len == length &&
         std::memcmp(arena_.data() + offset,
                     scratch.bytes.data() + scratch.offsets[row],
                     static_cast<size_t>(length)) == 0;
}

void HashTable::InsertKey(const Scratch& scratch, int64_t row) {
  if (fixed_width_) {
    const int64_t* words = scratch.words_data + row * fixed_stride_;
    fixed_keys_.insert(fixed_keys_.end(), words, words + fixed_stride_);
    return;
  }
  int64_t offset = scratch.offsets[row];
  int64_t length = scratch.offsets[row + 1] - offset;
  spans_.emplace_back(static_cast<int64_t>(arena_.size()), length);
  arena_.append(scratch.bytes.data() + offset, static_cast<size_t>(length));
}

void HashTable::Reserve(int64_t expected_keys) {
  int64_t needed = kInitialCapacity;
  // Size so `expected_keys` stays under the 0.7 growth threshold.
  while (expected_keys * 10 > needed * 7) needed *= 2;
  if (needed <= static_cast<int64_t>(slots_.size())) return;
  ACC_CHECK(num_keys_ == 0) << "Reserve on a populated table";
  slots_.assign(static_cast<size_t>(needed), Slot{});
  mask_ = static_cast<uint64_t>(needed) - 1;
  if (fixed_width_) {
    fixed_keys_.reserve(static_cast<size_t>(expected_keys) * fixed_stride_);
  } else {
    spans_.reserve(static_cast<size_t>(expected_keys));
  }
}

void HashTable::Grow() {
  SlotArray old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kEmptyId) continue;
    // Word-mode slots store the key itself; recompute its hash to place it.
    uint64_t h = word_mode_ ? Mix64(s.tag ^ Page::kHashSeed) : s.tag;
    uint64_t pos = h & mask_;
    while (slots_[pos].id != kEmptyId) pos = (pos + 1) & mask_;
    slots_[pos] = s;
  }
}

// Hide the DRAM latency of random slot access behind the row loop: by the
// time row i is processed, its slot line was requested kPrefetchDistance
// iterations earlier.
constexpr int64_t kPrefetchDistance = 16;

void HashTable::LookupBatch(const Scratch& scratch, int64_t num_rows,
                            std::vector<int64_t>* ids) {
  ids->resize(static_cast<size_t>(num_rows));
  int64_t* out = ids->data();
  if (word_mode_) {
    // Single-word keys: the slot stores the key word, so both the
    // equality check and the miss-insert need no canonical-key access.
    // Members are used directly because Grow() may move the slot buffer.
    const int64_t* words = scratch.words_data;
    const uint64_t* hashes = scratch.hashes.data();
    const uint8_t* valid = scratch.valid_data;
    for (int64_t i = 0; i < num_rows; ++i) {
      if (i + kPrefetchDistance < num_rows) {
        __builtin_prefetch(&slots_[hashes[i + kPrefetchDistance] & mask_]);
      }
      if (valid != nullptr && valid[i] == 0) {
        // NULL key: one dedicated group id, outside the slot array (the
        // slot tag is the raw word and cannot encode "NULL" vs 0).
        if (null_group_id_ < 0) {
          null_group_id_ = num_keys_++;
          fixed_keys_.push_back(0);
        }
        out[i] = null_group_id_;
        continue;
      }
      if ((num_keys_ + 1) * 10 > static_cast<int64_t>(slots_.size()) * 7) {
        Grow();
      }
      const uint64_t w = static_cast<uint64_t>(words[i]);
      uint64_t pos = hashes[i] & mask_;
      while (true) {
        Slot& slot = slots_[pos];
        if (slot.id == kEmptyId) {
          slot.tag = w;
          slot.id = num_keys_++;
          fixed_keys_.push_back(words[i]);
          out[i] = slot.id;
          break;
        }
        if (slot.tag == w) {
          out[i] = slot.id;
          break;
        }
        pos = (pos + 1) & mask_;
      }
    }
    return;
  }
  for (int64_t i = 0; i < num_rows; ++i) {
    if (i + kPrefetchDistance < num_rows) {
      __builtin_prefetch(&slots_[scratch.hashes[i + kPrefetchDistance] & mask_]);
    }
    // Keep load below ~0.7 so linear probe chains stay short.
    if ((num_keys_ + 1) * 10 > static_cast<int64_t>(slots_.size()) * 7) {
      Grow();
    }
    uint64_t h = scratch.hashes[i];
    uint64_t pos = h & mask_;
    while (true) {
      Slot& slot = slots_[pos];
      if (slot.id == kEmptyId) {
        slot.tag = h;
        slot.id = num_keys_++;
        InsertKey(scratch, i);
        out[i] = slot.id;
        break;
      }
      if (slot.tag == h && KeyEquals(slot.id, scratch, i)) {
        out[i] = slot.id;
        break;
      }
      pos = (pos + 1) & mask_;
    }
  }
}

void HashTable::FindBatch(const Scratch& scratch, int64_t num_rows,
                          std::vector<int64_t>* ids) const {
  ids->resize(static_cast<size_t>(num_rows));
  int64_t* out = ids->data();
  if (word_mode_) {
    // Single-word keys: the slot comparison is the full equality check —
    // one random access per row, everything else in registers. The first
    // pass settles each row at its home slot without branching on the
    // outcome, which mispredicts often when hits and misses mix: an empty
    // slot's id is -1, so "tag == word ? id : -1" is exact for a hit and
    // for a miss ending there, whatever the key. Rows whose home slot holds
    // another key finish the linear probe in a second pass.
    const Slot* slots = slots_.data();
    const int64_t* words = scratch.words_data;
    const uint64_t* hashes = scratch.hashes.data();
    const uint64_t mask = mask_;
    static thread_local std::vector<int64_t> collided;
    collided.resize(static_cast<size_t>(num_rows));
    int64_t num_collided = 0;
    for (int64_t i = 0; i < num_rows; ++i) {
      if (i + kPrefetchDistance < num_rows) {
        __builtin_prefetch(&slots[hashes[i + kPrefetchDistance] & mask]);
      }
      const Slot& slot = slots[hashes[i] & mask];
      const int64_t id = slot.id;  // loaded up front so the select is a cmov
      const bool hit = slot.tag == static_cast<uint64_t>(words[i]);
      out[i] = hit ? id : kEmptyId;
      collided[num_collided] = i;
      num_collided += !hit & (id != kEmptyId);
    }
    for (int64_t k = 0; k < num_collided; ++k) {
      const int64_t i = collided[k];
      const uint64_t w = static_cast<uint64_t>(words[i]);
      uint64_t pos = hashes[i] & mask;
      int64_t found = -1;
      while (true) {
        pos = (pos + 1) & mask;
        const Slot& slot = slots[pos];
        if (slot.id == kEmptyId) break;
        if (slot.tag == w) {
          found = slot.id;
          break;
        }
      }
      out[i] = found;
    }
    if (const uint8_t* valid = scratch.valid_data) {
      // A NULL key finds the NULL group: -1 (miss) until one was inserted.
      for (int64_t i = 0; i < num_rows; ++i) {
        if (valid[i] == 0) out[i] = null_group_id_;
      }
    }
    return;
  }
  for (int64_t i = 0; i < num_rows; ++i) {
    if (i + kPrefetchDistance < num_rows) {
      __builtin_prefetch(&slots_[scratch.hashes[i + kPrefetchDistance] & mask_]);
    }
    uint64_t h = scratch.hashes[i];
    uint64_t pos = h & mask_;
    int64_t found = -1;
    while (true) {
      const Slot& slot = slots_[pos];
      if (slot.id == kEmptyId) break;
      if (slot.tag == h && KeyEquals(slot.id, scratch, i)) {
        found = slot.id;
        break;
      }
      pos = (pos + 1) & mask_;
    }
    out[i] = found;
  }
}

void HashTable::LookupOrInsert(const Page& page,
                               const std::vector<int>& channels,
                               std::vector<int64_t>* ids) {
  std::vector<const Column*> keys;
  keys.reserve(channels.size());
  for (int ch : channels) keys.push_back(&page.column(ch));
  LookupOrInsert(keys, page.num_rows(), ids);
}

void HashTable::LookupOrInsert(const std::vector<const Column*>& keys,
                               int64_t num_rows, std::vector<int64_t>* ids) {
  if (num_key_cols_ == 0) {
    // Keyless (global aggregation): every row is the single group 0; no
    // hashing or probing at all.
    if (num_rows > 0) num_keys_ = 1;
    ids->assign(static_cast<size_t>(num_rows), 0);
    return;
  }
  PrepareBatch(keys, num_rows, &scratch_);
  LookupBatch(scratch_, num_rows, ids);
}

void HashTable::Find(const Page& page, const std::vector<int>& channels,
                     std::vector<int64_t>* ids) const {
  if (num_key_cols_ == 0) {
    ids->assign(static_cast<size_t>(page.num_rows()), num_keys_ > 0 ? 0 : -1);
    return;
  }
  std::vector<const Column*> keys;
  keys.reserve(channels.size());
  for (int ch : channels) keys.push_back(&page.column(ch));
  // Thread-local: Find must be thread-safe across concurrent probe
  // drivers, and reusing the buffers avoids per-page allocations.
  static thread_local Scratch scratch;
  PrepareBatch(keys, page.num_rows(), &scratch);
  FindBatch(scratch, page.num_rows(), ids);
}

void HashTable::FindJoin(const Page& page, const std::vector<int>& channels,
                         const int64_t* span_offsets, const int64_t* span_rows,
                         std::vector<int32_t>* probe_rows,
                         std::vector<int64_t>* build_rows) const {
  const int64_t num_rows = page.num_rows();
  if (num_key_cols_ == 0) {
    // Degenerate cross-match on the single keyless group.
    if (num_keys_ == 0) return;
    for (int64_t i = 0; i < num_rows; ++i) {
      for (int64_t j = span_offsets[0]; j < span_offsets[1]; ++j) {
        probe_rows->push_back(static_cast<int32_t>(i));
        build_rows->push_back(span_rows[j]);
      }
    }
    return;
  }
  probe_rows->reserve(probe_rows->size() + static_cast<size_t>(num_rows));
  build_rows->reserve(build_rows->size() + static_cast<size_t>(num_rows));
  std::vector<const Column*> keys;
  keys.reserve(channels.size());
  for (int ch : channels) keys.push_back(&page.column(ch));
  static thread_local Scratch scratch;
  PrepareBatch(keys, num_rows, &scratch);
  const Slot* slots = slots_.data();
  const uint64_t* hashes = scratch.hashes.data();
  const uint64_t mask = mask_;
  const int64_t* words = scratch.words_data;
  const uint8_t* valid = scratch.valid_data;
  if (word_mode_) {
    for (int64_t i = 0; i < num_rows; ++i) {
      if (i + kPrefetchDistance < num_rows) {
        __builtin_prefetch(&slots[hashes[i + kPrefetchDistance] & mask]);
      }
      // SQL join equality: a NULL probe key matches nothing — not even an
      // inserted NULL-key group.
      if (valid != nullptr && valid[i] == 0) continue;
      const uint64_t w = static_cast<uint64_t>(words[i]);
      uint64_t pos = hashes[i] & mask;
      int64_t id = -1;
      while (true) {
        const Slot& slot = slots[pos];
        if (slot.id == kEmptyId) break;
        if (slot.tag == w) {
          id = slot.id;
          break;
        }
        pos = (pos + 1) & mask;
      }
      if (id < 0) continue;
      for (int64_t j = span_offsets[id]; j < span_offsets[id + 1]; ++j) {
        probe_rows->push_back(static_cast<int32_t>(i));
        build_rows->push_back(span_rows[j]);
      }
    }
    return;
  }
  for (int64_t i = 0; i < num_rows; ++i) {
    if (i + kPrefetchDistance < num_rows) {
      __builtin_prefetch(&slots[hashes[i + kPrefetchDistance] & mask]);
    }
    // SQL join equality: a tuple with any NULL key matches nothing, even
    // though the canonical encoding would find an identical NULL tuple.
    if (valid != nullptr && valid[i] == 0) continue;
    uint64_t h = hashes[i];
    uint64_t pos = h & mask;
    int64_t id = -1;
    while (true) {
      const Slot& slot = slots[pos];
      if (slot.id == kEmptyId) break;
      if (slot.tag == h && KeyEquals(slot.id, scratch, i)) {
        id = slot.id;
        break;
      }
      pos = (pos + 1) & mask;
    }
    if (id < 0) continue;
    for (int64_t j = span_offsets[id]; j < span_offsets[id + 1]; ++j) {
      probe_rows->push_back(static_cast<int32_t>(i));
      build_rows->push_back(span_rows[j]);
    }
  }
}

void HashTable::FindJoinBatch(const Page& page,
                              const std::vector<int>& channels,
                              const int64_t* span_offsets,
                              const int64_t* span_rows,
                              std::vector<int32_t>* probe_rows,
                              std::vector<int64_t>* build_rows) const {
  const int64_t num_rows = page.num_rows();
  if (num_key_cols_ == 0) {
    // Degenerate cross-match on the single keyless group.
    if (num_keys_ == 0) return;
    for (int64_t i = 0; i < num_rows; ++i) {
      for (int64_t j = span_offsets[0]; j < span_offsets[1]; ++j) {
        probe_rows->push_back(static_cast<int32_t>(i));
        build_rows->push_back(span_rows[j]);
      }
    }
    return;
  }
  if (num_rows == 0) return;
  std::vector<const Column*> keys;
  keys.reserve(channels.size());
  for (int ch : channels) keys.push_back(&page.column(ch));
  static thread_local Scratch scratch;
  static thread_local std::vector<int64_t> ids;
  PrepareBatch(keys, num_rows, &scratch);
  FindBatch(scratch, num_rows, &ids);
  if (scratch.valid_data != nullptr) {
    // FindBatch uses group equality (a NULL key finds the NULL group);
    // joins must treat those rows as misses.
    const uint8_t* valid = scratch.valid_data;
    for (int64_t i = 0; i < num_rows; ++i) {
      if (valid[i] == 0) ids[i] = -1;
    }
  }
  ExpandSpans(ids.data(), num_rows, span_offsets, span_rows, probe_rows,
              build_rows);
}

void HashTable::AppendKeys(int64_t begin, int64_t end,
                           std::vector<Column>* out) const {
  ACC_CHECK(static_cast<int>(out->size()) >= num_key_cols_)
      << "AppendKeys needs one output column per key";
  if (fixed_width_) {
    for (int c = 0; c < num_key_cols_; ++c) {
      Column& col = (*out)[c];
      col.Reserve(col.size() + (end - begin));
      for (int64_t id = begin; id < end; ++id) {
        if (word_mode_ ? id == null_group_id_
                       : (fixed_keys_[id * fixed_stride_ + num_key_cols_] &
                          (int64_t{1} << c)) != 0) {
          col.AppendNull();
          continue;
        }
        int64_t word = fixed_keys_[id * fixed_stride_ + c];
        if (key_types_[c] == DataType::kDouble) {
          double d;
          std::memcpy(&d, &word, 8);
          col.AppendDouble(d);
        } else {
          col.AppendInt(word);
        }
      }
    }
    return;
  }
  for (int64_t id = begin; id < end; ++id) {
    const char* p = arena_.data() + spans_[id].first;
    for (int c = 0; c < num_key_cols_; ++c) {
      Column& col = (*out)[c];
      if (*p++ == '\0') {
        col.AppendNull();
        continue;
      }
      switch (key_types_[c]) {
        case DataType::kString: {
          uint32_t len;
          std::memcpy(&len, p, 4);
          p += 4;
          col.AppendStr(std::string(p, len));
          p += len;
          break;
        }
        case DataType::kDouble: {
          double d;
          std::memcpy(&d, p, 8);
          p += 8;
          col.AppendDouble(d);
          break;
        }
        default: {
          int64_t v;
          std::memcpy(&v, p, 8);
          p += 8;
          col.AppendInt(v);
          break;
        }
      }
    }
  }
}

void HashTable::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  num_keys_ = 0;
  null_group_id_ = -1;
  fixed_keys_.clear();
  arena_.clear();
  spans_.clear();
}

int64_t HashTable::ByteSize() const {
  return static_cast<int64_t>(slots_.size() * sizeof(Slot) +
                              fixed_keys_.size() * 8 + arena_.size() +
                              spans_.size() * sizeof(spans_[0]));
}

}  // namespace accordion
