#include "exec/join_bridge.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/clock.h"
#include "common/logging.h"
#include "exec/task_context.h"

namespace accordion {

namespace {

const EngineConfig& ConfigOf(const TaskContext* ctx) {
  static const EngineConfig* kDefault = new EngineConfig();
  return ctx ? ctx->config() : *kDefault;
}

// Raw 64-bit key words of a fixed-width column: int-backed columns alias
// their buffer, doubles view their bit patterns (the same packing
// HashTable::PrepareBatch uses, so words hash and compare identically).
const int64_t* KeyWords(const Column& col, std::vector<int64_t>* storage) {
  if (col.type() != DataType::kDouble) return col.ints().data();
  const int64_t n = col.size();
  storage->resize(static_cast<size_t>(n));
  if (n > 0) std::memcpy(storage->data(), col.doubles().data(), n * 8);
  return storage->data();
}

// Builds the CSR match list (offsets/rows grouped by dense key id) from
// the per-row ids of a finished LookupOrInsert pass. `row_of(i)` maps the
// local row index to the row number stored in the list.
template <typename RowOf>
void BuildCsr(const std::vector<int64_t>& ids, int64_t num_keys,
              std::vector<int64_t>* offsets, std::vector<int64_t>* rows,
              RowOf row_of) {
  const int64_t n = static_cast<int64_t>(ids.size());
  offsets->assign(static_cast<size_t>(num_keys) + 1, 0);
  for (int64_t r = 0; r < n; ++r) ++(*offsets)[ids[r] + 1];
  for (int64_t k = 0; k < num_keys; ++k) (*offsets)[k + 1] += (*offsets)[k];
  rows->resize(static_cast<size_t>(n));
  std::vector<int64_t> cursor(offsets->begin(), offsets->end() - 1);
  for (int64_t r = 0; r < n; ++r) (*rows)[cursor[ids[r]]++] = row_of(r);
}

// All-NULL column of `n` rows (outer-join padding).
Column NullColumn(DataType type, int64_t n) {
  Column col(type);
  col.Reserve(n);
  for (int64_t i = 0; i < n; ++i) col.AppendNull();
  return col;
}

// True when any key channel of `page` is NULL at `row`.
bool RowHasNullKey(const Page& page, const std::vector<int>& keys,
                   int64_t row) {
  for (int ch : keys) {
    if (page.column(ch).IsNull(row)) return true;
  }
  return false;
}

}  // namespace

JoinBridge::JoinBridge(std::vector<DataType> build_types,
                       std::vector<int> build_keys, TaskContext* task_ctx,
                       JoinType join_type, std::vector<DataType> probe_types)
    : build_types_(std::move(build_types)),
      build_keys_(std::move(build_keys)),
      task_ctx_(task_ctx),
      join_type_(join_type),
      probe_types_(std::move(probe_types)) {
  data_.reserve(build_types_.size());
  for (DataType t : build_types_) data_.emplace_back(t);
}

JoinBridge::~JoinBridge() {
  // Return everything this bridge reported to the task accountant (index
  // memory, loaded drain chunks) so concurrent builds see real pressure.
  TrackBuildBytes(-tracked_bytes_);
}

int64_t JoinBridge::budget_bytes() const {
  return task_ctx_ ? task_ctx_->build_budget_bytes() : 0;
}

void JoinBridge::TrackBuildBytes(int64_t delta) {
  tracked_bytes_ += delta;
  if (task_ctx_ != nullptr) task_ctx_->AddBuildBytes(delta);
}

void JoinBridge::HashKeys(const std::vector<const Column*>& keys,
                          int64_t num_rows,
                          std::vector<uint64_t>* hashes) const {
  hashes->assign(static_cast<size_t>(num_rows), Page::kHashSeed);
  for (const Column* key : keys) key->HashInto(hashes);
}

void JoinBridge::NoteBuildNullKeys(const Page& page) {
  if (build_has_null_key_) return;
  for (int ch : build_keys_) {
    const Column& col = page.column(ch);
    if (!col.may_have_nulls()) continue;
    for (uint8_t v : col.validity()) {
      if (v == 0) {
        build_has_null_key_ = true;
        return;
      }
    }
  }
}

void JoinBridge::MarkBuildRows(const int64_t* rows, int64_t count) {
  std::atomic<uint64_t>* bits = build_matched_bits_.get();
  for (int64_t k = 0; k < count; ++k) {
    const uint64_t r = static_cast<uint64_t>(rows[k]);
    bits[r >> 6].fetch_or(uint64_t{1} << (r & 63), std::memory_order_relaxed);
  }
}

Status JoinBridge::WriteSpill(SpillFile* file, const Page& page) {
  const int64_t before = file->bytes_written();
  Status s = file->Append(page);
  if (task_ctx_ != nullptr) {
    task_ctx_->AddSpillBytesWritten(file->bytes_written() - before);
  }
  return s;
}

Status JoinBridge::AddBuildPage(const PagePtr& page) {
  ACC_CHECK(!built_.load()) << "build page after hash table finalized";
  std::lock_guard<std::mutex> lock(mutex_);
  total_build_rows_ += page->num_rows();
  NoteBuildNullKeys(*page);
  if (mode_ == Mode::kSpill) {
    if (!spill_status_.ok()) return spill_status_;
    std::vector<const Column*> keys;
    keys.reserve(build_keys_.size());
    for (int ch : build_keys_) keys.push_back(&page->column(ch));
    std::vector<uint64_t> hashes;
    HashKeys(keys, page->num_rows(), &hashes);
    std::vector<std::vector<int32_t>> selections;
    radix_->BuildSelections(hashes.data(), page->num_rows(), &selections);
    Status s = StageRowsLocked(&build_stages_, &build_files_, "build", *page,
                               selections);
    if (!s.ok()) spill_status_ = s;
    return s;
  }
  for (int c = 0; c < page->num_columns(); ++c) {
    data_[c].AppendRange(page->column(c), 0, page->num_rows());
  }
  TrackBuildBytes(page->ByteSize());
  const int64_t budget = budget_bytes();
  if (budget > 0 && tracked_bytes_ > budget) {
    Status s = StartSpillLocked();
    if (!s.ok()) {
      spill_status_ = s;
      return s;
    }
  }
  return Status::OK();
}

Status JoinBridge::StartSpillLocked() {
  const JoinConfig& jc = ConfigOf(task_ctx_).join;
  mode_ = Mode::kSpill;
  spilled_.store(true);
  radix_ = std::make_unique<RadixPartitioner>(jc.spill_partition_bits);
  const int64_t rows = data_.empty() ? 0 : data_[0].size();
  std::vector<const Column*> keys;
  keys.reserve(build_keys_.size());
  for (int ch : build_keys_) keys.push_back(&data_[ch]);
  std::vector<uint64_t> hashes;
  HashKeys(keys, rows, &hashes);
  std::vector<std::vector<int32_t>> selections;
  radix_->BuildSelections(hashes.data(), rows, &selections);
  // Scatter everything accumulated so far; from here on the build side is
  // pure grace — later pages go straight to partition files too.
  PagePtr accumulated = Page::Make(std::move(data_));
  data_.clear();
  Status s = StageRowsLocked(&build_stages_, &build_files_, "build",
                             *accumulated, selections);
  // The accumulated rows now live on disk (or in bounded staging buffers);
  // release their memory accounting.
  TrackBuildBytes(-tracked_bytes_);
  return s;
}

Status JoinBridge::StageRowsLocked(
    std::vector<Stage>* stages, std::vector<std::unique_ptr<SpillFile>>* files,
    const char* prefix, const Page& page,
    const std::vector<std::vector<int32_t>>& selections) {
  const MemoryConfig& mc = ConfigOf(task_ctx_).memory;
  const int num_parts = radix_->num_partitions();
  if (files->empty()) {
    files->reserve(num_parts);
    for (int p = 0; p < num_parts; ++p) {
      auto file = SpillFile::Create(mc.spill_dir, prefix, mc.spill_chunk_bytes);
      if (!file.ok()) return file.status();
      files->push_back(std::move(file).value());
    }
    if (task_ctx_ != nullptr) task_ctx_->AddSpillPartitions(num_parts);
  }
  if (stages->empty()) {
    stages->resize(num_parts);
    for (Stage& stage : *stages) {
      stage.cols.reserve(page.num_columns());
      for (int c = 0; c < page.num_columns(); ++c) {
        stage.cols.emplace_back(page.column(c).type());
      }
    }
  }
  const int64_t per_row =
      page.num_rows() > 0
          ? std::max<int64_t>(1, page.ByteSize() / page.num_rows())
          : 0;
  for (int p = 0; p < num_parts; ++p) {
    const std::vector<int32_t>& sel = selections[p];
    if (sel.empty()) continue;
    Stage& stage = (*stages)[p];
    for (int c = 0; c < page.num_columns(); ++c) {
      stage.cols[c].AppendGather(page.column(c), sel.data(),
                                 static_cast<int64_t>(sel.size()));
    }
    stage.bytes += per_row * static_cast<int64_t>(sel.size());
    if (stage.bytes >= mc.spill_chunk_bytes) {
      Status s = FlushStageLocked(&stage, (*files)[p].get());
      if (!s.ok()) return s;
    }
  }
  return Status::OK();
}

Status JoinBridge::FlushStageLocked(Stage* stage, SpillFile* file) {
  if (stage->cols.empty() || stage->cols[0].size() == 0) {
    stage->bytes = 0;
    return Status::OK();
  }
  std::vector<DataType> types;
  types.reserve(stage->cols.size());
  for (const Column& col : stage->cols) types.push_back(col.type());
  PagePtr page = Page::Make(std::move(stage->cols));
  stage->cols.clear();
  for (DataType t : types) stage->cols.emplace_back(t);
  stage->bytes = 0;
  return WriteSpill(file, *page);
}

bool JoinBridge::BuildDriverFinished() {
  int remaining = --build_drivers_;
  ACC_CHECK(remaining >= 0) << "build driver underflow";
  if (remaining > 0) return false;
  // Last driver finalizes the index; which index depends on how far the
  // build climbed the decision ladder (flat / radix / spilled).
  Stopwatch sw;
  Status status;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (mode_ == Mode::kSpill) {
      status = FinishSpillBuildLocked();
      if (!status.ok()) spill_status_ = status;
    } else {
      const JoinConfig& jc = ConfigOf(task_ctx_).join;
      const int64_t rows = data_.empty() ? 0 : data_[0].size();
      std::vector<DataType> key_types =
          HashTable::SelectKeyTypes(build_types_, build_keys_);
      const bool word_eligible =
          key_types.size() == 1 && key_types[0] != DataType::kString;
      if (word_eligible && jc.radix_min_build_rows > 0 &&
          rows >= jc.radix_min_build_rows) {
        mode_ = Mode::kRadix;
        BuildRadixIndexLocked();
      } else {
        BuildFlatIndexLocked();
      }
      if (needs_build_drain() && rows > 0) {
        const int64_t words = (rows + 63) / 64;
        build_matched_bits_.reset(new std::atomic<uint64_t>[words]);
        for (int64_t w = 0; w < words; ++w) {
          build_matched_bits_[w].store(0, std::memory_order_relaxed);
        }
        TrackBuildBytes(words * 8);
      }
    }
  }
  build_index_us_ = sw.ElapsedMicros();
  if (!status.ok() && task_ctx_ != nullptr) task_ctx_->ReportFailure(status);
  built_.store(true);
  built_waiters_.WakeAll();
  return true;
}

ParkState JoinBridge::ParkUntilBuilt(const Waiter& waiter) {
  built_waiters_.Add(waiter);
  return built() ? ParkState::kReady : ParkState::kParked;
}

void JoinBridge::BuildFlatIndexLocked() {
  const int64_t rows = data_.empty() ? 0 : data_[0].size();
  auto part = std::make_unique<PartitionIndex>(
      HashTable::SelectKeyTypes(build_types_, build_keys_));
  std::vector<const Column*> keys;
  keys.reserve(build_keys_.size());
  for (int key : build_keys_) keys.push_back(&data_[key]);
  std::vector<int64_t> ids;
  part->table.Reserve(rows);  // skip the doubling/rehash ladder
  part->table.LookupOrInsert(keys, rows, &ids);
  BuildCsr(ids, part->table.size(), &part->offsets, &part->rows,
           [](int64_t r) { return r; });
  TrackBuildBytes(part->table.ByteSize() +
                  static_cast<int64_t>(part->offsets.size() +
                                       part->rows.size()) *
                      8);
  partitions_.push_back(std::move(part));
}

void JoinBridge::BuildRadixIndexLocked() {
  const JoinConfig& jc = ConfigOf(task_ctx_).join;
  const Column& key_col = data_[build_keys_[0]];
  const int64_t rows = key_col.size();
  std::vector<uint64_t> hashes;
  HashKeys({&key_col}, rows, &hashes);
  int bits = RadixPartitioner::ChooseBits(rows, jc.radix_partition_rows,
                                          jc.radix_max_bits);
  bits = std::max(bits, 1);
  radix_ = std::make_unique<RadixPartitioner>(bits);
  std::vector<std::vector<int32_t>> selections;
  radix_->BuildSelections(hashes.data(), rows, &selections);
  const std::vector<DataType> key_types =
      HashTable::SelectKeyTypes(build_types_, build_keys_);
  int64_t index_bytes = 0;
  partitions_.reserve(radix_->num_partitions());
  std::vector<uint64_t> part_hashes;
  std::vector<int64_t> ids;
  for (int p = 0; p < radix_->num_partitions(); ++p) {
    const std::vector<int32_t>& sel = selections[p];
    const int64_t n = static_cast<int64_t>(sel.size());
    auto part = std::make_unique<PartitionIndex>(key_types);
    Column part_keys(key_types[0]);
    part_keys.AppendGather(key_col, sel.data(), n);
    part_hashes.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) part_hashes[i] = hashes[sel[i]];
    part->table.Reserve(n);
    part->table.LookupOrInsertHashed({&part_keys}, n, part_hashes.data(),
                                     &ids);
    // rows_ hold GLOBAL build row numbers so GatherBuild works unchanged.
    BuildCsr(ids, part->table.size(), &part->offsets, &part->rows,
             [&sel](int64_t r) { return static_cast<int64_t>(sel[r]); });
    index_bytes +=
        part->table.ByteSize() +
        static_cast<int64_t>(part->offsets.size() + part->rows.size()) * 8;
    partitions_.push_back(std::move(part));
  }
  TrackBuildBytes(index_bytes);
}

Status JoinBridge::FinishSpillBuildLocked() {
  if (!spill_status_.ok()) return spill_status_;
  for (size_t p = 0; p < build_files_.size(); ++p) {
    Status s = FlushStageLocked(&build_stages_[p], build_files_[p].get());
    if (!s.ok()) return s;
    s = build_files_[p]->FinishWrite();
    if (!s.ok()) return s;
  }
  build_stages_.clear();
  return Status::OK();
}

int64_t JoinBridge::build_rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_build_rows_;
}

int JoinBridge::num_partitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(partitions_.size());
}

Status JoinBridge::Probe(const Page& probe, const std::vector<int>& probe_keys,
                         std::vector<int32_t>* probe_rows,
                         std::vector<int64_t>* build_rows) {
  ACC_CHECK(built_.load()) << "probe before hash table built";
  // mode_ and the partition indexes are immutable once built_ is set, so
  // the flat/radix paths run lock-free and concurrently.
  const size_t pairs_before = build_rows->size();
  if (mode_ == Mode::kFlat) {
    const PartitionIndex& part = *partitions_[0];
    part.table.FindJoinBatch(probe, probe_keys, part.offsets.data(),
                             part.rows.data(), probe_rows, build_rows);
    if (build_matched_bits_ != nullptr) {
      MarkBuildRows(build_rows->data() + pairs_before,
                    static_cast<int64_t>(build_rows->size() - pairs_before));
    }
    return Status::OK();
  }
  if (mode_ == Mode::kRadix) {
    const int64_t n = probe.num_rows();
    if (n == 0) return Status::OK();
    const Column& key_col = probe.column(probe_keys[0]);
    thread_local std::vector<int64_t> word_storage;
    const int64_t* words = KeyWords(key_col, &word_storage);
    thread_local std::vector<uint64_t> hashes;
    hashes.resize(static_cast<size_t>(n));
    HashTable::HashWords(words, n, hashes.data());
    thread_local std::vector<std::vector<int32_t>> selections;
    radix_->BuildSelections(hashes.data(), n, &selections);
    if (key_col.may_have_nulls()) {
      // FindJoinHashed probes raw key words with no validity channel; a
      // NULL row's payload word could match a genuine key. NULL probe
      // keys match nothing, so drop them before the partition probes.
      const uint8_t* valid = key_col.validity().data();
      for (auto& sel : selections) {
        sel.erase(std::remove_if(
                      sel.begin(), sel.end(),
                      [valid](int32_t r) { return valid[r] == 0; }),
                  sel.end());
      }
    }
    thread_local std::vector<int64_t> part_words;
    thread_local std::vector<uint64_t> part_hashes;
    for (int p = 0; p < radix_->num_partitions(); ++p) {
      const std::vector<int32_t>& sel = selections[p];
      const int64_t np = static_cast<int64_t>(sel.size());
      if (np == 0) continue;
      part_words.resize(static_cast<size_t>(np));
      part_hashes.resize(static_cast<size_t>(np));
      for (int64_t i = 0; i < np; ++i) {
        part_words[i] = words[sel[i]];
        part_hashes[i] = hashes[sel[i]];
      }
      const PartitionIndex& part = *partitions_[p];
      part.table.FindJoinHashed(part_words.data(), part_hashes.data(), np,
                                part.offsets.data(), part.rows.data(),
                                sel.data(), probe_rows, build_rows);
    }
    if (build_matched_bits_ != nullptr) {
      MarkBuildRows(build_rows->data() + pairs_before,
                    static_cast<int64_t>(build_rows->size() - pairs_before));
    }
    return Status::OK();
  }
  // Spill mode: scatter the probe page to partition files; matches stream
  // later from NextSpilledPage.
  std::lock_guard<std::mutex> lock(mutex_);
  if (!spill_status_.ok()) return spill_status_;
  const int64_t n = probe.num_rows();
  if (n == 0) return Status::OK();
  std::vector<const Column*> keys;
  keys.reserve(probe_keys.size());
  for (int ch : probe_keys) keys.push_back(&probe.column(ch));
  std::vector<uint64_t> hashes;
  HashKeys(keys, n, &hashes);
  std::vector<std::vector<int32_t>> selections;
  radix_->BuildSelections(hashes.data(), n, &selections);
  Status s =
      StageRowsLocked(&probe_stages_, &probe_files_, "probe", probe, selections);
  if (!s.ok()) spill_status_ = s;
  return s;
}

Column JoinBridge::GatherBuild(int channel,
                               const std::vector<int64_t>& rows) const {
  return GatherBuild(channel, rows.data(), static_cast<int64_t>(rows.size()));
}

Column JoinBridge::GatherBuild(int channel, const int64_t* rows,
                               int64_t count) const {
  return data_[channel].Gather(rows, count);
}

Column JoinBridge::GatherBuildNullable(int channel, const int64_t* rows,
                                       int64_t count) const {
  return data_[channel].GatherNullable(rows, count);
}

bool JoinBridge::ProbeDriverFinished() {
  int remaining = --probe_drivers_;
  ACC_CHECK(remaining >= 0) << "probe driver underflow";
  if (remaining > 0) return false;
  // In-memory right/full joins still owe their unmatched build rows.
  if (!spilled_.load()) return needs_build_drain();
  // Last probe driver becomes the drainer: seal the probe files and queue
  // the level-0 partition pairs. Errors surface from NextSpilledPage.
  std::lock_guard<std::mutex> lock(mutex_);
  if (spill_status_.ok()) {
    for (size_t p = 0; p < probe_files_.size(); ++p) {
      Status s = FlushStageLocked(&probe_stages_[p], probe_files_[p].get());
      if (s.ok()) s = probe_files_[p]->FinishWrite();
      if (!s.ok()) {
        spill_status_ = s;
        break;
      }
    }
    probe_stages_.clear();
  }
  for (size_t p = 0; p < build_files_.size(); ++p) {
    SpillPair pair;
    pair.build = std::move(build_files_[p]);
    if (p < probe_files_.size()) pair.probe = std::move(probe_files_[p]);
    pair.depth = 0;
    drain_queue_.push_back(std::move(pair));
  }
  build_files_.clear();
  probe_files_.clear();
  return true;
}

PagePtr JoinBridge::NextUnmatchedBuildPage(
    const std::vector<int>& build_output_channels) {
  ACC_CHECK(!probe_types_.empty())
      << "right/full join bridge needs probe types for null padding";
  const int64_t total = data_.empty() ? 0 : data_[0].size();
  const int64_t chunk = ConfigOf(task_ctx_).batch_rows * 4;
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(chunk));
  const std::atomic<uint64_t>* bits = build_matched_bits_.get();
  while (unmatched_cursor_ < total &&
         static_cast<int64_t>(rows.size()) < chunk) {
    const uint64_t r = static_cast<uint64_t>(unmatched_cursor_++);
    if (bits != nullptr &&
        (bits[r >> 6].load(std::memory_order_relaxed) >> (r & 63)) & 1) {
      continue;
    }
    rows.push_back(static_cast<int64_t>(r));
  }
  if (rows.empty()) return nullptr;
  const int64_t n = static_cast<int64_t>(rows.size());
  std::vector<Column> cols;
  cols.reserve(probe_types_.size() + build_output_channels.size());
  for (DataType t : probe_types_) cols.push_back(NullColumn(t, n));
  for (int ch : build_output_channels) {
    cols.push_back(data_[ch].Gather(rows.data(), n));
  }
  return Page::Make(std::move(cols));
}

void JoinBridge::EmitFinalProbePage(
    const Page& page, const std::vector<uint8_t>& flags,
    const std::vector<int>& probe_keys,
    const std::vector<int>& build_output_channels) {
  const int64_t n = page.num_rows();
  switch (join_type_) {
    case JoinType::kInner:
    case JoinType::kRight:
      return;
    case JoinType::kLeft:
    case JoinType::kFull: {
      std::vector<int32_t> sel;
      for (int64_t r = 0; r < n; ++r) {
        if (flags[r] == 0) sel.push_back(static_cast<int32_t>(r));
      }
      if (sel.empty()) return;
      std::vector<Column> cols;
      cols.reserve(page.num_columns() + build_output_channels.size());
      for (int c = 0; c < page.num_columns(); ++c) {
        cols.push_back(page.column(c).Gather(sel));
      }
      const int64_t count = static_cast<int64_t>(sel.size());
      for (int ch : build_output_channels) {
        cols.push_back(NullColumn(build_types_[ch], count));
      }
      drain_ready_.push_back(Page::Make(std::move(cols)));
      return;
    }
    case JoinType::kLeftSemi:
    case JoinType::kLeftAnti:
    case JoinType::kNullAwareAnti: {
      // NOT IN against a build set with any NULL key compares to NULL for
      // every miss — nothing qualifies (the whole drain short-circuits).
      if (join_type_ == JoinType::kNullAwareAnti && build_has_null_key_) {
        return;
      }
      const bool want_matched = join_type_ == JoinType::kLeftSemi;
      std::vector<int32_t> sel;
      for (int64_t r = 0; r < n; ++r) {
        if ((flags[r] != 0) != want_matched) continue;
        if (join_type_ == JoinType::kNullAwareAnti &&
            RowHasNullKey(page, probe_keys, r)) {
          continue;  // NULL NOT IN (non-empty set) is NULL, not TRUE
        }
        sel.push_back(static_cast<int32_t>(r));
      }
      if (sel.empty()) return;
      drain_ready_.push_back(page.Select(sel));
      return;
    }
    case JoinType::kMark: {
      std::vector<Column> cols;
      cols.reserve(page.num_columns() + 1);
      for (int c = 0; c < page.num_columns(); ++c) {
        cols.push_back(Column(page.column(c)));
      }
      Column mark(DataType::kBool);
      mark.Reserve(n);
      for (int64_t r = 0; r < n; ++r) {
        if (flags[r] != 0) {
          mark.AppendInt(1);
        } else if (build_has_null_key_ ||
                   RowHasNullKey(page, probe_keys, r)) {
          mark.AppendNull();  // miss with a NULL on either side: unknown
        } else {
          mark.AppendInt(0);
        }
      }
      cols.push_back(std::move(mark));
      drain_ready_.push_back(Page::Make(std::move(cols)));
      return;
    }
  }
}

void JoinBridge::EmitUnmatchedChunkRows(
    const std::vector<int>& build_output_channels) {
  ACC_CHECK(!probe_types_.empty())
      << "right/full join bridge needs probe types for null padding";
  const int64_t rows = chunk_cols_.empty() ? 0 : chunk_cols_[0].size();
  const int64_t chunk = ConfigOf(task_ctx_).batch_rows * 4;
  std::vector<int64_t> sel;
  for (int64_t r = 0; r < rows; ++r) {
    if (chunk_matched_[r] != 0) continue;
    sel.push_back(r);
    if (static_cast<int64_t>(sel.size()) == chunk || r == rows - 1) {
      const int64_t n = static_cast<int64_t>(sel.size());
      std::vector<Column> cols;
      cols.reserve(probe_types_.size() + build_output_channels.size());
      for (DataType t : probe_types_) cols.push_back(NullColumn(t, n));
      for (int ch : build_output_channels) {
        cols.push_back(chunk_cols_[ch].Gather(sel.data(), n));
      }
      drain_ready_.push_back(Page::Make(std::move(cols)));
      sel.clear();
    }
  }
  if (!sel.empty()) {
    const int64_t n = static_cast<int64_t>(sel.size());
    std::vector<Column> cols;
    cols.reserve(probe_types_.size() + build_output_channels.size());
    for (DataType t : probe_types_) cols.push_back(NullColumn(t, n));
    for (int ch : build_output_channels) {
      cols.push_back(chunk_cols_[ch].Gather(sel.data(), n));
    }
    drain_ready_.push_back(Page::Make(std::move(cols)));
  }
}

PagePtr JoinBridge::StreamSidePage(
    const Page& page, bool build_side, const std::vector<int>& probe_keys,
    const std::vector<int>& build_output_channels) {
  const int64_t n = page.num_rows();
  if (build_side) {
    // Probe side of this partition empty: every build row is unmatched
    // (right/full only reach here).
    ACC_CHECK(!probe_types_.empty())
        << "right/full join bridge needs probe types for null padding";
    std::vector<Column> cols;
    cols.reserve(probe_types_.size() + build_output_channels.size());
    for (DataType t : probe_types_) cols.push_back(NullColumn(t, n));
    for (int ch : build_output_channels) {
      cols.push_back(Column(page.column(ch)));
    }
    return Page::Make(std::move(cols));
  }
  // Build side of this partition empty: every probe row is unmatched.
  std::vector<uint8_t> flags(static_cast<size_t>(n), 0);
  const size_t ready_before = drain_ready_.size();
  EmitFinalProbePage(page, flags, probe_keys, build_output_channels);
  if (drain_ready_.size() == ready_before) return nullptr;
  PagePtr out = std::move(drain_ready_.back());
  drain_ready_.pop_back();
  return out;
}

Result<PagePtr> JoinBridge::NextSpilledPage(
    const std::vector<int>& probe_keys,
    const std::vector<int>& build_output_channels) {
  if (!spilled_.load()) {
    // In-memory right/full drain: only the unmatched build rows remain.
    ACC_CHECK(needs_build_drain()) << "drain on an in-memory inner-side join";
    return NextUnmatchedBuildPage(build_output_channels);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!spill_status_.ok()) return spill_status_;
  }
  const JoinConfig& jc = ConfigOf(task_ctx_).join;
  while (true) {
    // 0. Serve variant pages produced while pair-joining.
    if (!drain_ready_.empty()) {
      PagePtr out = std::move(drain_ready_.front());
      drain_ready_.pop_front();
      return out;
    }
    // 1. Emit pending matches of the current probe page in bounded chunks.
    if (drain_probe_page_ != nullptr) {
      if (emit_offset_ < static_cast<int64_t>(match_probe_.size())) {
        return DrainEmit(*drain_probe_page_, build_output_channels);
      }
      drain_probe_page_ = nullptr;
    }
    // 2. Stream a single-sided partition pair (the other side empty).
    if (stream_active_) {
      SpillFile* src =
          stream_build_side_ ? stream_pair_.build.get() : stream_pair_.probe.get();
      Result<PagePtr> next = src->Next();
      if (!next.ok()) return next.status();
      PagePtr page = std::move(next).value();
      if (page == nullptr) {
        stream_active_ = false;
        stream_pair_ = SpillPair();
        continue;
      }
      PagePtr out = StreamSidePage(*page, stream_build_side_, probe_keys,
                                   build_output_channels);
      if (out == nullptr) continue;
      return out;
    }
    // 3. Advance within the active partition pair.
    if (drain_active_) {
      Result<PagePtr> next = drain_pair_.probe->Next();
      if (!next.ok()) return next.status();
      PagePtr page = std::move(next).value();
      if (page != nullptr) {
        const int64_t ordinal = probe_page_ordinal_++;
        match_probe_.clear();
        match_build_.clear();
        chunk_index_->table.FindJoinBatch(
            *page, probe_keys, chunk_index_->offsets.data(),
            chunk_index_->rows.data(), &match_probe_, &match_build_);
        if (tracks_probe_matches()) {
          if (ordinal >= static_cast<int64_t>(pair_probe_matched_.size())) {
            pair_probe_matched_.resize(static_cast<size_t>(ordinal) + 1);
          }
          std::vector<uint8_t>& flags = pair_probe_matched_[ordinal];
          if (flags.empty()) {
            flags.assign(static_cast<size_t>(page->num_rows()), 0);
          }
          for (int32_t r : match_probe_) flags[r] = 1;
          if (drain_build_exhausted_) {
            // Last build chunk: this page's accumulated flags are final.
            EmitFinalProbePage(*page, flags, probe_keys,
                               build_output_channels);
          }
        }
        if (needs_build_drain()) {
          for (int64_t b : match_build_) chunk_matched_[b] = 1;
        }
        if (emits_pairs() && !match_probe_.empty()) {
          drain_probe_page_ = std::move(page);
          emit_offset_ = 0;
        }
        continue;
      }
      // Probe stream exhausted for this chunk: the chunk's matched set is
      // complete, so right/full can emit its unmatched rows now.
      if (needs_build_drain()) {
        EmitUnmatchedChunkRows(build_output_channels);
      }
      if (!drain_build_exhausted_) {
        // More build chunks remain: rewind the probe file and join the
        // next chunk against the full probe stream (multi-pass fallback
        // for partitions that cannot recurse further).
        Status s = drain_pair_.probe->Rewind();
        if (!s.ok()) return s;
        probe_page_ordinal_ = 0;
        s = DrainLoadChunk();
        if (!s.ok()) return s;
        continue;
      }
      // Pair exhausted: release the chunk and unlink both files.
      TrackBuildBytes(-chunk_tracked_bytes_);
      chunk_tracked_bytes_ = 0;
      chunk_index_.reset();
      chunk_cols_.clear();
      drain_pair_ = SpillPair();
      drain_active_ = false;
      pair_probe_matched_.clear();
      probe_page_ordinal_ = 0;
      continue;
    }
    // 4. Open the next partition pair.
    if (drain_queue_.empty()) return PagePtr(nullptr);
    SpillPair pair = std::move(drain_queue_.front());
    drain_queue_.pop_front();
    const bool probe_empty =
        pair.probe == nullptr || pair.probe->pages_written() == 0;
    const bool build_empty = pair.build->pages_written() == 0;
    if (probe_empty && build_empty) continue;
    if (build_empty) {
      // Every probe row of this partition is unmatched; left/anti/mark
      // variants still owe output for them, the rest skip the pair.
      const bool emits_unmatched_probe =
          join_type_ == JoinType::kLeft || join_type_ == JoinType::kFull ||
          join_type_ == JoinType::kLeftAnti ||
          join_type_ == JoinType::kNullAwareAnti ||
          join_type_ == JoinType::kMark;
      if (!emits_unmatched_probe) continue;
      if (join_type_ == JoinType::kNullAwareAnti && build_has_null_key_) {
        continue;  // globally poisoned: no row qualifies anywhere
      }
      stream_pair_ = std::move(pair);
      stream_active_ = true;
      stream_build_side_ = false;
      continue;
    }
    if (probe_empty) {
      // Every build row of this partition is unmatched.
      if (!needs_build_drain()) continue;
      stream_pair_ = std::move(pair);
      stream_active_ = true;
      stream_build_side_ = true;
      continue;
    }
    const int64_t budget = budget_bytes();
    const bool can_recurse =
        pair.depth < jc.max_spill_recursion &&
        static_cast<int64_t>(radix_->bits()) * (pair.depth + 2) <= 60;
    if (budget > 0 && pair.build->bytes_written() > budget && can_recurse) {
      // Skewed partition: split both files by the next lower hash bits.
      Status s = DrainRepartition(std::move(pair), probe_keys);
      if (!s.ok()) return s;
      continue;
    }
    drain_pair_ = std::move(pair);
    drain_active_ = true;
    drain_build_exhausted_ = false;
    probe_page_ordinal_ = 0;
    pair_probe_matched_.clear();
    Status s = DrainLoadChunk();
    if (!s.ok()) return s;
  }
}

Status JoinBridge::DrainLoadChunk() {
  TrackBuildBytes(-chunk_tracked_bytes_);
  chunk_tracked_bytes_ = 0;
  chunk_cols_.clear();
  chunk_cols_.reserve(build_types_.size());
  for (DataType t : build_types_) chunk_cols_.emplace_back(t);
  const int64_t budget = budget_bytes();
  const int64_t limit =
      budget > 0 ? budget : std::numeric_limits<int64_t>::max();
  int64_t bytes = 0;
  while (bytes < limit) {
    Result<PagePtr> next = drain_pair_.build->Next();
    if (!next.ok()) return next.status();
    PagePtr page = std::move(next).value();
    if (page == nullptr) {
      drain_build_exhausted_ = true;
      break;
    }
    for (int c = 0; c < page->num_columns(); ++c) {
      chunk_cols_[c].AppendRange(page->column(c), 0, page->num_rows());
    }
    bytes += page->ByteSize();
  }
  const int64_t rows = chunk_cols_.empty() ? 0 : chunk_cols_[0].size();
  if (needs_build_drain()) chunk_matched_.assign(static_cast<size_t>(rows), 0);
  chunk_index_ = std::make_unique<PartitionIndex>(
      HashTable::SelectKeyTypes(build_types_, build_keys_));
  std::vector<const Column*> keys;
  keys.reserve(build_keys_.size());
  for (int key : build_keys_) keys.push_back(&chunk_cols_[key]);
  std::vector<int64_t> ids;
  chunk_index_->table.Reserve(rows);
  chunk_index_->table.LookupOrInsert(keys, rows, &ids);
  // rows_ here are chunk-local: DrainEmit gathers from chunk_cols_.
  BuildCsr(ids, chunk_index_->table.size(), &chunk_index_->offsets,
           &chunk_index_->rows, [](int64_t r) { return r; });
  chunk_tracked_bytes_ =
      bytes + chunk_index_->table.ByteSize() +
      static_cast<int64_t>(chunk_index_->offsets.size() +
                           chunk_index_->rows.size()) *
          8;
  TrackBuildBytes(chunk_tracked_bytes_);
  return Status::OK();
}

Status JoinBridge::DrainRepartition(SpillPair pair,
                                    const std::vector<int>& probe_keys) {
  const MemoryConfig& mc = ConfigOf(task_ctx_).memory;
  const int bits = radix_->bits();
  const int num_parts = 1 << bits;
  const int level = pair.depth + 1;
  // Level d uses hash bits [64 - bits*(d+1), 64 - bits*d): disjoint from
  // every ancestor level, so sub-partitions stay consistent with the
  // original scatter.
  const int shift = 64 - bits * (level + 1);
  std::vector<SpillPair> subs(static_cast<size_t>(num_parts));
  for (int p = 0; p < num_parts; ++p) {
    auto build = SpillFile::Create(mc.spill_dir, "build", mc.spill_chunk_bytes);
    if (!build.ok()) return build.status();
    auto probe = SpillFile::Create(mc.spill_dir, "probe", mc.spill_chunk_bytes);
    if (!probe.ok()) return probe.status();
    subs[p].build = std::move(build).value();
    subs[p].probe = std::move(probe).value();
    subs[p].depth = level;
  }
  if (task_ctx_ != nullptr) task_ctx_->AddSpillPartitions(num_parts);
  auto scatter = [&](SpillFile* src, const std::vector<int>& key_channels,
                     bool build_side) -> Status {
    std::vector<uint64_t> hashes;
    std::vector<std::vector<int32_t>> selections(
        static_cast<size_t>(num_parts));
    while (true) {
      Result<PagePtr> next = src->Next();
      if (!next.ok()) return next.status();
      PagePtr page = std::move(next).value();
      if (page == nullptr) break;
      std::vector<const Column*> keys;
      keys.reserve(key_channels.size());
      for (int ch : key_channels) keys.push_back(&page->column(ch));
      HashKeys(keys, page->num_rows(), &hashes);
      for (auto& sel : selections) sel.clear();
      for (int64_t i = 0; i < page->num_rows(); ++i) {
        selections[(hashes[i] >> shift) & (num_parts - 1)].push_back(
            static_cast<int32_t>(i));
      }
      for (int p = 0; p < num_parts; ++p) {
        if (selections[p].empty()) continue;
        PagePtr part_page = GatherSelection(*page, selections[p]);
        Status s = WriteSpill(
            build_side ? subs[p].build.get() : subs[p].probe.get(),
            *part_page);
        if (!s.ok()) return s;
      }
    }
    for (int p = 0; p < num_parts; ++p) {
      Status s = build_side ? subs[p].build->FinishWrite()
                            : subs[p].probe->FinishWrite();
      if (!s.ok()) return s;
    }
    return Status::OK();
  };
  Status s = scatter(pair.build.get(), build_keys_, /*build_side=*/true);
  if (!s.ok()) return s;
  s = scatter(pair.probe.get(), probe_keys, /*build_side=*/false);
  if (!s.ok()) return s;
  for (SpillPair& sub : subs) drain_queue_.push_back(std::move(sub));
  return Status::OK();
}

Result<PagePtr> JoinBridge::DrainEmit(
    const Page& probe_page, const std::vector<int>& build_output_channels) {
  const int64_t chunk = ConfigOf(task_ctx_).batch_rows * 4;
  const int64_t total = static_cast<int64_t>(match_probe_.size());
  const int64_t count = std::min(chunk, total - emit_offset_);
  std::vector<Column> cols;
  cols.reserve(probe_page.num_columns() + build_output_channels.size());
  for (int c = 0; c < probe_page.num_columns(); ++c) {
    cols.push_back(
        probe_page.column(c).Gather(match_probe_.data() + emit_offset_, count));
  }
  for (int ch : build_output_channels) {
    cols.push_back(
        chunk_cols_[ch].Gather(match_build_.data() + emit_offset_, count));
  }
  emit_offset_ += count;
  return Page::Make(std::move(cols));
}

}  // namespace accordion
