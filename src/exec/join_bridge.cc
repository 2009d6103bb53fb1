#include "exec/join_bridge.h"

#include <algorithm>
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

// Builds the CSR match list (row numbers grouped by dense key id) from
// the per-row ids of a finished LookupOrInsert pass.
void BuildCsr(const std::vector<int64_t>& ids, int64_t num_keys,
              std::vector<int64_t>* offsets, std::vector<int64_t>* rows) {
  const int64_t n = static_cast<int64_t>(ids.size());
  offsets->assign(static_cast<size_t>(num_keys) + 1, 0);
  for (int64_t r = 0; r < n; ++r) ++(*offsets)[ids[r] + 1];
  for (int64_t k = 0; k < num_keys; ++k) (*offsets)[k + 1] += (*offsets)[k];
  rows->resize(static_cast<size_t>(n));
  std::vector<int64_t> cursor(offsets->begin(), offsets->end() - 1);
  for (int64_t r = 0; r < n; ++r) (*rows)[cursor[ids[r]]++] = r;
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

void JoinBridge::BuiltSide::Mark(const std::vector<int64_t>& rows) const {
  std::atomic<uint64_t>* bits = matched.get();
  if (bits == nullptr) return;
  for (int64_t row : rows) {
    const uint64_t r = static_cast<uint64_t>(row);
    bits[r >> 6].fetch_or(uint64_t{1} << (r & 63), std::memory_order_relaxed);
  }
}

bool JoinBridge::BuiltSide::Matched(int64_t row) const {
  const uint64_t r = static_cast<uint64_t>(row);
  return (matched[r >> 6].load(std::memory_order_relaxed) >> (r & 63)) & 1;
}

JoinBridge::JoinBridge(JoinType join_type, std::vector<DataType> build_types,
                       std::vector<int> build_keys,
                       std::vector<int> build_output_channels,
                       std::vector<DataType> probe_types,
                       std::vector<int> probe_keys, TaskContext* task_ctx)
    : join_type_(join_type),
      build_types_(std::move(build_types)),
      build_keys_(std::move(build_keys)),
      build_output_channels_(std::move(build_output_channels)),
      probe_types_(std::move(probe_types)),
      probe_keys_(std::move(probe_keys)),
      task_ctx_(task_ctx),
      emit_rows_(ConfigOf(task_ctx).batch_rows * 4),
      side_(NewSide()) {}

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
  if (spilled_.load()) {
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
    side_->cols[c].AppendRange(page->column(c), 0, page->num_rows());
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
  spilled_.store(true);
  radix_ = std::make_unique<RadixPartitioner>(kSpillPartitionBits);
  const int64_t rows = side_->num_rows();
  std::vector<const Column*> keys;
  keys.reserve(build_keys_.size());
  for (int ch : build_keys_) keys.push_back(&side_->cols[ch]);
  std::vector<uint64_t> hashes;
  HashKeys(keys, rows, &hashes);
  std::vector<std::vector<int32_t>> selections;
  radix_->BuildSelections(hashes.data(), rows, &selections);
  // Scatter everything accumulated so far; from here on the build side is
  // pure grace — later pages go straight to partition files too, and
  // side_ holds the drain's build chunks.
  PagePtr accumulated = Page::Make(std::move(side_->cols));
  side_.reset();
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
  // Last driver finalizes: the in-memory index, or the spill files.
  Stopwatch sw;
  Status status;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spilled_.load()) {
      status = FinishSpillBuildLocked();
      if (!status.ok()) spill_status_ = status;
    } else {
      TrackBuildBytes(IndexSide(side_.get()));
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

std::unique_ptr<JoinBridge::BuiltSide> JoinBridge::NewSide() const {
  auto side = std::make_unique<BuiltSide>(
      HashTable::SelectKeyTypes(build_types_, build_keys_));
  side->cols.reserve(build_types_.size());
  for (DataType t : build_types_) side->cols.emplace_back(t);
  return side;
}

int64_t JoinBridge::IndexSide(BuiltSide* side) const {
  const int64_t rows = side->num_rows();
  std::vector<const Column*> keys;
  keys.reserve(build_keys_.size());
  for (int key : build_keys_) keys.push_back(&side->cols[key]);
  std::vector<int64_t> ids;
  side->table.Reserve(rows);  // skip the doubling/rehash ladder
  side->table.LookupOrInsert(keys, rows, &ids);
  BuildCsr(ids, side->table.size(), &side->offsets, &side->rows);
  int64_t bytes = side->table.ByteSize() +
                  static_cast<int64_t>(side->offsets.size() +
                                       side->rows.size()) *
                      8;
  if (JoinEmitsUnmatchedBuild(join_type_) && rows > 0) {
    const int64_t words = (rows + 63) / 64;
    side->matched.reset(new std::atomic<uint64_t>[words]);
    for (int64_t w = 0; w < words; ++w) {
      side->matched[w].store(0, std::memory_order_relaxed);
    }
    bytes += words * 8;
  }
  return bytes;
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

Status JoinBridge::Probe(const PagePtr& page, ProbeScratch* scratch,
                         std::deque<PagePtr>* out) {
  ACC_CHECK(built_.load()) << "probe before hash table built";
  // The in-memory index is immutable once built_ is set, so the probe
  // runs lock-free and concurrently.
  if (!spilled_.load()) {
    scratch->probe_rows.clear();
    scratch->build_rows.clear();
    side_->table.FindJoinBatch(*page, probe_keys_, side_->offsets.data(),
                               side_->rows.data(), &scratch->probe_rows,
                               &scratch->build_rows);
    side_->Mark(scratch->build_rows);
    if (JoinEmitsBuildColumns(join_type_)) {
      const int64_t pairs = static_cast<int64_t>(scratch->probe_rows.size());
      for (int64_t off = 0; off < pairs;) {
        out->push_back(EmitPairs(*page, *side_, scratch->probe_rows,
                                 scratch->build_rows, &off));
      }
    }
    if (tracks_probe_matches()) {
      scratch->matched.assign(static_cast<size_t>(page->num_rows()), 0);
      for (int32_t r : scratch->probe_rows) scratch->matched[r] = 1;
      PagePtr rows = EmitProbeRows(page, scratch->matched.data());
      if (rows != nullptr) out->push_back(std::move(rows));
    }
    return Status::OK();
  }
  // Spill mode: scatter the probe page to partition files; its output
  // streams later from NextSpilledPage.
  std::lock_guard<std::mutex> lock(mutex_);
  if (!spill_status_.ok()) return spill_status_;
  const int64_t n = page->num_rows();
  if (n == 0) return Status::OK();
  std::vector<const Column*> keys;
  keys.reserve(probe_keys_.size());
  for (int ch : probe_keys_) keys.push_back(&page->column(ch));
  std::vector<uint64_t> hashes;
  HashKeys(keys, n, &hashes);
  std::vector<std::vector<int32_t>> selections;
  radix_->BuildSelections(hashes.data(), n, &selections);
  Status s = StageRowsLocked(&probe_stages_, &probe_files_, "probe", *page,
                             selections);
  if (!s.ok()) spill_status_ = s;
  return s;
}

bool JoinBridge::ProbeDriverFinished() {
  int remaining = --probe_drivers_;
  ACC_CHECK(remaining >= 0) << "probe driver underflow";
  if (remaining > 0) return false;
  // In-memory right/full joins still owe their unmatched build rows.
  if (!spilled_.load()) return JoinEmitsUnmatchedBuild(join_type_);
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

PagePtr JoinBridge::EmitPairs(const Page& probe, const BuiltSide& side,
                              const std::vector<int32_t>& probe_rows,
                              const std::vector<int64_t>& build_rows,
                              int64_t* offset) const {
  const int64_t off = *offset;
  const int64_t count =
      std::min(emit_rows_, static_cast<int64_t>(probe_rows.size()) - off);
  std::vector<Column> cols;
  cols.reserve(probe.num_columns() + build_output_channels_.size());
  for (int c = 0; c < probe.num_columns(); ++c) {
    cols.push_back(probe.column(c).Gather(probe_rows.data() + off, count));
  }
  for (int ch : build_output_channels_) {
    cols.push_back(side.cols[ch].Gather(build_rows.data() + off, count));
  }
  *offset = off + count;
  return Page::Make(std::move(cols));
}

PagePtr JoinBridge::EmitProbeRows(const PagePtr& probe,
                                  const uint8_t* matched) const {
  const int64_t n = probe->num_rows();
  std::vector<int32_t> sel;
  switch (join_type_) {
    case JoinType::kInner:
    case JoinType::kRight:
      return nullptr;
    case JoinType::kLeftSemi:
      for (int64_t r = 0; r < n; ++r) {
        if (matched[r] != 0) sel.push_back(static_cast<int32_t>(r));
      }
      break;
    case JoinType::kLeft:
    case JoinType::kFull:
    case JoinType::kLeftAnti:
      // A NULL-keyed probe row never matches, so it is emitted here (NOT
      // EXISTS semantics for the plain anti join).
      for (int64_t r = 0; r < n; ++r) {
        if (matched[r] == 0) sel.push_back(static_cast<int32_t>(r));
      }
      break;
    case JoinType::kNullAwareAnti:
      // NOT IN: any NULL in the build set makes every miss compare to
      // NULL, so nothing qualifies. An empty build set means NOT IN (),
      // TRUE for every row, NULL-keyed ones included; otherwise a NULL
      // probe key compares to NULL.
      if (build_has_null_key_) return nullptr;
      for (int64_t r = 0; r < n; ++r) {
        if (matched[r] != 0) continue;
        if (total_build_rows_ > 0 && RowHasNullKey(*probe, probe_keys_, r)) {
          continue;
        }
        sel.push_back(static_cast<int32_t>(r));
      }
      break;
  }
  if (sel.empty()) return nullptr;
  if (!JoinEmitsBuildColumns(join_type_)) {
    return static_cast<int64_t>(sel.size()) == n ? probe : probe->Select(sel);
  }
  // Left/full: the unmatched probe rows with NULL build columns.
  const int64_t count = static_cast<int64_t>(sel.size());
  std::vector<Column> cols;
  cols.reserve(probe->num_columns() + build_output_channels_.size());
  for (int c = 0; c < probe->num_columns(); ++c) {
    cols.push_back(probe->column(c).Gather(sel));
  }
  for (int ch : build_output_channels_) {
    cols.push_back(NullColumn(build_types_[ch], count));
  }
  return Page::Make(std::move(cols));
}

PagePtr JoinBridge::EmitUnmatchedBuild(const BuiltSide& side,
                                       int64_t* cursor) const {
  const int64_t total = side.num_rows();
  std::vector<int64_t> rows;
  while (*cursor < total && static_cast<int64_t>(rows.size()) < emit_rows_) {
    const int64_t r = (*cursor)++;
    if (!side.Matched(r)) rows.push_back(r);
  }
  if (rows.empty()) return nullptr;
  const int64_t n = static_cast<int64_t>(rows.size());
  std::vector<Column> cols;
  cols.reserve(probe_types_.size() + build_output_channels_.size());
  for (DataType t : probe_types_) cols.push_back(NullColumn(t, n));
  for (int ch : build_output_channels_) {
    cols.push_back(side.cols[ch].Gather(rows.data(), n));
  }
  return Page::Make(std::move(cols));
}

Result<PagePtr> JoinBridge::NextSpilledPage() {
  if (!spilled_.load()) {
    // In-memory right/full drain: only the unmatched build rows remain.
    ACC_CHECK(JoinEmitsUnmatchedBuild(join_type_))
        << "drain on an in-memory inner-side join";
    return EmitUnmatchedBuild(*side_, &unmatched_cursor_);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!spill_status_.ok()) return spill_status_;
  }
  while (true) {
    // 1. Output owed for the last probe page read: its match pairs in
    //    bounded pages, then its probe-side rows.
    if (drain_probe_page_ != nullptr) {
      if (emit_offset_ < static_cast<int64_t>(match_probe_.size())) {
        return EmitPairs(*drain_probe_page_, *side_, match_probe_,
                         match_build_, &emit_offset_);
      }
      drain_probe_page_ = nullptr;
    }
    if (drain_probe_rows_ != nullptr) return std::move(drain_probe_rows_);
    // 2. Advance within the active partition pair.
    if (drain_active_) {
      if (!drain_probe_done_) {
        Result<PagePtr> next = drain_pair_.probe->Next();
        if (!next.ok()) return next.status();
        PagePtr page = std::move(next).value();
        if (page != nullptr) {
          const int64_t ordinal = probe_page_ordinal_++;
          match_probe_.clear();
          match_build_.clear();
          side_->table.FindJoinBatch(*page, probe_keys_, side_->offsets.data(),
                                     side_->rows.data(), &match_probe_,
                                     &match_build_);
          side_->Mark(match_build_);
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
              drain_probe_rows_ = EmitProbeRows(page, flags.data());
            }
          }
          if (JoinEmitsBuildColumns(join_type_)) {
            drain_probe_page_ = std::move(page);
            emit_offset_ = 0;
          }
          continue;
        }
        drain_probe_done_ = true;
      }
      // The probe pass is over, so the chunk's matched bits are complete.
      if (JoinEmitsUnmatchedBuild(join_type_)) {
        PagePtr out = EmitUnmatchedBuild(*side_, &unmatched_cursor_);
        if (out != nullptr) return out;
      }
      if (!drain_build_exhausted_) {
        // More build chunks remain: join the next one against the whole
        // probe file again (multi-pass fallback for partitions that
        // cannot recurse further).
        Status s = DrainLoadChunk();
        if (!s.ok()) return s;
        continue;
      }
      // Pair exhausted: release the chunk and unlink both files.
      TrackBuildBytes(-chunk_tracked_bytes_);
      chunk_tracked_bytes_ = 0;
      side_.reset();
      drain_pair_ = SpillPair();
      drain_active_ = false;
      pair_probe_matched_.clear();
      continue;
    }
    // 3. Open the next partition pair.
    if (drain_queue_.empty()) return PagePtr(nullptr);
    SpillPair pair = std::move(drain_queue_.front());
    drain_queue_.pop_front();
    const bool probe_empty =
        pair.probe == nullptr || pair.probe->pages_written() == 0;
    const bool build_empty = pair.build->pages_written() == 0;
    // A side without rows matches nothing; the pair still owes the other
    // side's unmatched rows if the variant emits them.
    if (probe_empty && !JoinEmitsUnmatchedBuild(join_type_)) continue;
    if (build_empty && !emits_unmatched_probe()) continue;
    const int64_t budget = budget_bytes();
    const bool can_recurse =
        !probe_empty && pair.depth < kMaxSpillRecursion &&
        static_cast<int64_t>(radix_->bits()) * (pair.depth + 2) <= 60;
    if (budget > 0 && pair.build->bytes_written() > budget && can_recurse) {
      // Skewed partition: split both files by the next lower hash bits.
      Status s = DrainRepartition(std::move(pair));
      if (!s.ok()) return s;
      continue;
    }
    drain_pair_ = std::move(pair);
    drain_active_ = true;
    drain_build_exhausted_ = false;
    pair_probe_matched_.clear();
    Status s = DrainLoadChunk();
    if (!s.ok()) return s;
  }
}

Status JoinBridge::DrainLoadChunk() {
  // Every chunk starts a probe pass over the pair's whole probe file.
  if (drain_pair_.probe != nullptr) {
    Status s = drain_pair_.probe->Rewind();
    if (!s.ok()) return s;
  }
  drain_probe_done_ = drain_pair_.probe == nullptr;
  probe_page_ordinal_ = 0;
  TrackBuildBytes(-chunk_tracked_bytes_);
  chunk_tracked_bytes_ = 0;
  side_ = NewSide();
  unmatched_cursor_ = 0;
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
      side_->cols[c].AppendRange(page->column(c), 0, page->num_rows());
    }
    bytes += page->ByteSize();
  }
  // The chunk's rows are chunk-local: the emitters gather from side_.
  chunk_tracked_bytes_ = bytes + IndexSide(side_.get());
  TrackBuildBytes(chunk_tracked_bytes_);
  return Status::OK();
}

Status JoinBridge::DrainRepartition(SpillPair pair) {
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
  s = scatter(pair.probe.get(), probe_keys_, /*build_side=*/false);
  if (!s.ok()) return s;
  for (SpillPair& sub : subs) drain_queue_.push_back(std::move(sub));
  return Status::OK();
}

}  // namespace accordion
