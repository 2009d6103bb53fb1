#ifndef ACCORDION_EXEC_JOIN_BRIDGE_H_
#define ACCORDION_EXEC_JOIN_BRIDGE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "exec/hash_table.h"
#include "exec/radix_partitioner.h"
#include "exec/scheduler.h"
#include "exec/spill_file.h"
#include "plan/plan_node.h"
#include "vector/page.h"

namespace accordion {

class TaskContext;

/// Shared hash-join state connecting a task's build pipeline to its probe
/// pipeline (paper Fig. 7). Build drivers append pages concurrently; the
/// last finishing driver constructs the index and flips `built`. Probe
/// drivers stay parked on the bridge until then (paper §4.1).
///
/// The index escalates through three shapes as the build side grows —
/// the decision ladder:
///
///   1. kFlat — one open-addressing HashTable plus a CSR match list:
///      `rows_[offsets_[id] .. offsets_[id+1])` are the build rows of key
///      `id`. Probes go through HashTable::FindJoinBatch, one scalar
///      batch loop for every key layout.
///   2. kRadix — past JoinConfig::radix_min_build_rows (single
///      fixed-width key only), the build splits by the TOP bits of the
///      key hash into 2^bits cache-sized partition tables (reusing
///      RadixPartitioner). Each probe page is hashed once, scattered by
///      the same bits, and probes exactly one partition table per row, so
///      huge build tables stop thrashing cache.
///   3. kSpill (grace hash join) — when tracked build bytes exceed the
///      task's budget (TaskContext::build_budget_bytes), accumulated and
///      incoming build pages scatter to 2^spill_partition_bits SpillFiles
///      by hash; probe pages scatter to matching files; after both sides
///      finish, the last probe driver drains partition-pairwise
///      (NextSpilledPage), recursing on partitions still over budget
///      with the next lower hash bits, and falling back to build-chunked
///      multi-pass probing at the recursion limit.
///
/// Join variants: the bridge carries the plan's JoinType. In the in-memory
/// modes, Probe() returns the inner match pairs and the probe operator
/// derives the variant output from them (unmatched probe rows, semi/anti
/// selection, mark column); the bridge's contributions are an atomic
/// matched-build bitmap for right/full joins (drained as null-padded pages
/// by the last probe driver through NextSpilledPage) and the global
/// build-has-NULL-key flag that drives null-aware anti / mark semantics.
/// In spill mode all of the variant logic runs inside the drain, which
/// tracks per-probe-row match flags across build chunk passes (the probe
/// file replays deterministically) and per-chunk build match flags.
///
/// NULL join keys never match (SQL equality): the hash-table join probes
/// resolve null-keyed probe rows to misses in every layout, and NULL-keyed
/// build rows are never reached by a probe — so they fall out naturally as
/// "unmatched" for right/full padding.
///
/// Memory accounting and spill counters flow through the TaskContext
/// (null for standalone tests/benches: no accounting, no spilling unless
/// the context provides a budget).
class JoinBridge {
 public:
  /// `probe_types` is required for join types that synthesize probe-side
  /// columns during the drain (right/full padding) or stage probe pages
  /// (any spill); inner-join tests may omit it.
  JoinBridge(std::vector<DataType> build_types, std::vector<int> build_keys,
             TaskContext* task_ctx = nullptr,
             JoinType join_type = JoinType::kInner,
             std::vector<DataType> probe_types = {});
  ~JoinBridge();

  // --- build side ---
  void AddBuildDriver() { ++build_drivers_; }
  /// Appends one build page; in spill mode this partitions and stages the
  /// page to disk, so IO failures surface here.
  Status AddBuildPage(const PagePtr& page);
  /// Returns true for the caller that finalized the table. Finalization
  /// IO errors are recorded (see failure()) and reported to the task.
  bool BuildDriverFinished();

  bool built() const { return built_.load(); }
  /// Parks a probe driver, or a thread waiting for a DOP switch's
  /// rebuild, until the index is built.
  ParkState ParkUntilBuilt(const Waiter& waiter);
  /// True once the build side has switched to grace spill.
  bool spilled() const { return spilled_.load(); }
  int64_t build_rows() const;
  JoinType join_type() const { return join_type_; }
  /// True when any build row carries a NULL in any key column. Valid once
  /// built(); drives NOT IN (null-aware anti) and mark-join semantics.
  bool build_has_null_key() const { return build_has_null_key_; }
  /// Wall time spent constructing the index (the T_build component of the
  /// paper's state-transfer accounting).
  int64_t build_index_micros() const { return build_index_us_.load(); }
  /// In-memory radix partition count (1 = flat table; 0 = spilled).
  int num_partitions() const;

  // --- probe side ---
  void AddProbeDriver() { ++probe_drivers_; }

  /// Appends to `probe_rows`/`build_rows` the matching row pairs for every
  /// row of `probe` (equality on all key channels; NULL keys never match).
  /// Requires built(). Flat/radix modes are lock-free (the index is
  /// immutable once built) apart from the relaxed matched-build bitmap
  /// updates right/full joins perform; in spill mode the page is scattered
  /// to probe spill files under the bridge mutex and no pairs are returned
  /// — matches stream later from NextSpilledPage.
  Status Probe(const Page& probe, const std::vector<int>& probe_keys,
               std::vector<int32_t>* probe_rows,
               std::vector<int64_t>* build_rows);

  /// Returns true for the last probe driver when the bridge has more rows
  /// to stream after probing: always when spilled, and for right/full
  /// joins (unmatched build rows) in the in-memory modes. That driver
  /// becomes the drainer and must pull NextSpilledPage until null.
  bool ProbeDriverFinished();

  /// Drain entry point (single-threaded: the drainer only). Returns one
  /// output page per call, or nullptr when exhausted. Output layout
  /// matches the join type: [probe cols..., build_output...] for
  /// inner/left/right/full (null-padded where unmatched), [probe cols...]
  /// for semi/anti, [probe cols..., mark] for mark joins. In-memory
  /// right/full joins drain only their unmatched build rows here; spilled
  /// joins stream the whole partition-pairwise grace join.
  Result<PagePtr> NextSpilledPage(const std::vector<int>& probe_keys,
                                  const std::vector<int>& build_output_channels);

  /// Gathers `channel` of the accumulated build rows at `rows`
  /// (flat/radix modes only; spilled matches are gathered internally).
  Column GatherBuild(int channel, const std::vector<int64_t>& rows) const;
  Column GatherBuild(int channel, const int64_t* rows, int64_t count) const;
  /// Like GatherBuild but a negative row yields a NULL (left/full joins).
  Column GatherBuildNullable(int channel, const int64_t* rows,
                             int64_t count) const;

 private:
  enum class Mode { kFlat, kRadix, kSpill };

  /// One built index: a table plus its CSR match list. Flat mode has one;
  /// radix mode one per partition (rows_ hold global build row numbers);
  /// the spill drain rebuilds one per build chunk (rows_ chunk-local).
  struct PartitionIndex {
    explicit PartitionIndex(std::vector<DataType> key_types)
        : table(std::move(key_types)) {}
    HashTable table;
    std::vector<int64_t> offsets;
    std::vector<int64_t> rows;
  };

  /// Per-partition staging buffer: rows accumulate in columns until they
  /// pass the spill chunk size, then flush to the partition file as one
  /// frame (coalesces tiny per-page scatters into large writes).
  struct Stage {
    std::vector<Column> cols;
    int64_t bytes = 0;
  };

  /// A build/probe partition-file pair awaiting the pairwise drain.
  struct SpillPair {
    std::unique_ptr<SpillFile> build;
    std::unique_ptr<SpillFile> probe;
    int depth = 0;
  };

  int64_t budget_bytes() const;
  void TrackBuildBytes(int64_t delta);

  /// Which sides of the variant the drain must resolve.
  bool needs_build_drain() const {
    return JoinEmitsUnmatchedBuild(join_type_);
  }
  bool tracks_probe_matches() const {
    return join_type_ != JoinType::kInner && join_type_ != JoinType::kRight;
  }
  bool emits_pairs() const { return JoinEmitsBuildColumns(join_type_); }

  Status WriteSpill(SpillFile* file, const Page& page);
  /// Computes the partition-selection hash of `rows` keyed by `channels`
  /// (Page::HashRows-compatible for any key types — the same hash the
  /// tables use, so partition bits and slot bits never conflict).
  void HashKeys(const std::vector<const Column*>& keys, int64_t num_rows,
                std::vector<uint64_t>* hashes) const;
  void NoteBuildNullKeys(const Page& page);
  void MarkBuildRows(const int64_t* rows, int64_t count);

  Status StartSpillLocked();
  Status StageRowsLocked(std::vector<Stage>* stages,
                         std::vector<std::unique_ptr<SpillFile>>* files,
                         const char* prefix, const Page& page,
                         const std::vector<std::vector<int32_t>>& selections);
  Status FlushStageLocked(Stage* stage, SpillFile* file);

  void BuildFlatIndexLocked();
  void BuildRadixIndexLocked();
  Status FinishSpillBuildLocked();

  // --- spill drain (single-threaded: last probe driver only) ---
  Status DrainLoadChunk();
  Status DrainRepartition(SpillPair pair,
                          const std::vector<int>& probe_keys);
  Result<PagePtr> DrainEmit(const Page& probe_page,
                            const std::vector<int>& build_output_channels);
  /// In-memory right/full drain: next page of unmatched build rows.
  PagePtr NextUnmatchedBuildPage(const std::vector<int>& build_output_channels);
  /// Last-chunk resolution of one probe page (unmatched-left padding,
  /// semi/anti selection, mark column) appended to drain_ready_.
  void EmitFinalProbePage(const Page& page, const std::vector<uint8_t>& flags,
                          const std::vector<int>& probe_keys,
                          const std::vector<int>& build_output_channels);
  /// Unmatched rows of the loaded build chunk, null-padded on the probe
  /// side, appended to drain_ready_ (right/full).
  void EmitUnmatchedChunkRows(const std::vector<int>& build_output_channels);
  /// Transforms one page of a single-sided partition pair (the other side
  /// empty) into output per join type; nullptr when it contributes none.
  PagePtr StreamSidePage(const Page& page, bool build_side,
                         const std::vector<int>& probe_keys,
                         const std::vector<int>& build_output_channels);

  std::vector<DataType> build_types_;
  std::vector<int> build_keys_;
  TaskContext* task_ctx_;
  JoinType join_type_;
  std::vector<DataType> probe_types_;

  mutable std::mutex mutex_;
  std::vector<Column> data_;  // accumulated build rows, all channels
  int64_t total_build_rows_ = 0;
  int64_t tracked_bytes_ = 0;  // bytes reported to the task context
  bool build_has_null_key_ = false;

  Mode mode_ = Mode::kFlat;
  std::vector<std::unique_ptr<PartitionIndex>> partitions_;
  std::unique_ptr<RadixPartitioner> radix_;  // radix + spill level 0

  // Right/full joins, in-memory modes: bit per build row, set under
  // concurrent probing with relaxed fetch_or (the probe-driver count
  // provides the ordering the drainer needs).
  std::unique_ptr<std::atomic<uint64_t>[]> build_matched_bits_;
  int64_t unmatched_cursor_ = 0;  // in-memory right/full drain position

  // --- spill state ---
  std::vector<std::unique_ptr<SpillFile>> build_files_;
  std::vector<Stage> build_stages_;
  std::vector<std::unique_ptr<SpillFile>> probe_files_;
  std::vector<Stage> probe_stages_;
  Status spill_status_;  // first spill IO failure, surfaced to probes

  // --- drain state ---
  std::deque<SpillPair> drain_queue_;
  SpillPair drain_pair_;
  bool drain_active_ = false;
  bool drain_build_exhausted_ = false;
  std::vector<Column> chunk_cols_;  // build columns of the loaded chunk
  std::unique_ptr<PartitionIndex> chunk_index_;
  int64_t chunk_tracked_bytes_ = 0;
  PagePtr drain_probe_page_;
  std::vector<int32_t> match_probe_;
  std::vector<int64_t> match_build_;
  int64_t emit_offset_ = 0;
  // Variant drain state: per-probe-page matched flags accumulated across
  // build chunk passes (indexed by page ordinal within the pair's probe
  // file — replay order is deterministic), per-chunk build matched flags,
  // ready-to-emit variant pages, and the single-sided pair stream.
  std::vector<std::vector<uint8_t>> pair_probe_matched_;
  int64_t probe_page_ordinal_ = 0;
  std::vector<uint8_t> chunk_matched_;
  std::deque<PagePtr> drain_ready_;
  SpillPair stream_pair_;
  bool stream_active_ = false;
  bool stream_build_side_ = false;

  std::atomic<int> build_drivers_{0};
  std::atomic<int> probe_drivers_{0};
  std::atomic<bool> built_{false};
  WaiterSet built_waiters_;
  std::atomic<bool> spilled_{false};
  std::atomic<int64_t> build_index_us_{0};
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_JOIN_BRIDGE_H_
