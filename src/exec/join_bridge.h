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
/// The build side takes one of two shapes — the decision ladder:
///
///   1. In memory — one open-addressing HashTable plus a CSR match list
///      over the whole build (a BuiltSide). Probes go through
///      HashTable::FindJoinBatch, one scalar batch loop for every key
///      layout.
///   2. Grace spill — when tracked build bytes exceed the task's budget
///      (TaskContext::build_budget_bytes), accumulated and incoming build
///      pages scatter to 2^kSpillPartitionBits SpillFiles by hash; probe
///      pages scatter to matching files; after both sides finish, the
///      last probe driver drains partition-pairwise (NextSpilledPage),
///      recursing on partitions still over budget with the next lower
///      hash bits, and falling back to build-chunked multi-pass probing
///      at the recursion limit. Each loaded chunk is a BuiltSide too.
///
/// Join variants: the bridge holds the whole join spec and owns all join
/// output. Three emitters, each called by both the in-memory probe and
/// the spill drain, produce it: match pairs (EmitPairs), probe rows with
/// their final match flags (EmitProbeRows: outer padding, semi, anti and
/// NOT IN), and a built side's unmatched rows (EmitUnmatchedBuild:
/// right/full). The build facts these read — build empty, any NULL build
/// key — are fixed once the build finishes. In the drain a probe row's
/// match flag is final after the pair's last build chunk (the probe file
/// replays deterministically), and a chunk's matched bits after its probe
/// pass.
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
  /// log2 of the spill fan-out: each grace-spill level scatters into
  /// 2^kSpillPartitionBits partition files.
  static constexpr int kSpillPartitionBits = 4;

  /// Maximum spill repartition depth for skewed partitions. A partition
  /// still over budget at max depth is processed in build chunks
  /// (multiple probe passes) instead of recursing further.
  static constexpr int kMaxSpillRecursion = 3;

  /// Output pages hold [probe columns..., build columns at
  /// `build_output_channels`...] for inner/left/right/full joins (NULL
  /// where the other side is unmatched) and the probe columns alone for
  /// semi/anti joins.
  JoinBridge(JoinType join_type, std::vector<DataType> build_types,
             std::vector<int> build_keys,
             std::vector<int> build_output_channels,
             std::vector<DataType> probe_types, std::vector<int> probe_keys,
             TaskContext* task_ctx = nullptr);
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
  /// Wall time spent constructing the index (the T_build component of the
  /// paper's state-transfer accounting).
  int64_t build_index_micros() const { return build_index_us_.load(); }

  // --- probe side ---
  void AddProbeDriver() { ++probe_drivers_; }

  /// One probe driver's match buffers, reused across its pages.
  struct ProbeScratch {
    std::vector<int32_t> probe_rows;
    std::vector<int64_t> build_rows;
    std::vector<uint8_t> matched;
  };

  /// Joins one probe page. Requires built(). In memory the page's output
  /// is appended to `out`, lock-free (the index is immutable once built)
  /// apart from the relaxed matched-build bits right/full joins set. In
  /// spill mode the page is scattered to probe spill files under the
  /// bridge mutex and nothing is appended — its output streams later from
  /// NextSpilledPage.
  Status Probe(const PagePtr& page, ProbeScratch* scratch,
               std::deque<PagePtr>* out);

  /// Returns true for the last probe driver when the bridge has more rows
  /// to stream after probing: always when spilled, and for right/full
  /// joins (unmatched build rows) in memory. That driver becomes the
  /// drainer and must pull NextSpilledPage until null.
  bool ProbeDriverFinished();

  /// Drain entry point (single-threaded: the drainer only). Returns one
  /// output page per call, or nullptr when exhausted. In-memory
  /// right/full joins drain only their unmatched build rows here; spilled
  /// joins stream the whole partition-pairwise grace join.
  Result<PagePtr> NextSpilledPage();

 private:
  /// One built side: build columns, a table plus CSR match list over them
  /// (`rows[offsets[id] .. offsets[id+1])` are the rows of key `id`), and
  /// for right/full joins a matched bit per row. The in-memory join has one
  /// for its whole build; the spill drain loads one per build chunk.
  struct BuiltSide {
    explicit BuiltSide(std::vector<DataType> key_types)
        : table(std::move(key_types)) {}
    int64_t num_rows() const { return cols.empty() ? 0 : cols[0].size(); }
    /// Sets the bits of `rows`: relaxed fetch_or, since in-memory probe
    /// drivers mark concurrently (the probe-driver count orders them
    /// before the drain reads the bits).
    void Mark(const std::vector<int64_t>& rows) const;
    bool Matched(int64_t row) const;

    std::vector<Column> cols;
    HashTable table;
    std::vector<int64_t> offsets;
    std::vector<int64_t> rows;
    std::unique_ptr<std::atomic<uint64_t>[]> matched;
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

  /// Left/full/semi/anti joins emit probe rows by their final match flag;
  /// all of them but semi emit the rows that matched nothing.
  bool tracks_probe_matches() const {
    return join_type_ != JoinType::kInner && join_type_ != JoinType::kRight;
  }
  bool emits_unmatched_probe() const {
    return tracks_probe_matches() && join_type_ != JoinType::kLeftSemi;
  }

  Status WriteSpill(SpillFile* file, const Page& page);
  /// Computes the partition-selection hash of `rows` keyed by `channels`
  /// (Page::HashRows-compatible for any key types — the same hash the
  /// tables use, so partition bits and slot bits never conflict).
  void HashKeys(const std::vector<const Column*>& keys, int64_t num_rows,
                std::vector<uint64_t>* hashes) const;
  void NoteBuildNullKeys(const Page& page);

  Status StartSpillLocked();
  Status StageRowsLocked(std::vector<Stage>* stages,
                         std::vector<std::unique_ptr<SpillFile>>* files,
                         const char* prefix, const Page& page,
                         const std::vector<std::vector<int32_t>>& selections);
  Status FlushStageLocked(Stage* stage, SpillFile* file);
  Status FinishSpillBuildLocked();

  /// An empty side with one column per build channel.
  std::unique_ptr<BuiltSide> NewSide() const;
  /// Indexes `side`'s rows and returns the bytes of its index.
  int64_t IndexSide(BuiltSide* side) const;

  // --- the emitters, shared by the in-memory probe and the drain ---
  /// Output page of the match pairs from `*offset`, at most batch_rows * 4
  /// of them; advances `*offset`.
  PagePtr EmitPairs(const Page& probe, const BuiltSide& side,
                    const std::vector<int32_t>& probe_rows,
                    const std::vector<int64_t>& build_rows,
                    int64_t* offset) const;
  /// The probe rows the variant emits given each row's final match flag
  /// (left/full NULL padding, semi, anti, NOT IN); nullptr when none.
  PagePtr EmitProbeRows(const PagePtr& probe, const uint8_t* matched) const;
  /// Next page of `side`'s unmatched rows from `*cursor`, NULL-padded on
  /// the probe side (right/full); nullptr when exhausted.
  PagePtr EmitUnmatchedBuild(const BuiltSide& side, int64_t* cursor) const;

  // --- spill drain (single-threaded: last probe driver only) ---
  /// Loads the active pair's next build chunk into side_ and restarts the
  /// probe pass over it.
  Status DrainLoadChunk();
  Status DrainRepartition(SpillPair pair);

  const JoinType join_type_;
  const std::vector<DataType> build_types_;
  const std::vector<int> build_keys_;
  const std::vector<int> build_output_channels_;
  const std::vector<DataType> probe_types_;
  const std::vector<int> probe_keys_;
  TaskContext* const task_ctx_;
  const int64_t emit_rows_;  // row cap of a pair or unmatched-build page

  mutable std::mutex mutex_;
  int64_t tracked_bytes_ = 0;  // bytes reported to the task context
  // The build facts EmitProbeRows reads; final once built_ is set.
  int64_t total_build_rows_ = 0;
  bool build_has_null_key_ = false;

  // In memory: the whole build, accumulating until built. Spilled: the
  // build chunk the drain has loaded.
  std::unique_ptr<BuiltSide> side_;
  int64_t unmatched_cursor_ = 0;  // EmitUnmatchedBuild position in side_
  std::unique_ptr<RadixPartitioner> radix_;  // spill level-0 fan-out

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
  bool drain_probe_done_ = false;  // probe pass over the loaded chunk ended
  int64_t chunk_tracked_bytes_ = 0;
  // Output owed for the last probe page read: its match pairs from
  // emit_offset_, then its probe-side rows.
  PagePtr drain_probe_page_;
  std::vector<int32_t> match_probe_;
  std::vector<int64_t> match_build_;
  int64_t emit_offset_ = 0;
  PagePtr drain_probe_rows_;
  // Per-probe-page match flags accumulated across build chunk passes,
  // indexed by page ordinal within the pair's probe file (replay order is
  // deterministic).
  std::vector<std::vector<uint8_t>> pair_probe_matched_;
  int64_t probe_page_ordinal_ = 0;

  std::atomic<int> build_drivers_{0};
  std::atomic<int> probe_drivers_{0};
  std::atomic<bool> built_{false};
  WaiterSet built_waiters_;
  std::atomic<bool> spilled_{false};
  std::atomic<int64_t> build_index_us_{0};
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_JOIN_BRIDGE_H_
