#ifndef ACCORDION_EXEC_TASK_CONTEXT_H_
#define ACCORDION_EXEC_TASK_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"
#include "exec/config.h"

namespace accordion {

class MorselScheduler;
class Pacer;

/// Shared, thread-safe per-task runtime state: the hosting worker's Pacer,
/// engine config, and the metric counters that the coordinator's runtime
/// information collector reads (paper Fig. 18: "drivers informations, CPU
/// usage, NIC usage, buffer informations").
class TaskContext {
 public:
  TaskContext(std::string task_id, const EngineConfig* config,
              Pacer* pacer = nullptr)
      : task_id_(std::move(task_id)),
        scheduler_group_(task_id_),
        config_(config),
        pacer_(pacer) {}

  const std::string& task_id() const { return task_id_; }
  const EngineConfig& config() const { return *config_; }
  /// The hosting node's simulated CPU and NIC; null in real mode.
  Pacer* pacer() const { return pacer_; }

  /// The shared CPU pool this task's units run on (config's scheduler or
  /// the process default). Defined in scheduler.cc.
  MorselScheduler* scheduler() const;

  /// Fair-queueing group of this task's units — the query id for tasks
  /// created through the cluster, the task id for standalone tasks. Set
  /// once at task construction, before any unit is enqueued.
  const std::string& scheduler_group() const { return scheduler_group_; }
  void set_scheduler_group(std::string group) {
    scheduler_group_ = std::move(group);
  }

  // --- memory accounting (join build sides) ---
  /// Effective build-side budget for this task's join builds: the spec's
  /// per-query override when set, else the engine-wide
  /// memory.query_build_bytes. 0 = unlimited (no spilling).
  int64_t build_budget_bytes() const {
    return build_budget_bytes_ > 0 ? build_budget_bytes_
                                   : config_->memory.query_build_bytes;
  }
  void set_build_budget_bytes(int64_t bytes) { build_budget_bytes_ = bytes; }

  /// Tracks live build-side bytes (positive deltas on accumulation/load,
  /// negative on flush/unload) and maintains the high-water mark the
  /// coordinator surfaces as QuerySnapshot::peak_build_bytes.
  void AddBuildBytes(int64_t delta) {
    int64_t now = build_bytes_.fetch_add(delta) + delta;
    int64_t peak = peak_build_bytes_.load();
    while (now > peak &&
           !peak_build_bytes_.compare_exchange_weak(peak, now)) {
    }
  }
  int64_t build_bytes() const { return build_bytes_.load(); }
  int64_t peak_build_bytes() const { return peak_build_bytes_.load(); }

  void AddSpillBytesWritten(int64_t n) { spill_bytes_written_ += n; }
  void AddSpillPartitions(int64_t n) { spill_partitions_ += n; }
  int64_t spill_bytes_written() const { return spill_bytes_written_; }
  int64_t spill_partitions() const { return spill_partitions_; }

  // --- metric counters ---
  void AddOutputRows(int64_t n) { output_rows_ += n; }
  void AddOutputBytes(int64_t n) { output_bytes_ += n; }
  void AddScanRows(int64_t n) { scan_rows_ += n; }
  void AddProcessedRows(int64_t n) { processed_rows_ += n; }
  void BufferTurnUp() { ++turn_up_counter_; }
  void SetHashBuildMicros(int64_t us) { hash_build_us_ = us; }
  void AddRpcRetry() { ++rpc_retries_; }

  int64_t output_rows() const { return output_rows_; }
  int64_t output_bytes() const { return output_bytes_; }
  int64_t scan_rows() const { return scan_rows_; }
  int64_t processed_rows() const { return processed_rows_; }
  int64_t turn_up_counter() const { return turn_up_counter_; }
  int64_t hash_build_micros() const { return hash_build_us_; }
  int64_t rpc_retries() const { return rpc_retries_; }

  // --- cancellation ---
  /// Set by Task::Abort: each of the task's units finishes at its next
  /// quantum (the task wakes the parked ones).
  void Cancel() { cancelled_.store(true); }
  bool cancelled() const { return cancelled_.load(); }

  // --- failure reporting ---
  /// Records an unrecoverable task-local error (e.g. GetPages retry
  /// exhaustion). First failure wins; the coordinator's health monitor
  /// picks it up from TaskInfo and escalates the query to kFailed.
  void ReportFailure(const Status& status) {
    std::lock_guard<std::mutex> lock(failure_mutex_);
    if (failure_.ok()) failure_ = status;
    failed_.store(true, std::memory_order_release);
  }
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  Status failure() const {
    std::lock_guard<std::mutex> lock(failure_mutex_);
    return failure_;
  }

 private:
  std::string task_id_;
  std::string scheduler_group_;
  const EngineConfig* config_;
  Pacer* pacer_;

  int64_t build_budget_bytes_ = 0;
  std::atomic<int64_t> build_bytes_{0};
  std::atomic<int64_t> peak_build_bytes_{0};
  std::atomic<int64_t> spill_bytes_written_{0};
  std::atomic<int64_t> spill_partitions_{0};

  std::atomic<int64_t> output_rows_{0};
  std::atomic<int64_t> output_bytes_{0};
  std::atomic<int64_t> scan_rows_{0};
  std::atomic<int64_t> processed_rows_{0};
  std::atomic<int64_t> turn_up_counter_{0};
  std::atomic<int64_t> hash_build_us_{0};
  std::atomic<int64_t> rpc_retries_{0};

  std::atomic<bool> cancelled_{false};
  std::atomic<bool> failed_{false};
  mutable std::mutex failure_mutex_;
  Status failure_;
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_TASK_CONTEXT_H_
