#ifndef ACCORDION_EXEC_TASK_INFO_H_
#define ACCORDION_EXEC_TASK_INFO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/split.h"

namespace accordion {

enum class TaskState { kCreated, kRunning, kFinished, kAborted, kFailed };

inline const char* TaskStateName(TaskState state) {
  switch (state) {
    case TaskState::kCreated:
      return "created";
    case TaskState::kRunning:
      return "running";
    case TaskState::kFinished:
      return "finished";
    case TaskState::kAborted:
      return "aborted";
    case TaskState::kFailed:
      return "failed";
  }
  return "?";
}

/// Snapshot of one task's runtime state, fetched periodically by the
/// coordinator's runtime information collector (paper Fig. 18).
struct TaskInfo {
  TaskId id;
  TaskState state = TaskState::kCreated;

  /// Alive (not-yet-finished) drivers per pipeline.
  std::vector<int> drivers_per_pipeline;
  /// Driver count of the tunable pipelines (the task DOP knob value).
  int task_dop = 0;

  int64_t output_rows = 0;
  int64_t output_bytes = 0;
  int64_t scan_rows = 0;
  int64_t processed_rows = 0;
  int64_t turn_up_counter = 0;
  int64_t hash_build_micros = 0;
  int64_t buffer_queued_bytes = 0;

  // --- join memory accounting (QuerySnapshot counters) ---
  /// High-water mark of tracked build-side bytes in this task.
  int64_t peak_build_bytes = 0;
  /// Bytes written to spill files (build + probe sides, all levels).
  int64_t spill_bytes_written = 0;
  /// Spill partition files created (counts recursion levels).
  int64_t spill_partitions = 0;

  /// True when the task has join bridges and all hash tables are built
  /// (gates the probe-side switch of §4.5).
  bool has_join = false;
  bool hash_tables_built = false;

  /// Node-level utilizations at snapshot time (for n_f capping, §5.3),
  /// read from the node's Pacer; 0 in real mode.
  double cpu_utilization = 0;
  double nic_utilization = 0;

  // --- fault-model state (coordinator health monitor inputs) ---
  /// Task hit an unrecoverable error (retry exhaustion); the query fails.
  bool failed = false;
  std::string failure_message;
  /// Data-plane RPC retries performed by this task's exchange clients.
  int64_t rpc_retries = 0;
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_TASK_INFO_H_
