#ifndef ACCORDION_EXEC_TASK_H_
#define ACCORDION_EXEC_TASK_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "exec/driver.h"
#include "exec/pipeline.h"
#include "exec/task_info.h"

namespace accordion {

/// Everything needed to instantiate one task on a worker.
struct TaskSpec {
  TaskId id;
  PlanFragment fragment;

  /// Initial drivers per tunable pipeline (the task DOP knob).
  int initial_dop = 1;

  OutputBufferConfig output_config;

  /// Initial upstream task addresses, per source stage id.
  std::map<int, std::vector<RemoteSplit>> remote_splits;

  /// Buffer id to pull from upstream buffers, per source stage id.
  /// Defaults to the task's own sequence number; DOP-switched task groups
  /// (§4.5) read from their group's buffer-id range instead.
  std::map<int, int> source_buffer_ids;

  /// Per-query build-side memory budget resolved by the coordinator
  /// (QueryOptions::max_memory_bytes override, else the engine default).
  /// 0 falls back to EngineConfig::memory.query_build_bytes on the worker.
  int64_t build_memory_bytes = 0;
};

/// Worker-provided callbacks: split feed (coordinator split queue), split
/// opening (storage) and page fetching (RPC).
struct TaskApis {
  NextSplitFn next_split;
  OpenSplitFn open_split;
  FetchPagesFn fetch_pages;
};

/// The smallest unit of distributed execution (paper §2). Owns its
/// pipelines, drivers (resumable units on the shared morsel-scheduler
/// pool), shared structures (local exchanges, join bridges, exchange
/// clients) and its output buffer.
///
/// Runtime elasticity surface:
///  - SetDop() adds/retires drivers on tunable pipelines (intra-task DOP,
///    §4.3) using the global remote split set (exchange clients are
///    shared, so a new exchange driver needs no coordinator round trip);
///  - AddRemoteSplits() wires newly created upstream tasks (§4.4 step 3);
///  - EndSignalOutput()/SignalEndSources() implement the end-signal
///    protocol for task teardown.
class Task {
 public:
  Task(TaskSpec spec, TaskApis apis, const EngineConfig* config,
       Pacer* pacer = nullptr);
  ~Task();

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  /// Creates the initial drivers and begins execution. Idempotent:
  /// repeated calls (retried StartTask RPCs) are no-ops.
  void Start();

  /// Registers additional upstream tasks for `source_stage_id`.
  void AddRemoteSplits(int source_stage_id,
                       const std::vector<RemoteSplit>& splits);

  /// Sets the driver count of every tunable pipeline (task DOP).
  Status SetDop(int dop);

  /// Sets the driver count of one pipeline.
  Status SetPipelineDop(int pipeline_id, int dop);

  /// Consumer-side page poll on this task's output buffer, resuming at
  /// `start_sequence` (pass OutputBuffer::kAutoSequence for local
  /// consumers that never retry). `waiter` long-polls: see
  /// OutputBuffer::GetPages.
  PagesResult GetPages(int buffer_id, int64_t start_sequence, int max_pages,
                       const Waiter* waiter = nullptr);

  /// End signal for one downstream consumer of this task's buffer.
  void EndSignalOutput(int buffer_id);

  /// End signal to all source operators: the task drains and closes
  /// bottom-up (used when the dynamic scheduler removes this task).
  void SignalEndSources();

  /// Hard abort (query cancellation). Wakes every parked unit of the task
  /// so that each finishes at its next quantum.
  void Abort();

  /// Blocks the calling (non-pool) thread until every join bridge of the
  /// task is built, the task is aborted, or `deadline_us` (NowMicros
  /// epoch) passes. Returns true once all are built. A DOP switch waits on
  /// this for its new task group.
  bool WaitHashTablesBuilt(int64_t deadline_us);

  /// DOP switching support (§4.5): new consumer task group on the output
  /// shuffle buffer, serving ids [first_buffer_id, first_buffer_id+count).
  void AddOutputTaskGroup(int count, int first_buffer_id);
  void SwitchOutputToNewestGroup();

  bool Finished();
  TaskInfo Info();
  OutputBuffer* output_buffer() { return buffer_.get(); }
  TaskContext* context() { return &task_ctx_; }
  const TaskSpec& spec() const { return spec_; }
  const std::vector<Pipeline>& pipelines() const { return pipelines_; }

 private:
  struct DriverSlot {
    std::unique_ptr<Driver> driver;
    bool ended_requested = false;
  };

  void AddDriverLocked(int pipeline_id);
  int AliveDriversLocked(int pipeline_id) const;
  void UpdateStateLocked();

  TaskSpec spec_;
  TaskApis apis_;
  TaskContext task_ctx_;
  std::unique_ptr<OutputBuffer> buffer_;

  // Shared structures (stable addresses; factories hold raw pointers).
  std::map<int, std::unique_ptr<ExchangeClient>> exchange_clients_;
  std::map<int, std::unique_ptr<LocalExchange>> local_exchanges_;
  std::map<int, std::unique_ptr<JoinBridge>> join_bridges_;

  std::vector<Pipeline> pipelines_;

  mutable std::mutex mutex_;
  std::vector<std::vector<DriverSlot>> drivers_;  // per pipeline
  std::vector<int> next_driver_seq_;
  std::atomic<TaskState> state_{TaskState::kCreated};
  WaiterSet abort_waiters_;  // threads in WaitHashTablesBuilt
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_TASK_H_
