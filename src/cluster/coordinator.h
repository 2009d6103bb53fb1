#ifndef ACCORDION_CLUSTER_COORDINATOR_H_
#define ACCORDION_CLUSTER_COORDINATOR_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "cluster/rpc_bus.h"
#include "cluster/worker.h"
#include "optimizer/options.h"
#include "plan/fragment.h"

namespace accordion {

/// Per-query knobs at submission time.
struct QueryOptions {
  /// Initial task count for tunable stages (paper's stage DOP knob).
  int stage_dop = 1;
  /// Initial drivers per tunable pipeline (task DOP knob).
  int task_dop = 1;
  /// Per-stage initial DOP overrides (stage id -> DOP).
  std::map<int, int> stage_dop_overrides;

  /// Tenant this query is accounted against for the per-tenant admission
  /// quota (EngineConfig::max_queries_per_tenant). Empty = the anonymous
  /// tenant (still quota'd as one tenant).
  std::string tenant;

  /// Multiplier on the query's share of the shared CPU pool. The
  /// effective fair-queueing weight is this times the query's current
  /// parallelism (max over stages of stage DOP x task DOP), so DOP tuning
  /// changes a query's pool share rather than its thread count.
  double scheduler_weight = 1.0;

  /// Cost-based optimizer knobs applied when the query arrives as SQL
  /// text (hand-built plans bypass the optimizer). See
  /// src/optimizer/options.h.
  OptimizerOptions optimizer;

  /// Per-query override of the engine-wide build-side memory budget
  /// (EngineConfig::memory.query_build_bytes): the byte budget one
  /// hash-join build side may hold in memory per task before it spills.
  /// 0 inherits the engine default; negative values and values above
  /// memory.worker_memory_bytes are rejected at Submit with
  /// kInvalidArgument.
  int64_t max_memory_bytes = 0;
};

enum class QueryState { kRunning, kFinished, kFailed, kAborted };

/// Why a right/full join stage's DOP cannot change (kUnimplemented).
inline constexpr char kUnmatchedBuildSwitchMessage[] =
    "stage DOP switch of a right/full join is not supported: each task "
    "group would drain build rows the other group matched";

/// Aggregated per-stage runtime information (one node of the paper's
/// Fig. 18 stage-info tree).
struct StageSnapshot {
  int stage_id = 0;
  int parent_stage_id = -1;
  std::vector<int> source_stage_ids;
  bool is_scan = false;
  std::string scan_table;
  bool has_join = false;
  /// A right/full join: SetStageDop refuses the stage (kUnimplemented).
  bool has_unmatched_build_join = false;
  bool has_final_stateful = false;
  bool is_shuffle_stage = false;
  bool finished = false;

  int dop = 0;       // current task count
  int task_dop = 0;  // max driver count across tasks

  int64_t output_rows = 0;
  int64_t output_bytes = 0;
  int64_t processed_rows = 0;  // across active AND retired tasks
  int64_t scan_rows = 0;
  /// Scan stages: the scanned table's exact row count from the catalog's
  /// statistics (0 without statistics, and for other stages).
  int64_t scan_total_rows = 0;
  int64_t turn_ups = 0;
  int64_t hash_build_us_max = 0;
  /// Duration of this stage's most recent DOP switch (shuffle + rebuild),
  /// the T_build the request filter compares against (§5.2).
  double last_state_transfer_seconds = 0;
  bool hash_tables_built = false;
  double cpu_util_max = 0;
  double nic_util_max = 0;

  std::vector<TaskInfo> tasks;
};

/// Snapshot of one query's runtime information tree.
struct QuerySnapshot {
  std::string query_id;
  QueryState state = QueryState::kRunning;
  int64_t submit_ms = 0;
  int64_t end_ms = 0;  // 0 while running
  double initial_schedule_ms = 0;
  int64_t initial_schedule_requests = 0;

  // --- fault-model counters ---
  /// RPC retries performed for this query: coordinator control-plane and
  /// result fetches plus every task's exchange-client data plane.
  int64_t rpc_retries = 0;
  /// Faults the injector fired on this query's calls, and how many of
  /// them were worker crashes.
  int64_t faults_injected = 0;
  int64_t worker_crashes = 0;
  /// Set when state == kFailed: the escalated root cause.
  std::string failure_message;

  // --- join memory / spill counters (summed over the query's tasks) ---
  /// Sum of per-task build-side high-water marks — an upper bound on the
  /// query's concurrent build footprint.
  int64_t peak_build_bytes = 0;
  /// Bytes this query's joins wrote to spill files (build + probe sides).
  int64_t spill_bytes_written = 0;
  /// Spill partition files created (0 when no join spilled).
  int64_t spill_partitions = 0;

  std::vector<StageSnapshot> stages;

  const StageSnapshot* stage(int id) const {
    for (const auto& s : stages) {
      if (s.stage_id == id) return &s;
    }
    return nullptr;
  }
};

/// Report of one partitioned-join DOP switch (paper Table 2 rows).
struct DopSwitchReport {
  double total_seconds = 0;
  double shuffle_seconds = 0;
  double build_seconds = 0;
};

/// The Accordion coordinator (paper Fig. 8): planning is done by the
/// caller (plan/builder or sql/), this class runs the scheduler, the
/// runtime DOP tuning module (dynamic optimizer + dynamic scheduler) and
/// the runtime information collection.
class Coordinator {
 public:
  Coordinator(RpcBus* bus, Catalog catalog, const EngineConfig* config,
              double scale_factor);
  ~Coordinator();

  /// Schedules all stages bottom-up and starts execution; returns the
  /// query id. Results stay in stage 0's output buffer until a consumer
  /// pulls them (FetchResults / api::ResultCursor / Wait): producers feel
  /// backpressure through the elastic buffer instead of a coordinator
  /// thread draining everything into memory.
  ///
  /// Admission control is cluster-global: kResourceExhausted when the
  /// running-query count is at EngineConfig::max_concurrent_queries or the
  /// tenant's running count is at max_queries_per_tenant. Counting is
  /// derived from the live query table at insert time (no reservation
  /// bookkeeping), so an admission slot can never leak.
  Result<std::string> Submit(const PlanNodePtr& plan,
                             const QueryOptions& options = {});

  /// Pulls the next batch of result pages off stage 0's output buffer
  /// (`complete` marks the end of the stream). Long-polls: when nothing
  /// is there yet, blocks until pages arrive, the stream completes, the
  /// query's state changes or `timeout_ms` passes (0 = one non-blocking
  /// fetch), and then returns whatever it has, possibly nothing. Flips the
  /// query to kFinished when the end page is observed. The primitive
  /// under api::ResultCursor and Wait.
  Result<PagesResult> FetchResults(const std::string& query_id,
                                   int max_pages = 16,
                                   int64_t timeout_ms = 0);

  /// Blocks until the query finishes; returns all pages fetched by this
  /// call (a shim over FetchResults — don't mix with a cursor on the
  /// same query). On timeout returns kDeadlineExceeded and leaves the
  /// query running and abortable.
  Result<std::vector<PagePtr>> Wait(const std::string& query_id,
                                    int64_t timeout_ms = 600000);

  bool IsFinished(const std::string& query_id);
  Status Abort(const std::string& query_id);

  // --- runtime DOP tuning module ---

  /// Intra-task tuning (§4.3): sets the driver count of every task of
  /// `stage_id`.
  Status SetTaskDop(const std::string& query_id, int stage_id, int dop);

  /// Intra-stage tuning (§4.4): sets the task count of `stage_id`.
  /// Automatically routes partitioned-hash-join stages through DOP
  /// switching (§4.5); `report` (optional) receives its timing breakdown.
  Status SetStageDop(const std::string& query_id, int stage_id, int dop,
                     DopSwitchReport* report = nullptr);

  /// Registers `callback` to run exactly once when the query reaches a
  /// terminal state (finished / failed / aborted), with that state as
  /// argument. Fires immediately (on the calling thread) if the query is
  /// already terminal; otherwise fires on whichever thread completes the
  /// query. Callbacks must not call back into the Coordinator's blocking
  /// APIs for the same query.
  Status NotifyOnCompletion(const std::string& query_id,
                            std::function<void(QueryState)> callback);

  // --- observability ---
  Result<QuerySnapshot> Snapshot(const std::string& query_id);
  int64_t total_rpc_requests() const { return bus_->total_requests(); }
  const Catalog& catalog() const { return catalog_; }

 private:
  struct StageExec {
    PlanFragment fragment;
    int dop = 0;
    int next_task_seq = 0;
    std::vector<TaskId> tasks;       // active task group
    std::vector<int> task_workers;   // parallel to `tasks`
    std::vector<TaskId> retired;     // replaced/removed tasks (kept for info)
    std::vector<int> retired_workers;
    std::deque<SystemSplit> splits;  // scan stages only
    /// Drivers per tunable pipeline of this stage's tasks (SetTaskDop
    /// target); feeds the query's pool-share weight.
    int task_dop = 1;
    double last_state_transfer_seconds = 0;  // latest DOP-switch duration
    std::map<int, bool> source_is_build;  // source stage -> feeds build side

    /// Buffer-id window this stage's output buffers currently serve — the
    /// ids its consuming (parent) stage pulls. Moves when the parent is
    /// DOP-switched; coordinator-assigned so every task of the stage,
    /// including ones spawned later, serves a consistent id space.
    int consumer_window_first = 0;
    int consumer_window_count = 1;
    int next_output_buffer_id = 1;
  };

  struct QueryExec {
    std::string id;
    QueryOptions options;
    std::map<int, StageExec> stages;  // stable addresses (node-based map)
    std::atomic<QueryState> state{QueryState::kRunning};
    int64_t submit_ms = 0;
    std::atomic<int64_t> end_ms{0};
    double initial_schedule_ms = 0;
    int64_t initial_schedule_requests = 0;
    std::mutex control_mutex;  // serializes tuning operations
    std::mutex split_mutex;
    std::mutex fetch_mutex;  // serializes result fetches (cursor vs Wait)
    RemoteSplit root_split;  // stage 0's single task, pulled by consumers
    bool fetch_complete = false;  // end page observed (guarded by fetch_mutex)
    /// Result pages received so far — the resume point passed to the root
    /// buffer so retried fetches are lossless. Guarded by fetch_mutex.
    int64_t fetch_sequence = 0;
    /// Pages a timed-out Wait had already pulled off the buffer; served
    /// before new fetches so a retry resumes the stream losslessly.
    /// Guarded by fetch_mutex.
    std::vector<PagePtr> stash;
    /// Result fetchers blocked on the root buffer (outside fetch_mutex).
    /// The buffer notifies it on pages and completion, Abort and FailQuery
    /// on a state change.
    std::shared_ptr<ThreadWaiter> fetch_waiter =
        std::make_shared<ThreadWaiter>();

    /// Control-plane + result-fetch retries (data-plane retries live in
    /// the tasks' contexts and are summed at snapshot time).
    std::atomic<int64_t> control_retries{0};

    /// First escalated failure (state == kFailed).
    std::mutex failure_mutex;
    Status failure;

    /// Terminal-state callbacks (NotifyOnCompletion); swapped out and run
    /// exactly once by FireCompletion.
    std::mutex completion_mutex;
    std::vector<std::function<void(QueryState)>> completion_callbacks;
    bool completion_fired = false;

    /// Flat (worker, task) registry of everything this query ever
    /// spawned, including retired tasks. Unlike `stages` it is guarded by
    /// its own small mutex that is never held across RPCs or waits, so
    /// Abort and the health monitor stay responsive even while a tuning
    /// operation holds control_mutex (e.g. a DOP switch waiting on a
    /// build that will never finish because its worker died).
    std::mutex registry_mutex;
    std::vector<std::pair<int, TaskId>> task_registry;
  };

  std::shared_ptr<QueryExec> GetQuery(const std::string& query_id);

  /// One pass of FetchResults under fetch_mutex: the stash, then one
  /// root-buffer fetch (with retries) that registers `waiter` on the
  /// buffer when it finds nothing new.
  Result<PagesResult> FetchOnce(const std::shared_ptr<QueryExec>& query,
                                int max_pages, const Waiter* waiter);
  int NextWorker() { return next_worker_++ % bus_->num_workers(); }

  /// Creates, wires and starts one new task for a stage. `buffer_id`
  /// overrides per-source-stage consumption (DOP switching); empty means
  /// default (task seq). Returns the new task id.
  Result<TaskId> SpawnTask(QueryExec* query, StageExec* stage,
                           const std::map<int, int>& source_buffer_ids);

  Status IncreaseStageDop(QueryExec* query, StageExec* stage, int dop);
  Status DecreaseStageDop(QueryExec* query, StageExec* stage, int dop);
  Status DopSwitch(QueryExec* query, StageExec* stage, int dop,
                   DopSwitchReport* report);

  void CleanupQueryTasks(QueryExec* query);

  /// Runs `call` with exponential backoff on kUnavailable (idempotent
  /// control-plane calls only). kAlreadyExists after an earlier
  /// kUnavailable is success: the first attempt executed but its response
  /// was lost. Exhaustion returns the last error with `what` as context.
  Status RetryRpc(QueryExec* query, const char* what,
                  const std::function<Status()>& call);

  /// Escalates the query to kFailed with `status` as root cause and
  /// aborts all its tasks. Idempotent; loses against an earlier
  /// finish/abort/failure.
  void FailQuery(const std::shared_ptr<QueryExec>& query,
                 const Status& status);

  /// Best-effort abort of every task the query ever spawned (registry
  /// order). Takes no control_mutex — safe from any thread.
  void AbortAllTasks(QueryExec* query);

  /// Runs the query's completion callbacks exactly once (no-op while the
  /// query is still running) and releases its scheduler group. Called at
  /// every terminal transition: finish, abort, failure.
  void FireCompletion(const std::shared_ptr<QueryExec>& query);

  /// Recomputes the query's fair-queueing weight from its current
  /// parallelism and pushes it to the shared pool. Caller holds
  /// control_mutex (or is still single-threaded in Submit).
  void UpdateQueryShare(QueryExec* query);

  /// Background health monitor: escalates crashed workers and failed
  /// tasks to query failure every kHealthCheckIntervalMs.
  void MonitorLoop();

  OutputBufferConfig BufferConfigFor(const QueryExec& query,
                                     const StageExec& stage) const;
  NextSplitFn SplitFeed(std::shared_ptr<QueryExec> query, int stage_id);

  RpcBus* bus_;
  Catalog catalog_;
  const EngineConfig* config_;
  double scale_factor_;

  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<QueryExec>> queries_;
  std::atomic<int> next_worker_{0};
  std::atomic<int> next_query_{0};

  /// Seed feed for per-call backoff jitter (deterministic order-dependent
  /// stream, no global randomness).
  std::atomic<uint64_t> next_retry_seed_{1};

  std::atomic<bool> monitor_shutdown_{false};
  std::thread monitor_;
};

}  // namespace accordion

#endif  // ACCORDION_CLUSTER_COORDINATOR_H_
