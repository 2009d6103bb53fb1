#ifndef ACCORDION_CLUSTER_RPC_BUS_H_
#define ACCORDION_CLUSTER_RPC_BUS_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/task.h"

namespace accordion {

class WorkerNode;

/// Injected-fault accounting attributed to one query (the query whose
/// call the fault fired on). Surfaced through QueryHandle::Snapshot.
struct QueryFaultStats {
  int64_t faults_injected = 0;
  int64_t worker_crashes = 0;
};

/// In-process message bus standing in for the RESTful RPC layer of the
/// paper's cluster. Every call increments the global request counter (the
/// paper reports, e.g., "the initial query plan construction for Q3
/// involves 65 RESTful requests") and costs the configured per-request
/// latency (paper: each RESTful request takes 1–10 ms): control-plane
/// calls sleep it, page fetches report it through `ready_at_us`.
///
/// On a simulated cluster page transfers additionally charge the
/// producer's and consumer's NICs through their Pacers, which is where
/// shuffle/network bottlenecks come from.
///
/// Fault model: when EngineConfig::fault_injector is set, every call first
/// consults it under the site name "rpc.<Method>". A transient error skips
/// the call; a drop-response performs the call but loses the reply (the
/// caller sees kUnavailable either way); a worker crash kills the callee.
/// Calls to a crashed worker fail with kUnavailable forever after — the
/// coordinator's health monitor escalates that to query failure.
class RpcBus {
 public:
  explicit RpcBus(const EngineConfig* config) : config_(config) {}

  void RegisterWorker(int worker_id, WorkerNode* worker);
  WorkerNode* worker(int worker_id) const;
  int num_workers() const;

  // --- task control plane ---
  Status ScheduleTask(int worker_id, TaskSpec spec, NextSplitFn next_split);
  Status StartTask(int worker_id, const TaskId& task);
  Status AddRemoteSplits(int worker_id, const TaskId& task, int source_stage,
                         const std::vector<RemoteSplit>& splits);
  Status SetTaskDop(int worker_id, const TaskId& task, int dop);
  Status SetConsumerCount(int worker_id, const TaskId& task, int count);
  Status EndSignalOutput(int worker_id, const TaskId& task, int buffer_id);
  Status SignalEndSources(int worker_id, const TaskId& task);
  Status AbortTask(int worker_id, const TaskId& task);
  Status AddOutputTaskGroup(int worker_id, const TaskId& task, int count,
                            int first_buffer_id);
  Status SwitchOutputToNewestGroup(int worker_id, const TaskId& task);
  /// Returns once every join bridge of `task` is built (OK), the task is
  /// aborted, or `timeout_ms` passes (both kDeadlineExceeded): a DOP
  /// switch waits on its new task group's rebuild without polling.
  Status AwaitHashTables(int worker_id, const TaskId& task,
                         int64_t timeout_ms);

  // --- data plane ---
  /// Pulls pages from `split`'s output buffer, resuming at
  /// `start_sequence` (see OutputBuffer::GetPages). Never sleeps: sets
  /// `*ready_at_us` to the absolute time the response arrives (request
  /// latency + injected latency, pushed out by the producer's and
  /// `consumer`'s NIC grants on a simulated cluster). The caller must not
  /// use the pages before then — exchange clients yield their pool thread
  /// until it, the coordinator sleeps. `consumer` is the fetching node's
  /// Pacer, null for the coordinator and in real mode. kUnavailable covers
  /// injected faults, crashed workers and vanished tasks — all retryable
  /// with the same start_sequence. A long poll: when the buffer id has
  /// nothing new, `waiter` (if given) is registered on it and woken once
  /// pages or completion arrive, and the call counts as a request only
  /// through the fetch that collects the response.
  Result<PagesResult> GetPages(const RemoteSplit& split, int buffer_id,
                               int64_t start_sequence, int max_pages,
                               Pacer* consumer, const Waiter* waiter,
                               int64_t* ready_at_us);

  // --- worker health ---
  /// Kills `worker_id`: aborts all its tasks and makes every later call
  /// to it fail with kUnavailable. Idempotent; callable from fault
  /// injection or directly by chaos tests.
  void CrashWorker(int worker_id);
  bool WorkerAlive(int worker_id) const;
  std::vector<int> DeadWorkers() const;

  // --- observability ---
  std::optional<TaskInfo> GetTaskInfo(int worker_id, const TaskId& task);

  int64_t total_requests() const { return requests_.load(); }
  /// Latency-free request count bump (split assignment etc.).
  void CountRequest() { ++requests_; }

  /// Injected faults attributed to `query_id`'s calls so far.
  QueryFaultStats query_fault_stats(const std::string& query_id) const;

 private:
  /// Outcome of the fault/health interception of one call.
  struct CallFate {
    Status pre;        // non-OK: fail now, skip the call entirely
    bool drop = false; // perform the call, then lose the response
    int64_t delay_us = 0;  // base RPC latency + injected latency
  };

  /// Counts the request and decides its fate; never sleeps.
  CallFate Intercept(const char* site, int worker_id,
                     const std::string& query_id);
  /// One control-plane call on `task`: intercepts it, sleeps its delay,
  /// then runs `action` on the task unless the call failed up front.
  Status CallTask(const char* site, int worker_id, const TaskId& task,
                  const std::function<Status(Task*)>& action);
  Status FinishCall(const CallFate& fate, const char* site);
  void RecordFault(const std::string& query_id, bool crash);

  const EngineConfig* config_;
  std::map<int, WorkerNode*> workers_;
  mutable std::mutex mutex_;
  std::set<int> dead_workers_;
  std::atomic<int64_t> requests_{0};

  mutable std::mutex fault_mutex_;
  std::map<std::string, QueryFaultStats> query_faults_;
};

}  // namespace accordion

#endif  // ACCORDION_CLUSTER_RPC_BUS_H_
