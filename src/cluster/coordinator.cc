#include "cluster/coordinator.h"

#include <algorithm>
#include <iterator>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/retry_policy.h"
#include "exec/scheduler.h"
#include "tpch/tpch.h"

namespace accordion {

Coordinator::Coordinator(RpcBus* bus, Catalog catalog,
                         const EngineConfig* config, double scale_factor)
    : bus_(bus),
      catalog_(std::move(catalog)),
      config_(config),
      scale_factor_(scale_factor) {
  monitor_ = std::thread([this] { MonitorLoop(); });
}

Coordinator::~Coordinator() {
  monitor_shutdown_ = true;
  if (monitor_.joinable()) monitor_.join();
  std::vector<std::shared_ptr<QueryExec>> queries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, query] : queries_) queries.push_back(query);
  }
  for (auto& query : queries) {
    Abort(query->id);
    CleanupQueryTasks(query.get());
  }
}

Status Coordinator::RetryRpc(QueryExec* query, const char* what,
                             const std::function<Status()>& call) {
  const RetryPolicy& policy = config_->rpc_retry;
  Random rng(next_retry_seed_.fetch_add(1));
  bool saw_unavailable = false;
  int64_t start_ms = NowMillis();
  for (int attempt = 1;; ++attempt) {
    Status status = call();
    if (status.ok()) return status;
    // A dropped response makes the retried call observe its own earlier
    // side effect as kAlreadyExists — the operation took effect.
    if (saw_unavailable && status.code() == StatusCode::kAlreadyExists) {
      return Status::OK();
    }
    if (!IsRetryableRpcStatus(status)) return status;
    saw_unavailable = true;
    if (attempt >= policy.max_attempts ||
        NowMillis() - start_ms > policy.attempt_deadline_ms) {
      return status.WithContext(std::string(what) + " failed after " +
                                std::to_string(attempt) + " attempts");
    }
    if (query != nullptr) ++query->control_retries;
    SleepForMillis(RetryBackoffMs(policy, attempt, &rng));
  }
}

void Coordinator::AbortAllTasks(QueryExec* query) {
  std::vector<std::pair<int, TaskId>> tasks;
  {
    std::lock_guard<std::mutex> lock(query->registry_mutex);
    tasks = query->task_registry;
  }
  for (const auto& [worker_id, task_id] : tasks) {
    // Tasks on crashed workers were already aborted by the crash itself.
    if (!bus_->WorkerAlive(worker_id)) continue;
    // Best-effort with retry: an injected transient fault must not leave
    // a task running, but exhaustion is acceptable (the monitor's next
    // pass catches survivors).
    RetryRpc(query, "AbortTask",
             [&] { return bus_->AbortTask(worker_id, task_id); });
  }
}

void Coordinator::FailQuery(const std::shared_ptr<QueryExec>& query,
                            const Status& status) {
  QueryState expected = QueryState::kRunning;
  if (!query->state.compare_exchange_strong(expected, QueryState::kFailed)) {
    return;  // already finished / aborted / failed
  }
  {
    std::lock_guard<std::mutex> lock(query->failure_mutex);
    query->failure = status;
  }
  query->end_ms = NowMillis();
  ACC_LOG(kInfo) << "query " << query->id << " failed: " << status.ToString();
  query->fetch_waiter->Notify();
  AbortAllTasks(query.get());
  FireCompletion(query);
}

void Coordinator::FireCompletion(const std::shared_ptr<QueryExec>& query) {
  QueryState state = query->state.load();
  if (state == QueryState::kRunning) return;
  std::vector<std::function<void(QueryState)>> callbacks;
  {
    std::lock_guard<std::mutex> lock(query->completion_mutex);
    if (query->completion_fired) return;
    query->completion_fired = true;
    callbacks.swap(query->completion_callbacks);
  }
  // The query's pool-share record is no longer needed; its remaining
  // units (tasks are torn down later) fall back to the default weight.
  SchedulerFor(*config_)->ClearGroup(query->id);
  for (auto& callback : callbacks) callback(state);
}

Status Coordinator::NotifyOnCompletion(
    const std::string& query_id, std::function<void(QueryState)> callback) {
  auto query = GetQuery(query_id);
  if (query == nullptr) return Status::NotFound("no query " + query_id);
  {
    std::lock_guard<std::mutex> lock(query->completion_mutex);
    if (!query->completion_fired) {
      query->completion_callbacks.push_back(std::move(callback));
      return Status::OK();
    }
  }
  // Already completed (and callbacks swapped out): fire on this thread.
  callback(query->state.load());
  return Status::OK();
}

void Coordinator::UpdateQueryShare(QueryExec* query) {
  int parallelism = 1;
  for (const auto& [stage_id, stage] : query->stages) {
    parallelism =
        std::max(parallelism, stage.dop * std::max(1, stage.task_dop));
  }
  double weight = query->options.scheduler_weight *
                  static_cast<double>(std::max(1, parallelism));
  SchedulerFor(*config_)->SetGroupWeight(query->id, weight);
}

void Coordinator::MonitorLoop() {
  while (!monitor_shutdown_.load()) {
    SleepForMillis(config_->health_check_interval_ms);
    std::vector<std::shared_ptr<QueryExec>> queries;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto& [id, query] : queries_) queries.push_back(query);
    }
    std::vector<int> dead = bus_->DeadWorkers();
    for (auto& query : queries) {
      if (query->state.load() != QueryState::kRunning) continue;
      Status failure;
      {
        std::lock_guard<std::mutex> lock(query->registry_mutex);
        for (const auto& [worker_id, task_id] : query->task_registry) {
          if (std::find(dead.begin(), dead.end(), worker_id) != dead.end()) {
            failure = Status::Unavailable("worker " +
                                          std::to_string(worker_id) +
                                          " crashed")
                          .WithContext("query " + query->id);
            break;
          }
          // Cheap in-process heartbeat (no simulated RPC latency): the
          // paper's coordinator gets the same signal from task-info
          // polling; charging latency here would throttle detection.
          WorkerNode* w = bus_->worker(worker_id);
          Task* t = w == nullptr ? nullptr : w->GetTask(task_id);
          if (t != nullptr && t->context()->failed()) {
            failure = t->context()->failure().WithContext(
                "task " + task_id.ToString());
            break;
          }
        }
      }
      if (!failure.ok()) FailQuery(query, failure);
    }
  }
}

std::shared_ptr<Coordinator::QueryExec> Coordinator::GetQuery(
    const std::string& query_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = queries_.find(query_id);
  return it == queries_.end() ? nullptr : it->second;
}

OutputBufferConfig Coordinator::BufferConfigFor(const QueryExec& query,
                                                const StageExec& stage) const {
  OutputBufferConfig cfg;
  cfg.partitioning = stage.fragment.output_partitioning;
  cfg.keys = stage.fragment.output_keys;
  cfg.first_buffer_id = stage.consumer_window_first;
  cfg.initial_consumers = stage.consumer_window_count;
  // Stages feeding a join build side keep the intermediate data cache and
  // multicast to all task groups (paper §4.5).
  auto parent_it = query.stages.find(stage.fragment.parent_stage_id);
  if (parent_it != query.stages.end()) {
    auto role = parent_it->second.source_is_build.find(stage.fragment.stage_id);
    if (role != parent_it->second.source_is_build.end() && role->second &&
        cfg.partitioning == Partitioning::kHash) {
      cfg.retain_cache = true;
      cfg.multicast_groups = true;
    }
  }
  return cfg;
}

NextSplitFn Coordinator::SplitFeed(std::shared_ptr<QueryExec> query,
                                   int stage_id) {
  RpcBus* bus = bus_;
  return [query, stage_id, bus]() -> std::optional<SystemSplit> {
    bus->CountRequest();  // split assignment round trip
    std::lock_guard<std::mutex> lock(query->split_mutex);
    auto& splits = query->stages.at(stage_id).splits;
    if (splits.empty()) return std::nullopt;
    SystemSplit split = splits.front();
    splits.pop_front();
    return split;
  };
}

Result<TaskId> Coordinator::SpawnTask(
    QueryExec* query, StageExec* stage,
    const std::map<int, int>& source_buffer_ids) {
  TaskSpec spec;
  spec.id = TaskId{query->id, stage->fragment.stage_id, stage->next_task_seq++};
  spec.fragment = stage->fragment;
  // New tasks start at the stage's current task DOP (which tracks
  // SetTaskDop), not the submit-time default.
  spec.initial_dop = std::max(1, stage->task_dop);
  spec.output_config = BufferConfigFor(*query, *stage);
  spec.source_buffer_ids = source_buffer_ids;
  // Per-query override wins over the engine default; the worker-side
  // TaskContext falls back to memory.query_build_bytes when this is 0.
  spec.build_memory_bytes = query->options.max_memory_bytes;
  for (int child_id : stage->fragment.source_stage_ids) {
    auto& child = query->stages.at(child_id);
    std::vector<RemoteSplit> splits;
    for (size_t t = 0; t < child.tasks.size(); ++t) {
      splits.push_back(RemoteSplit{child.task_workers[t], child.tasks[t]});
    }
    spec.remote_splits[child_id] = std::move(splits);
  }

  int worker = NextWorker();
  TaskId id = spec.id;
  auto query_shared = GetQuery(query->id);
  NextSplitFn feed;
  if (stage->fragment.IsScanStage()) {
    feed = SplitFeed(query_shared, stage->fragment.stage_id);
  } else {
    feed = [] { return std::optional<SystemSplit>{}; };
  }
  // Both calls are idempotent, so transient faults and dropped responses
  // are retried; a duplicate ScheduleTask surfaces as kAlreadyExists,
  // which RetryRpc folds into success.
  ACCORDION_RETURN_NOT_OK(RetryRpc(query, "ScheduleTask", [&] {
    TaskSpec attempt_spec = spec;
    return bus_->ScheduleTask(worker, std::move(attempt_spec), feed);
  }));
  ACCORDION_RETURN_NOT_OK(
      RetryRpc(query, "StartTask", [&] { return bus_->StartTask(worker, id); }));
  stage->tasks.push_back(id);
  stage->task_workers.push_back(worker);
  ++stage->dop;
  {
    std::lock_guard<std::mutex> lock(query->registry_mutex);
    query->task_registry.emplace_back(worker, id);
  }
  if (query->state.load() != QueryState::kRunning) {
    // Lost the race against a concurrent Abort/FailQuery that already
    // swept the registry: this task must not keep running.
    bus_->AbortTask(worker, id);
  }
  return id;
}

Result<std::string> Coordinator::Submit(const PlanNodePtr& plan,
                                        const QueryOptions& options) {
  if (options.max_memory_bytes < 0) {
    return Status::InvalidArgument("QueryOptions::max_memory_bytes must be >= 0");
  }
  if (options.max_memory_bytes > 0 &&
      config_->memory.worker_memory_bytes > 0 &&
      options.max_memory_bytes > config_->memory.worker_memory_bytes) {
    return Status::InvalidArgument(
        "QueryOptions::max_memory_bytes (" +
        std::to_string(options.max_memory_bytes) +
        ") exceeds memory.worker_memory_bytes (" +
        std::to_string(config_->memory.worker_memory_bytes) + ")");
  }
  auto query = std::make_shared<QueryExec>();
  query->id = "q" + std::to_string(next_query_++);
  query->options = options;
  query->submit_ms = NowMillis();

  std::vector<PlanFragment> fragments = FragmentPlan(plan);
  for (auto& fragment : fragments) {
    StageExec stage;
    stage.fragment = fragment;
    stage.task_dop = std::max(1, options.task_dop);
    stage.source_is_build = BuildSideSourceStages(fragment);
    if (fragment.IsScanStage()) {
      auto layout = catalog_.GetLayout(fragment.scan_table);
      ACCORDION_RETURN_NOT_OK(layout.status());
      int total = layout->TotalSplits();
      for (int s = 0; s < total; ++s) {
        stage.splits.push_back(SystemSplit{
            fragment.scan_table, s, total,
            s / std::max(1, layout->splits_per_node), scale_factor_});
      }
    }
    query->stages.emplace(fragment.stage_id, std::move(stage));
  }

  // Planned initial DOP per stage.
  auto planned_dop = [&](const StageExec& stage) {
    const PlanFragment& f = stage.fragment;
    if (f.stage_id == 0 || f.has_final_stateful) return 1;
    int dop = options.stage_dop;
    auto it = options.stage_dop_overrides.find(f.stage_id);
    if (it != options.stage_dop_overrides.end()) dop = it->second;
    if (f.IsScanStage()) {
      dop = std::min<int>(dop, static_cast<int>(stage.splits.size()));
    }
    return std::max(1, dop);
  };

  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Cluster-global admission, derived by counting the live query table
    // at insert time: no reservation to leak on any later error path.
    if (config_->max_concurrent_queries > 0 ||
        config_->max_queries_per_tenant > 0) {
      int running = 0;
      int tenant_running = 0;
      for (const auto& [id, other] : queries_) {
        if (other->state.load() != QueryState::kRunning) continue;
        ++running;
        if (other->options.tenant == options.tenant) ++tenant_running;
      }
      if (config_->max_concurrent_queries > 0 &&
          running >= config_->max_concurrent_queries) {
        return Status::ResourceExhausted(
            "cluster admission limit reached (" +
            std::to_string(config_->max_concurrent_queries) +
            " concurrent queries)");
      }
      if (config_->max_queries_per_tenant > 0 &&
          tenant_running >= config_->max_queries_per_tenant) {
        return Status::ResourceExhausted(
            "tenant '" + options.tenant + "' admission limit reached (" +
            std::to_string(config_->max_queries_per_tenant) +
            " concurrent queries)");
      }
    }
    queries_[query->id] = query;
  }

  // Schedule bottom-up (deepest stages first) so that remote splits of
  // parents are known at creation time (paper §4.4).
  Stopwatch schedule_watch;
  int64_t requests_before = bus_->total_requests();
  std::vector<int> order;
  for (auto& [id, stage] : query->stages) order.push_back(id);
  std::sort(order.rbegin(), order.rend());
  for (int stage_id : order) {
    StageExec& stage = query->stages.at(stage_id);
    int dop = planned_dop(stage);
    auto parent_it = query->stages.find(stage.fragment.parent_stage_id);
    stage.consumer_window_first = 0;
    stage.consumer_window_count = parent_it != query->stages.end()
                                      ? planned_dop(parent_it->second)
                                      : 1;
    stage.next_output_buffer_id = stage.consumer_window_count;
    for (int t = 0; t < dop; ++t) {
      auto spawned = SpawnTask(query.get(), &stage, {});
      if (!spawned.ok()) {
        // Clean failure instead of a half-scheduled zombie: abort what
        // was already spawned and surface the scheduling error.
        Status failure = spawned.status().WithContext(
            "initial scheduling of query " + query->id);
        FailQuery(query, failure);
        return failure;
      }
    }
  }
  query->initial_schedule_ms = schedule_watch.ElapsedSeconds() * 1000.0;
  query->initial_schedule_requests = bus_->total_requests() - requests_before;

  // Remember stage 0's task: results are pulled from its output buffer by
  // FetchResults (cursor / Wait) rather than drained by a background
  // thread, so result buffering stays bounded by the elastic capacity and
  // producers feel backpressure from a slow client.
  StageExec& root = query->stages.at(0);
  ACC_CHECK(root.tasks.size() == 1) << "root stage must have one task";
  query->root_split = RemoteSplit{root.task_workers[0], root.tasks[0]};

  UpdateQueryShare(query.get());
  return query->id;
}

Result<PagesResult> Coordinator::FetchResults(const std::string& query_id,
                                              int max_pages,
                                              int64_t timeout_ms) {
  auto query = GetQuery(query_id);
  if (query == nullptr) return Status::NotFound("no query " + query_id);
  const int64_t deadline_us =
      NowMicros() + std::max<int64_t>(timeout_ms, 0) * 1000;
  const Waiter waiter{nullptr, nullptr, nullptr, query->fetch_waiter};
  while (true) {
    // Read before the fetch: a notification that lands after it ends the
    // wait below at once.
    const uint64_t seen = query->fetch_waiter->generation();
    auto result = FetchOnce(query, max_pages, &waiter);
    if (!result.ok() || !result->pages.empty() || result->complete ||
        NowMicros() >= deadline_us) {
      return result;
    }
    query->fetch_waiter->WaitUntil(deadline_us, seen);
  }
}

Result<PagesResult> Coordinator::FetchOnce(
    const std::shared_ptr<QueryExec>& query, int max_pages,
    const Waiter* waiter) {
  const std::string& query_id = query->id;
  std::lock_guard<std::mutex> lock(query->fetch_mutex);
  QueryState state = query->state.load();
  if (state == QueryState::kAborted) {
    return Status::Aborted("query " + query_id + " was aborted");
  }
  if (state == QueryState::kFailed) {
    std::lock_guard<std::mutex> failure_lock(query->failure_mutex);
    Status failure = query->failure;
    if (failure.ok()) failure = Status::Internal("query failed");
    return failure.WithContext("query " + query_id);
  }
  if (!query->stash.empty()) {
    // Redeliver pages a timed-out Wait consumed but could not return.
    PagesResult out;
    size_t take = std::min<size_t>(std::max(max_pages, 1),
                                   query->stash.size());
    out.pages.assign(std::make_move_iterator(query->stash.begin()),
                     std::make_move_iterator(query->stash.begin() + take));
    query->stash.erase(query->stash.begin(), query->stash.begin() + take);
    out.complete = query->fetch_complete && query->stash.empty();
    return out;
  }
  if (query->fetch_complete) {
    PagesResult done;
    done.complete = true;
    return done;
  }
  // Pull with retry at the current resume sequence: the root buffer's
  // unacked window re-serves pages whose response an injected fault
  // dropped, so transient data-plane faults are invisible here.
  PagesResult result;
  {
    const RetryPolicy& policy = config_->rpc_retry;
    Random rng(next_retry_seed_.fetch_add(1));
    int64_t start_ms = NowMillis();
    for (int attempt = 1;; ++attempt) {
      if (query->state.load() != QueryState::kRunning) break;
      int64_t ready_at_us = 0;
      auto fetched =
          bus_->GetPages(query->root_split, /*buffer_id=*/0,
                         query->fetch_sequence, max_pages,
                         /*consumer=*/nullptr, waiter, &ready_at_us);
      SleepUntilMicros(ready_at_us);  // the coordinator blocks on the reply
      if (fetched.ok()) {
        result = std::move(fetched).value();
        query->fetch_sequence += static_cast<int64_t>(result.pages.size());
        break;
      }
      if (!IsRetryableRpcStatus(fetched.status()) ||
          attempt >= policy.max_attempts ||
          NowMillis() - start_ms > policy.attempt_deadline_ms) {
        Status failure = fetched.status().WithContext(
            "fetching results of query " + query_id);
        FailQuery(query, failure);
        return failure;
      }
      ++query->control_retries;
      SleepForMillis(RetryBackoffMs(policy, attempt, &rng));
    }
  }
  // An abort or failure can race the GetPages: the buffer reports
  // completion because its producers died, not because the stream ended.
  // Re-check state so the caller sees the query's real fate instead of a
  // silently truncated result.
  if (query->state.load() == QueryState::kAborted) {
    return Status::Aborted("query " + query_id + " was aborted");
  }
  if (query->state.load() == QueryState::kFailed) {
    std::lock_guard<std::mutex> failure_lock(query->failure_mutex);
    Status failure = query->failure;
    if (failure.ok()) failure = Status::Internal("query failed");
    return failure.WithContext("query " + query_id);
  }
  if (result.complete) {
    query->fetch_complete = true;
    query->end_ms = NowMillis();
    QueryState expected = QueryState::kRunning;
    query->state.compare_exchange_strong(expected, QueryState::kFinished);
    FireCompletion(query);
  }
  return result;
}

Result<std::vector<PagePtr>> Coordinator::Wait(const std::string& query_id,
                                               int64_t timeout_ms) {
  std::vector<PagePtr> pages;
  const int64_t deadline_ms = NowMillis() + timeout_ms;
  while (true) {
    const int64_t remaining_ms =
        std::max<int64_t>(deadline_ms - NowMillis(), 0);
    auto fetched = FetchResults(query_id, /*max_pages=*/16, remaining_ms);
    ACCORDION_RETURN_NOT_OK(fetched.status());
    for (auto& page : fetched->pages) pages.push_back(std::move(page));
    if (fetched->complete) return pages;
    if (NowMillis() >= deadline_ms) {
      // Distinct timeout status: the query is still running and can be
      // aborted, retried with a longer deadline, or resumed via a cursor.
      // Pages this call already pulled go back into the query's stash so
      // the retry sees the complete stream.
      if (!pages.empty()) {
        auto query = GetQuery(query_id);
        if (query != nullptr) {
          std::lock_guard<std::mutex> lock(query->fetch_mutex);
          query->stash.insert(query->stash.begin(),
                              std::make_move_iterator(pages.begin()),
                              std::make_move_iterator(pages.end()));
        }
      }
      return Status::DeadlineExceeded("query " + query_id +
                                      " did not finish within " +
                                      std::to_string(timeout_ms) + "ms");
    }
  }
}

bool Coordinator::IsFinished(const std::string& query_id) {
  auto query = GetQuery(query_id);
  return query != nullptr && query->state.load() != QueryState::kRunning;
}

Status Coordinator::Abort(const std::string& query_id) {
  auto query = GetQuery(query_id);
  if (query == nullptr) return Status::NotFound("no query " + query_id);
  // Idempotent and race-free: the CAS decides the final state exactly
  // once; every caller (including loser of the race) still sweeps the
  // task registry, which is harmless because Task::Abort is a no-op on
  // already-terminal tasks. No control_mutex — Abort must work while a
  // tuning operation is stuck mid-flight.
  QueryState expected = QueryState::kRunning;
  if (query->state.compare_exchange_strong(expected, QueryState::kAborted)) {
    query->end_ms = NowMillis();
    query->fetch_waiter->Notify();
  }
  AbortAllTasks(query.get());
  FireCompletion(query);
  return Status::OK();
}

void Coordinator::CleanupQueryTasks(QueryExec* query) {
  for (auto& [stage_id, stage] : query->stages) {
    for (size_t t = 0; t < stage.tasks.size(); ++t) {
      WorkerNode* w = bus_->worker(stage.task_workers[t]);
      if (w != nullptr) w->RemoveTask(stage.tasks[t]);
    }
    for (size_t t = 0; t < stage.retired.size(); ++t) {
      WorkerNode* w = bus_->worker(stage.retired_workers[t]);
      if (w != nullptr) w->RemoveTask(stage.retired[t]);
    }
  }
}

Status Coordinator::SetTaskDop(const std::string& query_id, int stage_id,
                               int dop) {
  auto query = GetQuery(query_id);
  if (query == nullptr) return Status::NotFound("no query " + query_id);
  if (query->state.load() != QueryState::kRunning) {
    return Status::FailedPrecondition("query already finished");
  }
  std::lock_guard<std::mutex> lock(query->control_mutex);
  auto it = query->stages.find(stage_id);
  if (it == query->stages.end()) {
    return Status::NotFound("no stage " + std::to_string(stage_id));
  }
  Status last = Status::OK();
  for (size_t t = 0; t < it->second.tasks.size(); ++t) {
    int worker = it->second.task_workers[t];
    TaskId task = it->second.tasks[t];
    Status st = RetryRpc(query.get(), "SetTaskDop", [&] {
      return bus_->SetTaskDop(worker, task, dop);
    });
    if (!st.ok()) last = st;
  }
  if (last.ok()) {
    it->second.task_dop = std::max(1, dop);
    // More (or fewer) drivers means a larger (smaller) pool share, not a
    // different thread count.
    UpdateQueryShare(query.get());
  }
  return last;
}

Status Coordinator::SetStageDop(const std::string& query_id, int stage_id,
                                int dop, DopSwitchReport* report) {
  auto query = GetQuery(query_id);
  if (query == nullptr) return Status::NotFound("no query " + query_id);
  if (query->state.load() != QueryState::kRunning) {
    return Status::FailedPrecondition("query already finished");
  }
  std::lock_guard<std::mutex> lock(query->control_mutex);
  auto it = query->stages.find(stage_id);
  if (it == query->stages.end()) {
    return Status::NotFound("no stage " + std::to_string(stage_id));
  }
  StageExec& stage = it->second;
  if (stage.fragment.stage_id == 0 || stage.fragment.has_final_stateful) {
    return Status::FailedPrecondition(
        "stage contains stateful final operators; DOP pinned to 1");
  }
  if (stage.fragment.has_unmatched_build_join) {
    return Status::Unimplemented(kUnmatchedBuildSwitchMessage);
  }
  if (dop < 1) return Status::InvalidArgument("stage DOP must be >= 1");
  if (dop == stage.dop) return Status::OK();

  if (stage.fragment.has_join) {
    // Partitioned hash join stages need DOP switching when the probe feed
    // is hash-partitioned (paper §4.5); broadcast joins use the generic
    // path (their build buffers replay, their probe feed is arbitrary).
    bool probe_feed_hash = false;
    for (int child_id : stage.fragment.source_stage_ids) {
      auto role = stage.source_is_build.find(child_id);
      bool is_build = role != stage.source_is_build.end() && role->second;
      const StageExec& child = query->stages.at(child_id);
      if (!is_build &&
          child.fragment.output_partitioning == Partitioning::kHash) {
        probe_feed_hash = true;
      }
    }
    if (probe_feed_hash) {
      Status st = DopSwitch(query.get(), &stage, dop, report);
      if (st.ok()) UpdateQueryShare(query.get());
      return st;
    }
  }
  Status st = dop > stage.dop ? IncreaseStageDop(query.get(), &stage, dop)
                              : DecreaseStageDop(query.get(), &stage, dop);
  if (st.ok()) UpdateQueryShare(query.get());
  return st;
}

Status Coordinator::IncreaseStageDop(QueryExec* query, StageExec* stage,
                                     int dop) {
  auto parent_it = query->stages.find(stage->fragment.parent_stage_id);

  while (stage->dop < dop) {
    int new_seq = stage->next_task_seq;
    // Step 0: make room in the child buffers (buffer-ID array growth).
    for (int child_id : stage->fragment.source_stage_ids) {
      StageExec& child = query->stages.at(child_id);
      for (size_t t = 0; t < child.tasks.size(); ++t) {
        ACCORDION_RETURN_NOT_OK(RetryRpc(query, "SetConsumerCount", [&] {
          return bus_->SetConsumerCount(child.task_workers[t], child.tasks[t],
                                        new_seq + 1);
        }));
      }
      child.consumer_window_count =
          std::max(child.consumer_window_count, new_seq + 1);
      child.next_output_buffer_id =
          std::max(child.next_output_buffer_id, new_seq + 1);
    }
    // Step 1: generate the task (§4.4 step 1; child addresses are set in
    // the spec — step 3).
    auto spawned = SpawnTask(query, stage, {});
    ACCORDION_RETURN_NOT_OK(spawned.status());
    // Step 2: provide the new task's address to the parent stage tasks.
    if (parent_it != query->stages.end()) {
      StageExec& parent = parent_it->second;
      int worker = stage->task_workers.back();
      for (size_t t = 0; t < parent.tasks.size(); ++t) {
        ACCORDION_RETURN_NOT_OK(RetryRpc(query, "AddRemoteSplits", [&] {
          return bus_->AddRemoteSplits(parent.task_workers[t], parent.tasks[t],
                                       stage->fragment.stage_id,
                                       {RemoteSplit{worker, *spawned}});
        }));
      }
    }
  }
  return Status::OK();
}

Status Coordinator::DecreaseStageDop(QueryExec* query, StageExec* stage,
                                     int dop) {
  while (stage->dop > dop && stage->dop > 1) {
    TaskId doomed = stage->tasks.back();
    int doomed_worker = stage->task_workers.back();
    stage->tasks.pop_back();
    stage->task_workers.pop_back();
    --stage->dop;
    stage->retired.push_back(doomed);
    stage->retired_workers.push_back(doomed_worker);

    if (stage->fragment.IsScanStage()) {
      // End signal directly to the task's source operators.
      ACCORDION_RETURN_NOT_OK(RetryRpc(query, "SignalEndSources", [&] {
        return bus_->SignalEndSources(doomed_worker, doomed);
      }));
    } else {
      // End signals to the child stages' output buffers for this task's
      // buffer id; end pages then relay through the doomed task (§4.4).
      for (int child_id : stage->fragment.source_stage_ids) {
        StageExec& child = query->stages.at(child_id);
        for (size_t t = 0; t < child.tasks.size(); ++t) {
          ACCORDION_RETURN_NOT_OK(RetryRpc(query, "EndSignalOutput", [&] {
            return bus_->EndSignalOutput(child.task_workers[t], child.tasks[t],
                                         doomed.task_seq);
          }));
        }
      }
    }
  }
  return Status::OK();
}

Status Coordinator::DopSwitch(QueryExec* query, StageExec* stage, int dop,
                              DopSwitchReport* report) {
  Stopwatch total_watch;

  // Phase 1: new buffer-ID groups on every child task; build-side buffers
  // replay their intermediate data cache (reshuffle). The id range is
  // assigned here so that all tasks of a child stage — including ones
  // spawned later — serve a consistent id space.
  Stopwatch shuffle_watch;
  std::map<int, int> first_buffer_id;  // child stage -> first id of group
  for (int child_id : stage->fragment.source_stage_ids) {
    StageExec& child = query->stages.at(child_id);
    int first_id = child.next_output_buffer_id;
    child.next_output_buffer_id += dop;
    for (size_t t = 0; t < child.tasks.size(); ++t) {
      // Idempotent on the buffer (duplicate first_buffer_id is a no-op),
      // so dropped responses retry safely.
      ACCORDION_RETURN_NOT_OK(RetryRpc(query, "AddOutputTaskGroup", [&] {
        return bus_->AddOutputTaskGroup(child.task_workers[t], child.tasks[t],
                                        dop, first_id);
      }));
    }
    first_buffer_id[child_id] = first_id;
    child.consumer_window_first = first_id;
    child.consumer_window_count = dop;
  }
  double shuffle_seconds = shuffle_watch.ElapsedSeconds();

  // Phase 2: spawn the new task group; each new task reads its group's
  // buffer ids and rebuilds its hash-table partition from the cache.
  Stopwatch build_watch;
  auto parent_it = query->stages.find(stage->fragment.parent_stage_id);

  std::vector<TaskId> old_tasks = stage->tasks;
  std::vector<int> old_workers = stage->task_workers;
  stage->tasks.clear();
  stage->task_workers.clear();
  stage->dop = 0;

  std::vector<TaskId> new_tasks;
  for (int g = 0; g < dop; ++g) {
    std::map<int, int> source_buffer_ids;
    for (const auto& [child_id, first_id] : first_buffer_id) {
      source_buffer_ids[child_id] = first_id + g;
    }
    auto spawned = SpawnTask(query, stage, source_buffer_ids);
    ACCORDION_RETURN_NOT_OK(spawned.status());
    new_tasks.push_back(*spawned);
    if (parent_it != query->stages.end()) {
      StageExec& parent = parent_it->second;
      int worker = stage->task_workers.back();
      for (size_t t = 0; t < parent.tasks.size(); ++t) {
        ACCORDION_RETURN_NOT_OK(RetryRpc(query, "AddRemoteSplits", [&] {
          return bus_->AddRemoteSplits(parent.task_workers[t], parent.tasks[t],
                                       stage->fragment.stage_id,
                                       {RemoteSplit{worker, *spawned}});
        }));
      }
    }
  }

  // Phase 3: wait until every new task finished building its hash table
  // (the probe side only switches afterwards, §4.5). Each call returns when
  // the task's last build driver finishes, or after a short slice so that
  // the query's state is re-checked.
  constexpr int64_t kBuildWaitSliceMs = 100;
  for (size_t t = 0; t < new_tasks.size() &&
                     query->state.load() == QueryState::kRunning;) {
    Status built = bus_->AwaitHashTables(stage->task_workers[t], new_tasks[t],
                                         kBuildWaitSliceMs);
    if (built.ok()) {
      ++t;
    } else if (built.code() != StatusCode::kDeadlineExceeded) {
      // An injected fault or a dead worker: the health monitor decides
      // the query's fate; ask again after a slice.
      SleepForMillis(kBuildWaitSliceMs);
    }
  }
  double build_seconds = build_watch.ElapsedSeconds();
  if (query->state.load() != QueryState::kRunning) {
    return Status::Aborted("query " + query->id +
                           " terminated during DOP switch");
  }

  // Phase 4: switch probe routing to the new group; old tasks drain and
  // close bottom-up through the end-page relay.
  for (int child_id : stage->fragment.source_stage_ids) {
    auto role = stage->source_is_build.find(child_id);
    bool is_build = role != stage->source_is_build.end() && role->second;
    if (is_build) continue;  // multicast keeps feeding all groups
    StageExec& child = query->stages.at(child_id);
    for (size_t t = 0; t < child.tasks.size(); ++t) {
      ACCORDION_RETURN_NOT_OK(
          RetryRpc(query, "SwitchOutputToNewestGroup", [&] {
            return bus_->SwitchOutputToNewestGroup(child.task_workers[t],
                                                   child.tasks[t]);
          }));
    }
  }

  for (size_t t = 0; t < old_tasks.size(); ++t) {
    stage->retired.push_back(old_tasks[t]);
    stage->retired_workers.push_back(old_workers[t]);
  }

  stage->last_state_transfer_seconds = total_watch.ElapsedSeconds();
  if (report != nullptr) {
    report->total_seconds = total_watch.ElapsedSeconds();
    report->shuffle_seconds = shuffle_seconds;
    report->build_seconds = build_seconds;
  }
  return Status::OK();
}

Result<QuerySnapshot> Coordinator::Snapshot(const std::string& query_id) {
  auto query = GetQuery(query_id);
  if (query == nullptr) return Status::NotFound("no query " + query_id);
  QuerySnapshot snapshot;
  snapshot.query_id = query_id;
  snapshot.state = query->state.load();
  snapshot.submit_ms = query->submit_ms;
  snapshot.end_ms = query->end_ms.load();
  snapshot.initial_schedule_ms = query->initial_schedule_ms;
  snapshot.initial_schedule_requests = query->initial_schedule_requests;
  snapshot.rpc_retries = query->control_retries.load();
  QueryFaultStats fault_stats = bus_->query_fault_stats(query_id);
  snapshot.faults_injected = fault_stats.faults_injected;
  snapshot.worker_crashes = fault_stats.worker_crashes;
  if (snapshot.state == QueryState::kFailed) {
    std::lock_guard<std::mutex> failure_lock(query->failure_mutex);
    snapshot.failure_message = query->failure.ToString();
  }

  std::lock_guard<std::mutex> lock(query->control_mutex);
  for (auto& [stage_id, stage] : query->stages) {
    StageSnapshot s;
    s.stage_id = stage_id;
    s.parent_stage_id = stage.fragment.parent_stage_id;
    s.source_stage_ids = stage.fragment.source_stage_ids;
    s.is_scan = stage.fragment.IsScanStage();
    s.scan_table = stage.fragment.scan_table;
    s.has_join = stage.fragment.has_join;
    s.has_unmatched_build_join = stage.fragment.has_unmatched_build_join;
    s.has_final_stateful = stage.fragment.has_final_stateful;
    s.is_shuffle_stage = stage.fragment.is_shuffle_stage;
    s.dop = stage.dop;
    s.last_state_transfer_seconds = stage.last_state_transfer_seconds;
    s.hash_tables_built = stage.fragment.has_join;
    // Non-scan stages have an empty scan_table, hence no statistics.
    if (const TableStats* stats = catalog_.GetStats(s.scan_table)) {
      s.scan_total_rows = stats->row_count;
    }

    bool all_finished = true;
    auto absorb = [&](const TaskId& id, int worker, bool active) {
      auto info = bus_->GetTaskInfo(worker, id);
      if (!info.has_value()) return;
      snapshot.rpc_retries += info->rpc_retries;
      snapshot.peak_build_bytes += info->peak_build_bytes;
      snapshot.spill_bytes_written += info->spill_bytes_written;
      snapshot.spill_partitions += info->spill_partitions;
      s.output_rows += info->output_rows;
      s.output_bytes += info->output_bytes;
      s.processed_rows += info->processed_rows;
      s.scan_rows += info->scan_rows;
      s.turn_ups += info->turn_up_counter;
      s.hash_build_us_max =
          std::max(s.hash_build_us_max, info->hash_build_micros);
      s.cpu_util_max = std::max(s.cpu_util_max, info->cpu_utilization);
      s.nic_util_max = std::max(s.nic_util_max, info->nic_utilization);
      if (active) {
        s.task_dop = std::max(s.task_dop, info->task_dop);
        if (info->state != TaskState::kFinished &&
            info->state != TaskState::kAborted &&
            info->state != TaskState::kFailed) {
          all_finished = false;
        }
        if (info->has_join && !info->hash_tables_built) {
          s.hash_tables_built = false;
        }
        s.tasks.push_back(*info);
      }
    };
    for (size_t t = 0; t < stage.tasks.size(); ++t) {
      absorb(stage.tasks[t], stage.task_workers[t], true);
    }
    for (size_t t = 0; t < stage.retired.size(); ++t) {
      absorb(stage.retired[t], stage.retired_workers[t], false);
    }
    s.finished = all_finished && !stage.tasks.empty();
    snapshot.stages.push_back(std::move(s));
  }
  std::sort(snapshot.stages.begin(), snapshot.stages.end(),
            [](const StageSnapshot& a, const StageSnapshot& b) {
              return a.stage_id < b.stage_id;
            });
  return snapshot;
}

}  // namespace accordion
