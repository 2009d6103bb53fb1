#include "exec/task.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "exec/pacer.h"
#include "exec/scheduler.h"

namespace accordion {

Task::Task(TaskSpec spec, TaskApis apis, const EngineConfig* config,
           Pacer* pacer)
    : spec_(std::move(spec)),
      apis_(std::move(apis)),
      task_ctx_(spec_.id.ToString(), config, pacer) {
  // All units of a query share one fair-queueing group, so the scheduler
  // arbitrates between queries, not between a query's own tasks. Must be
  // set before any unit is enqueued (the shuffle buffer enqueues its
  // executors at construction).
  if (!spec_.id.query_id.empty()) {
    task_ctx_.set_scheduler_group(spec_.id.query_id);
  }
  task_ctx_.set_build_budget_bytes(spec_.build_memory_bytes);
  buffer_ = MakeOutputBuffer(spec_.output_config, &task_ctx_);

  PipelineBuildContext ctx;
  ctx.output_buffer = buffer_.get();
  ctx.next_split = apis_.next_split;
  ctx.open_split = apis_.open_split;
  ctx.exchange_client = [this](int source_stage_id) {
    auto it = exchange_clients_.find(source_stage_id);
    if (it == exchange_clients_.end()) {
      int buffer_id = spec_.id.task_seq;
      auto override_it = spec_.source_buffer_ids.find(source_stage_id);
      if (override_it != spec_.source_buffer_ids.end()) {
        buffer_id = override_it->second;
      }
      auto client = std::make_unique<ExchangeClient>(&task_ctx_, buffer_id,
                                                     apis_.fetch_pages);
      it = exchange_clients_.emplace(source_stage_id, std::move(client)).first;
    }
    return it->second.get();
  };
  ctx.local_exchange = [this](int node_id) {
    auto it = local_exchanges_.find(node_id);
    if (it == local_exchanges_.end()) {
      it = local_exchanges_
               .emplace(node_id, std::make_unique<LocalExchange>(
                                     &task_ctx_.config()))
               .first;
    }
    return it->second.get();
  };
  ctx.join_bridge = [this](int node_id, std::vector<DataType> build_types,
                           std::vector<int> build_keys, JoinType join_type,
                           std::vector<DataType> probe_types) {
    auto it = join_bridges_.find(node_id);
    if (it == join_bridges_.end()) {
      it = join_bridges_
               .emplace(node_id, std::make_unique<JoinBridge>(
                                     std::move(build_types),
                                     std::move(build_keys), &task_ctx_,
                                     join_type, std::move(probe_types)))
               .first;
    }
    return it->second.get();
  };

  pipelines_ = BuildPipelines(spec_.fragment, &ctx);
  drivers_.resize(pipelines_.size());
  next_driver_seq_.assign(pipelines_.size(), 0);

  for (const auto& [stage, splits] : spec_.remote_splits) {
    auto it = exchange_clients_.find(stage);
    ACC_CHECK(it != exchange_clients_.end())
        << "remote splits for unknown source stage " << stage;
    for (const auto& split : splits) it->second->AddRemoteSplit(split);
  }
}

Task::~Task() {
  Abort();
  // Collect under the lock, retire outside it: Retire blocks until an
  // in-flight quantum returns, and that quantum may call mutex-taking
  // Task/TaskContext methods — joining under mutex_ here was a deadlock.
  std::vector<Driver*> to_retire;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& pipeline_drivers : drivers_) {
      for (auto& slot : pipeline_drivers) to_retire.push_back(slot.driver.get());
    }
  }
  MorselScheduler* scheduler = task_ctx_.scheduler();
  for (Driver* driver : to_retire) scheduler->Retire(driver);
  // Exchange clients and the output buffer retire their own units in
  // their destructors (after the drivers that reference them are gone).
}

void Task::AddDriverLocked(int pipeline_id) {
  Pipeline& pipeline = pipelines_[pipeline_id];
  int seq = next_driver_seq_[pipeline_id]++;
  std::vector<OperatorPtr> ops;
  ops.reserve(pipeline.factories.size());
  for (auto& factory : pipeline.factories) {
    ops.push_back(factory->Create(&task_ctx_, seq));
  }
  auto driver =
      std::make_unique<Driver>(pipeline_id, seq, std::move(ops), &task_ctx_);
  Driver* raw = driver.get();
  DriverSlot slot;
  slot.driver = std::move(driver);
  drivers_[pipeline_id].push_back(std::move(slot));
  task_ctx_.scheduler()->Enqueue(task_ctx_.scheduler_group(), NonOwning(raw));
}

void Task::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Idempotent: a StartTask RPC whose response was dropped is retried by
  // the coordinator, and the retry must be a no-op.
  if (state_ != TaskState::kCreated) return;
  for (size_t p = 0; p < pipelines_.size(); ++p) {
    int dop = pipelines_[p].tunable ? spec_.initial_dop : 1;
    for (int d = 0; d < dop; ++d) AddDriverLocked(static_cast<int>(p));
  }
  for (auto& [stage, client] : exchange_clients_) client->Start();
  state_ = TaskState::kRunning;
}

void Task::AddRemoteSplits(int source_stage_id,
                           const std::vector<RemoteSplit>& splits) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = exchange_clients_.find(source_stage_id);
  ACC_CHECK(it != exchange_clients_.end())
      << "no exchange client for stage " << source_stage_id;
  for (const auto& split : splits) it->second->AddRemoteSplit(split);
}

int Task::AliveDriversLocked(int pipeline_id) const {
  int alive = 0;
  for (const auto& slot : drivers_[pipeline_id]) {
    if (!slot.driver->done() && !slot.ended_requested) ++alive;
  }
  return alive;
}

Status Task::SetPipelineDop(int pipeline_id, int dop) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pipeline_id < 0 || pipeline_id >= static_cast<int>(pipelines_.size())) {
    return Status::InvalidArgument("no pipeline " +
                                   std::to_string(pipeline_id));
  }
  if (dop < 1) return Status::InvalidArgument("task DOP must be >= 1");
  if (!pipelines_[pipeline_id].tunable) {
    return Status::FailedPrecondition(
        "pipeline contains stateful final operators; DOP pinned to 1");
  }
  if (state_ != TaskState::kRunning) {
    return Status::FailedPrecondition("task is not running");
  }
  int alive = AliveDriversLocked(pipeline_id);
  for (int d = alive; d < dop; ++d) AddDriverLocked(pipeline_id);
  if (dop < alive) {
    int to_end = alive - dop;
    // Retire the most recently added drivers first.
    for (auto it = drivers_[pipeline_id].rbegin();
         it != drivers_[pipeline_id].rend() && to_end > 0; ++it) {
      if (!it->driver->done() && !it->ended_requested) {
        it->driver->RequestEnd();
        it->ended_requested = true;
        --to_end;
      }
    }
  }
  return Status::OK();
}

Status Task::SetDop(int dop) {
  std::vector<int> tunable_ids;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t p = 0; p < pipelines_.size(); ++p) {
      if (pipelines_[p].tunable) tunable_ids.push_back(static_cast<int>(p));
    }
  }
  if (tunable_ids.empty()) {
    return Status::FailedPrecondition("task has no tunable pipelines");
  }
  for (int id : tunable_ids) {
    ACCORDION_RETURN_NOT_OK(SetPipelineDop(id, dop));
  }
  return Status::OK();
}

PagesResult Task::GetPages(int buffer_id, int64_t start_sequence,
                           int max_pages, const Waiter* waiter) {
  PagesResult result =
      buffer_->GetPages(buffer_id, start_sequence, max_pages, waiter);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    UpdateStateLocked();
  }
  return result;
}

void Task::EndSignalOutput(int buffer_id) { buffer_->EndSignal(buffer_id); }

void Task::SignalEndSources() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& pipeline_drivers : drivers_) {
    for (auto& slot : pipeline_drivers) {
      if (!slot.driver->done()) {
        slot.driver->RequestEnd();
        slot.ended_requested = true;
      }
    }
  }
}

void Task::Abort() {
  task_ctx_.Cancel();
  TaskState expected = TaskState::kRunning;
  state_.compare_exchange_strong(expected, TaskState::kAborted);
  // Parked units notice the cancellation only at their next quantum.
  MorselScheduler* scheduler = task_ctx_.scheduler();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& pipeline_drivers : drivers_) {
      for (auto& slot : pipeline_drivers) scheduler->Wake(slot.driver.get());
    }
  }
  for (auto& [stage, client] : exchange_clients_) scheduler->Wake(client.get());
  buffer_->WakeAllWaiters();
  abort_waiters_.WakeAll();
}

bool Task::WaitHashTablesBuilt(int64_t deadline_us) {
  const Waiter waiter{nullptr, nullptr, nullptr,
                      std::make_shared<ThreadWaiter>()};
  while (true) {
    const uint64_t seen = waiter.thread->generation();
    abort_waiters_.Add(waiter);
    if (task_ctx_.cancelled()) return false;
    bool built = true;
    for (const auto& [id, bridge] : join_bridges_) {
      if (!bridge->built() &&
          bridge->ParkUntilBuilt(waiter) == ParkState::kParked) {
        built = false;
      }
    }
    if (built) return true;
    if (NowMicros() >= deadline_us) return false;
    waiter.thread->WaitUntil(deadline_us, seen);
  }
}

void Task::AddOutputTaskGroup(int count, int first_buffer_id) {
  buffer_->AddTaskGroup(count, first_buffer_id);
}

void Task::SwitchOutputToNewestGroup() { buffer_->SwitchToNewestGroup(); }

void Task::UpdateStateLocked() {
  if (state_ != TaskState::kRunning) return;
  if (task_ctx_.failed()) {
    state_ = TaskState::kFailed;
    return;
  }
  for (const auto& pipeline_drivers : drivers_) {
    for (const auto& slot : pipeline_drivers) {
      if (!slot.driver->done()) return;
    }
  }
  if (!buffer_->AllConsumersDone()) return;
  state_ = TaskState::kFinished;
}

bool Task::Finished() {
  std::lock_guard<std::mutex> lock(mutex_);
  UpdateStateLocked();
  return state_ == TaskState::kFinished || state_ == TaskState::kAborted ||
         state_ == TaskState::kFailed;
}

TaskInfo Task::Info() {
  std::lock_guard<std::mutex> lock(mutex_);
  UpdateStateLocked();
  TaskInfo info;
  info.id = spec_.id;
  info.state = state_;
  info.task_dop = 0;
  for (size_t p = 0; p < pipelines_.size(); ++p) {
    int alive = AliveDriversLocked(static_cast<int>(p));
    info.drivers_per_pipeline.push_back(alive);
    if (pipelines_[p].tunable) info.task_dop = std::max(info.task_dop, alive);
  }
  info.output_rows = task_ctx_.output_rows();
  info.output_bytes = task_ctx_.output_bytes();
  info.scan_rows = task_ctx_.scan_rows();
  info.processed_rows = task_ctx_.processed_rows();
  info.turn_up_counter = task_ctx_.turn_up_counter();
  info.hash_build_micros = task_ctx_.hash_build_micros();
  info.buffer_queued_bytes = buffer_->queued_bytes();
  info.peak_build_bytes = task_ctx_.peak_build_bytes();
  info.spill_bytes_written = task_ctx_.spill_bytes_written();
  info.spill_partitions = task_ctx_.spill_partitions();
  if (const Pacer* pacer = task_ctx_.pacer()) {
    info.cpu_utilization = pacer->cpu().Utilization();
    info.nic_utilization = pacer->nic().Utilization();
  }
  info.has_join = !join_bridges_.empty();
  info.hash_tables_built = info.has_join;
  for (const auto& [id, bridge] : join_bridges_) {
    if (!bridge->built()) info.hash_tables_built = false;
  }
  info.failed = task_ctx_.failed();
  if (info.failed) info.failure_message = task_ctx_.failure().ToString();
  info.rpc_retries = task_ctx_.rpc_retries();
  return info;
}

}  // namespace accordion
