#include "cluster/rpc_bus.h"

#include <algorithm>

#include "cluster/worker.h"
#include "common/clock.h"
#include "common/fault_injector.h"
#include "common/logging.h"
#include "exec/pacer.h"

namespace accordion {

void RpcBus::RegisterWorker(int worker_id, WorkerNode* worker) {
  std::lock_guard<std::mutex> lock(mutex_);
  workers_[worker_id] = worker;
}

WorkerNode* RpcBus::worker(int worker_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = workers_.find(worker_id);
  return it == workers_.end() ? nullptr : it->second;
}

int RpcBus::num_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(workers_.size());
}

void RpcBus::CrashWorker(int worker_id) {
  WorkerNode* w = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dead_workers_.insert(worker_id).second) return;  // already dead
    auto it = workers_.find(worker_id);
    if (it != workers_.end()) w = it->second;
  }
  ACC_LOG(kInfo) << "worker " << worker_id << " crashed";
  if (w != nullptr) w->Crash();
}

bool RpcBus::WorkerAlive(int worker_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dead_workers_.count(worker_id) == 0;
}

std::vector<int> RpcBus::DeadWorkers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<int>(dead_workers_.begin(), dead_workers_.end());
}

QueryFaultStats RpcBus::query_fault_stats(const std::string& query_id) const {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  auto it = query_faults_.find(query_id);
  return it == query_faults_.end() ? QueryFaultStats{} : it->second;
}

void RpcBus::RecordFault(const std::string& query_id, bool crash) {
  std::lock_guard<std::mutex> lock(fault_mutex_);
  QueryFaultStats& stats = query_faults_[query_id];
  ++stats.faults_injected;
  if (crash) ++stats.worker_crashes;
}

RpcBus::CallFate RpcBus::Intercept(const char* site, int worker_id,
                                   const std::string& query_id) {
  ++requests_;
  CallFate fate;
  fate.delay_us = static_cast<int64_t>(config_->rpc_latency_ms * 1000);
  if (!WorkerAlive(worker_id)) {
    fate.pre = Status::Unavailable("worker " + std::to_string(worker_id) +
                                   " is down")
                   .WithContext(site);
    return fate;
  }
  FaultInjector* injector = config_->fault_injector;
  if (injector == nullptr || !injector->enabled()) return fate;
  FaultDecision decision = injector->Decide(site);
  if (!decision.fault) return fate;
  RecordFault(query_id, decision.kind == FaultKind::kWorkerCrash);
  switch (decision.kind) {
    case FaultKind::kTransientError:
      fate.pre = Status::Unavailable("injected transient error")
                     .WithContext(site);
      return fate;
    case FaultKind::kAddedLatency:
      if (decision.latency_ms > 0) {
        fate.delay_us += static_cast<int64_t>(decision.latency_ms * 1000);
      }
      return fate;
    case FaultKind::kDropResponse:
      fate.drop = true;
      return fate;
    case FaultKind::kWorkerCrash:
      CrashWorker(worker_id);
      fate.pre = Status::Unavailable("worker " + std::to_string(worker_id) +
                                     " crashed (injected)")
                     .WithContext(site);
      return fate;
  }
  return fate;
}

Status RpcBus::FinishCall(const CallFate& fate, const char* site) {
  if (!fate.drop) return Status::OK();
  return Status::Unavailable("injected response drop").WithContext(site);
}

namespace {
Status NoWorker(int worker_id) {
  return Status::NotFound("no worker " + std::to_string(worker_id));
}
Status NoTask(const TaskId& task) {
  return Status::NotFound("no task " + task.ToString());
}
}  // namespace

Status RpcBus::CallTask(const char* site, int worker_id, const TaskId& task,
                        const std::function<Status(Task*)>& action) {
  CallFate fate = Intercept(site, worker_id, task.query_id);
  SleepForMicros(fate.delay_us);
  if (!fate.pre.ok()) return fate.pre;
  WorkerNode* w = worker(worker_id);
  if (w == nullptr) return NoWorker(worker_id);
  Task* t = w->GetTask(task);
  if (t == nullptr) return NoTask(task);
  ACCORDION_RETURN_NOT_OK(action(t));
  return FinishCall(fate, site);
}

Status RpcBus::ScheduleTask(int worker_id, TaskSpec spec,
                            NextSplitFn next_split) {
  CallFate fate = Intercept("rpc.ScheduleTask", worker_id, spec.id.query_id);
  SleepForMicros(fate.delay_us);
  if (!fate.pre.ok()) return fate.pre;
  WorkerNode* w = worker(worker_id);
  if (w == nullptr) return NoWorker(worker_id);
  ACCORDION_RETURN_NOT_OK(w->CreateTask(std::move(spec), std::move(next_split)));
  return FinishCall(fate, "rpc.ScheduleTask");
}

Status RpcBus::StartTask(int worker_id, const TaskId& task) {
  return CallTask("rpc.StartTask", worker_id, task, [](Task* t) {
    t->Start();
    return Status::OK();
  });
}

Status RpcBus::AddRemoteSplits(int worker_id, const TaskId& task,
                               int source_stage,
                               const std::vector<RemoteSplit>& splits) {
  return CallTask("rpc.AddRemoteSplits", worker_id, task, [&](Task* t) {
    t->AddRemoteSplits(source_stage, splits);
    return Status::OK();
  });
}

Status RpcBus::SetTaskDop(int worker_id, const TaskId& task, int dop) {
  return CallTask("rpc.SetTaskDop", worker_id, task,
                  [dop](Task* t) { return t->SetDop(dop); });
}

Status RpcBus::SetConsumerCount(int worker_id, const TaskId& task, int count) {
  return CallTask("rpc.SetConsumerCount", worker_id, task, [count](Task* t) {
    t->output_buffer()->SetConsumerCount(count);
    return Status::OK();
  });
}

Status RpcBus::EndSignalOutput(int worker_id, const TaskId& task,
                               int buffer_id) {
  return CallTask("rpc.EndSignalOutput", worker_id, task, [buffer_id](Task* t) {
    t->EndSignalOutput(buffer_id);
    return Status::OK();
  });
}

Status RpcBus::SignalEndSources(int worker_id, const TaskId& task) {
  return CallTask("rpc.SignalEndSources", worker_id, task, [](Task* t) {
    t->SignalEndSources();
    return Status::OK();
  });
}

Status RpcBus::AbortTask(int worker_id, const TaskId& task) {
  return CallTask("rpc.AbortTask", worker_id, task, [](Task* t) {
    t->Abort();
    return Status::OK();
  });
}

Status RpcBus::AddOutputTaskGroup(int worker_id, const TaskId& task, int count,
                                  int first_buffer_id) {
  return CallTask("rpc.AddOutputTaskGroup", worker_id, task, [&](Task* t) {
    t->AddOutputTaskGroup(count, first_buffer_id);
    return Status::OK();
  });
}

Status RpcBus::SwitchOutputToNewestGroup(int worker_id, const TaskId& task) {
  return CallTask("rpc.SwitchOutputToNewestGroup", worker_id, task,
                  [](Task* t) {
                    t->SwitchOutputToNewestGroup();
                    return Status::OK();
                  });
}

Status RpcBus::AwaitHashTables(int worker_id, const TaskId& task,
                               int64_t timeout_ms) {
  return CallTask("rpc.AwaitHashTables", worker_id, task, [&](Task* t) {
    if (t->WaitHashTablesBuilt(NowMicros() + timeout_ms * 1000)) {
      return Status::OK();
    }
    return Status::DeadlineExceeded("hash tables of task " + task.ToString() +
                                    " not built yet");
  });
}

Result<PagesResult> RpcBus::GetPages(const RemoteSplit& split, int buffer_id,
                                     int64_t start_sequence, int max_pages,
                                     Pacer* consumer, const Waiter* waiter,
                                     int64_t* ready_at_us) {
  CallFate fate =
      Intercept("rpc.GetPages", split.worker_id, split.task.query_id);
  *ready_at_us = NowMicros() + fate.delay_us;
  if (!fate.pre.ok()) return fate.pre;
  WorkerNode* w = worker(split.worker_id);
  if (w == nullptr) {
    // A vanished worker is indistinguishable from an unreachable one for
    // the data plane; kUnavailable keeps the caller retrying until the
    // health monitor resolves the query's fate.
    return Status::Unavailable("no worker " + std::to_string(split.worker_id))
        .WithContext("rpc.GetPages");
  }
  Task* t = w->GetTask(split.task);
  if (t == nullptr) {
    return Status::Unavailable("no task " + split.task.ToString())
        .WithContext("rpc.GetPages");
  }
  PagesResult result =
      t->GetPages(buffer_id, start_sequence, max_pages, waiter);
  int64_t bytes = result.TotalBytes();
  Pacer* producer = w->pacer();
  if (producer != nullptr && bytes > 0) {
    // Producer uplink and consumer downlink both carry the pages — also
    // for dropped responses: the bytes were on the wire. Reserved, not
    // blocked on: the grant time pushes out the response arrival.
    int64_t grant_us = producer->ChargeNic(bytes);
    if (consumer != nullptr && consumer != producer) {
      grant_us = std::max(grant_us, consumer->ChargeNic(bytes));
    }
    *ready_at_us = std::max(*ready_at_us, grant_us + fate.delay_us);
  }
  Status drop = FinishCall(fate, "rpc.GetPages");
  if (!drop.ok()) return drop;
  if (waiter != nullptr && result.pages.empty() && !result.complete) {
    // A long poll that found nothing is held, not answered: the fetch its
    // wake triggers delivers the response and is the one request counted.
    --requests_;
  }
  return result;
}

std::optional<TaskInfo> RpcBus::GetTaskInfo(int worker_id,
                                            const TaskId& task) {
  CallFate fate = Intercept("rpc.GetTaskInfo", worker_id, task.query_id);
  SleepForMicros(fate.delay_us);
  if (!fate.pre.ok() || fate.drop) return std::nullopt;
  WorkerNode* w = worker(worker_id);
  if (w == nullptr) return std::nullopt;
  Task* t = w->GetTask(task);
  if (t == nullptr) return std::nullopt;
  return t->Info();
}

}  // namespace accordion
