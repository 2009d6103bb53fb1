#include "cluster/worker.h"

#include "common/clock.h"
#include "common/logging.h"

namespace accordion {
namespace {

/// Wraps a PageSource, charging producer (storage) and consumer (worker)
/// NIC bandwidth for every page read — the data path from storage nodes
/// to compute nodes in the paper's cluster. Blocks the reading pool
/// thread until each grant.
class NicChargingPageSource : public PageSource {
 public:
  NicChargingPageSource(std::unique_ptr<PageSource> inner, Pacer* storage,
                        Pacer* reader)
      : inner_(std::move(inner)), storage_(storage), reader_(reader) {}

  PagePtr Next() override {
    PagePtr page = inner_->Next();
    if (page != nullptr && page->ByteSize() > 0) {
      SleepUntilMicros(storage_->ChargeNic(page->ByteSize()));
      if (reader_ != nullptr) {
        SleepUntilMicros(reader_->ChargeNic(page->ByteSize()));
      }
    }
    return page;
  }

 private:
  std::unique_ptr<PageSource> inner_;
  Pacer* storage_;
  Pacer* reader_;
};

}  // namespace

StorageService::StorageService(int num_nodes, const NodeConfig& node_config,
                               const EngineConfig* engine_config)
    : engine_config_(engine_config), num_nodes_(num_nodes) {
  for (int n = 0; n < num_nodes; ++n) {
    if (auto pacer = MakePacer("storage" + std::to_string(n), node_config,
                               *engine_config)) {
      pacers_.push_back(std::move(pacer));
    }
  }
}

std::unique_ptr<PageSource> StorageService::OpenSplit(
    const SystemSplit& split, const std::vector<int>& columns, Pacer* reader) {
  ACC_CHECK(split.storage_node_id >= 0 &&
            split.storage_node_id < num_nodes())
      << "split references unknown storage node " << split.storage_node_id;
  // NULL injection hashes whole rows: it reads the full schema and keeps
  // `columns` after injecting.
  const bool inject = engine_config_->null_injection_rate > 0;
  std::unique_ptr<PageSource> source = std::make_unique<GeneratorPageSource>(
      split.table, split.scale_factor, split.split_index, split.split_count,
      engine_config_->batch_rows, inject ? std::vector<int>{} : columns);
  if (inject) {
    source = std::make_unique<NullInjectingPageSource>(
        std::move(source), engine_config_->null_injection_rate,
        engine_config_->null_injection_seed, columns);
  }
  if (Pacer* storage = pacer(split.storage_node_id)) {
    source = std::make_unique<NicChargingPageSource>(std::move(source),
                                                     storage, reader);
  }
  return source;
}

WorkerNode::WorkerNode(int id, const NodeConfig& node_config,
                       const EngineConfig* engine_config, RpcBus* bus,
                       StorageService* storage)
    : id_(id),
      engine_config_(engine_config),
      bus_(bus),
      storage_(storage),
      pacer_(MakePacer("worker" + std::to_string(id), node_config,
                       *engine_config)) {}

Status WorkerNode::CreateTask(TaskSpec spec, NextSplitFn next_split) {
  TaskApis apis;
  apis.next_split = std::move(next_split);
  apis.open_split = [this](const SystemSplit& split,
                           const std::vector<int>& columns) {
    return storage_->OpenSplit(split, columns, pacer_.get());
  };
  apis.fetch_pages = [this](const RemoteSplit& split, int buffer_id,
                            int64_t start_sequence, int max_pages,
                            const Waiter* long_poll, int64_t* ready_at_us) {
    return bus_->GetPages(split, buffer_id, start_sequence, max_pages,
                          pacer_.get(), long_poll, ready_at_us);
  };

  std::string key = spec.id.ToString();
  std::lock_guard<std::mutex> lock(mutex_);
  if (crashed_.load()) {
    return Status::Unavailable("worker " + std::to_string(id_) + " is down");
  }
  if (tasks_.count(key) > 0) {
    return Status::AlreadyExists("task " + key + " already scheduled");
  }
  tasks_.emplace(key, std::make_unique<Task>(std::move(spec), std::move(apis),
                                             engine_config_, pacer_.get()));
  return Status::OK();
}

Task* WorkerNode::GetTask(const TaskId& task_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tasks_.find(task_id.ToString());
  return it == tasks_.end() ? nullptr : it->second.get();
}

Status WorkerNode::RemoveTask(const TaskId& task_id) {
  std::unique_ptr<Task> doomed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tasks_.find(task_id.ToString());
    if (it == tasks_.end()) {
      return Status::NotFound("no task " + task_id.ToString());
    }
    doomed = std::move(it->second);
    tasks_.erase(it);
  }
  // Destruction retires the task's scheduler units outside the map lock.
  doomed.reset();
  return Status::OK();
}

int WorkerNode::NumTasks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(tasks_.size());
}

void WorkerNode::Crash() {
  if (crashed_.exchange(true)) return;
  std::vector<Task*> tasks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& entry : tasks_) tasks.push_back(entry.second.get());
  }
  // Abort outside the map lock: Abort() only flips flags, but driver
  // threads it unblocks may call back into GetTask.
  for (Task* t : tasks) t->Abort();
}

}  // namespace accordion
