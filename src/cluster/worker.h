#ifndef ACCORDION_CLUSTER_WORKER_H_
#define ACCORDION_CLUSTER_WORKER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cluster/rpc_bus.h"
#include "exec/pacer.h"
#include "exec/task.h"

namespace accordion {

/// Storage tier: split opening plus, on a simulated cluster, one Pacer
/// per storage node. Table data comes from the deterministic TPC-H
/// generator (equivalent to reading the pre-split CSV files of the
/// paper's setup).
class StorageService {
 public:
  StorageService(int num_nodes, const NodeConfig& node_config,
                 const EngineConfig* engine_config);

  /// Opens a split for reading `columns` (table-schema channels, in page
  /// order; empty reads all). On a simulated cluster the returned source
  /// charges the storage node's NIC and the reader's (`reader`) per
  /// projected page, blocking the reading thread until both grants.
  std::unique_ptr<PageSource> OpenSplit(const SystemSplit& split,
                                        const std::vector<int>& columns,
                                        Pacer* reader);

  int num_nodes() const { return num_nodes_; }
  /// Storage node `node`'s Pacer (only its NIC is charged); null in real
  /// mode.
  Pacer* pacer(int node) {
    return pacers_.empty() ? nullptr : pacers_[node].get();
  }

 private:
  const EngineConfig* engine_config_;
  int num_nodes_;
  std::vector<std::unique_ptr<Pacer>> pacers_;  // empty in real mode
};

/// One compute node: task manager plus, on a simulated cluster, a Pacer
/// for its CPU and NIC (paper: c5.2xlarge instances). Owns its tasks; all
/// control-plane calls arrive through the RpcBus.
class WorkerNode {
 public:
  WorkerNode(int id, const NodeConfig& node_config,
             const EngineConfig* engine_config, RpcBus* bus,
             StorageService* storage);

  int id() const { return id_; }
  /// This node's simulated CPU and NIC; null in real mode.
  Pacer* pacer() { return pacer_.get(); }

  // --- task manager (invoked by RpcBus) ---
  Status CreateTask(TaskSpec spec, NextSplitFn next_split);
  Task* GetTask(const TaskId& task_id);
  Status RemoveTask(const TaskId& task_id);
  int NumTasks() const;

  /// Simulated node death (invoked by RpcBus::CrashWorker): aborts every
  /// task so driver threads wind down, and refuses new tasks. Idempotent.
  void Crash();
  bool crashed() const { return crashed_.load(); }

 private:
  std::atomic<bool> crashed_{false};
  int id_;
  const EngineConfig* engine_config_;
  RpcBus* bus_;
  StorageService* storage_;
  std::unique_ptr<Pacer> pacer_;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Task>> tasks_;
};

}  // namespace accordion

#endif  // ACCORDION_CLUSTER_WORKER_H_
