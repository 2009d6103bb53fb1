#include "cluster/cluster.h"

#include "common/logging.h"
#include "exec/scheduler.h"
#include "tpch/tpch.h"

namespace accordion {

AccordionCluster::AccordionCluster(Options options)
    : options_(std::move(options)) {
  // Reject nonsensical knob values up front, before any component reads
  // them.
  Status normalized = options_.engine.Normalize();
  ACC_CHECK(normalized.ok()) << normalized.ToString();
  if (options_.engine.scheduler == nullptr) {
    // Cluster-owned shared CPU pool: every driver, exchange fetcher and
    // shuffle executor of every worker runs on it. Sized by the engine
    // config, not per task, so concurrency no longer scales thread count.
    MorselScheduler::Options sched;
    sched.num_threads = options_.engine.scheduler_threads;
    sched.quantum_us = options_.engine.scheduler_quantum_us;
    scheduler_ = std::make_unique<MorselScheduler>(sched);
    options_.engine.scheduler = scheduler_.get();
  }
  bus_ = std::make_unique<RpcBus>(&options_.engine);
  storage_ = std::make_unique<StorageService>(
      options_.num_storage_nodes, options_.storage_node, &options_.engine);
  workers_.reserve(options_.num_workers);
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.push_back(std::make_unique<WorkerNode>(
        w, options_.worker_node, &options_.engine, bus_.get(),
        storage_.get()));
    bus_->RegisterWorker(w, workers_.back().get());
  }
  Catalog catalog =
      options_.use_default_catalog
          ? MakeTpchCatalog(options_.scale_factor, options_.num_storage_nodes)
          : options_.catalog;
  coordinator_ = std::make_unique<Coordinator>(
      bus_.get(), std::move(catalog), &options_.engine,
      options_.scale_factor);
}

}  // namespace accordion
