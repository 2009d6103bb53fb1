#ifndef ACCORDION_EXEC_CONFIG_H_
#define ACCORDION_EXEC_CONFIG_H_

#include <cstdint>
#include <string>

#include "common/retry_policy.h"
#include "common/status.h"

namespace accordion {

class FaultInjector;
class MorselScheduler;

/// Memory knobs, collected in one struct on the public surface. All byte
/// budgets use 0 to mean "unlimited"; negative values are rejected by
/// EngineConfig::Normalize with kInvalidArgument.
struct MemoryConfig {
  /// Initial capacity of every elastic buffer — "the size of a page"
  /// (paper §4.2.2). Small relative to table sizes so producers feel
  /// backpressure and scan progress tracks consumer pace.
  int64_t initial_buffer_bytes = 8 * 1024;

  /// Hard cap for elastic buffer growth.
  int64_t max_buffer_bytes = 4LL * 1024 * 1024;

  /// Capacity used when EngineConfig::elastic_buffers is false (the Presto
  /// baseline mode of Fig. 20; Presto default: 32 MB).
  int64_t fixed_buffer_bytes = 32LL * 1024 * 1024;

  /// Advisory per-worker memory budget. Per-query budgets (below, and the
  /// QueryOptions::max_memory_bytes override) must not exceed it.
  int64_t worker_memory_bytes = 0;

  /// Per-query budget for one hash-join build side (tracked per task).
  /// When a join's accumulated build bytes pass this, the build switches
  /// to grace spill: partitions scatter to temp files and build/probe
  /// proceed partition-pairwise. 0 disables spilling.
  int64_t query_build_bytes = 0;

  /// Directory for spill temp files. Empty: the system temp directory.
  std::string spill_dir;

  /// Write-buffer size per spill file, and the target build-chunk size
  /// when a skewed partition is processed in chunks.
  int64_t spill_chunk_bytes = 1 << 20;
};

/// Virtual per-row CPU costs (microseconds of simulated core time) that
/// drivers and shuffle executors charge to their worker's Pacer
/// (exec/pacer.h). These calibrate the *relative* weight of operators —
/// scans and joins dominate, exchanges are cheap — so that throughput
/// scales with DOP until a node's simulated cores saturate, which is the
/// behaviour the paper's experiments depend on. `scale` compresses or
/// stretches all experiments uniformly; `scale == 0` is real mode: the
/// cluster builds no Pacer and simulates neither CPU nor NIC (NodeConfig
/// is ignored). All values must be >= 0.
struct CostModel {
  double scan_us = 30;
  double hash_build_us = 25;
  double probe_us = 25;
  double shuffle_executor_us = 6;
  double scale = 1.0;

  // Per-row costs of the operators no experiment re-weights.
  static constexpr double kFilterUs = 4;
  static constexpr double kProjectUs = 4;
  static constexpr double kPartialAggUs = 15;
  static constexpr double kFinalAggUs = 15;
  static constexpr double kTopNUs = 10;
  static constexpr double kExchangeUs = 2;
  static constexpr double kLocalExchangeUs = 1;
  static constexpr double kTaskOutputUs = 8;
};

/// Engine-wide tunables shared by tasks, buffers and the simulated
/// cluster. One instance per cluster; must outlive all queries.
struct EngineConfig {
  /// Rows per page produced by table scans.
  int64_t batch_rows = 256;

  CostModel cost;

  /// Simulated latency of one RESTful/RPC call (paper: 1–10 ms); 0 adds
  /// none.
  double rpc_latency_ms = 2.0;

  /// Memory budgets, buffer capacities and spill knobs.
  MemoryConfig memory;

  /// Validates the whole config. Nonsensical values (negative budgets,
  /// max < initial buffer capacity, per-query budget above the worker
  /// budget, zero spill chunk, a null injection rate outside [0, 1], a
  /// negative cost-model entry or RPC latency) are rejected with
  /// kInvalidArgument — never silently clamped. Called by AccordionCluster
  /// at construction.
  Status Normalize();

  /// Partial aggregation flush threshold (groups) — partial state is
  /// destroy-and-rebuildable (paper §4.1).
  int64_t partial_agg_flush_groups = 1 << 16;

  /// Deterministic NULL injection at scan time (differential testing of
  /// three-valued logic): every scanned cell goes NULL with this
  /// probability, decided by a pure hash of the row's content and the
  /// seed (vector/page.h InjectNulls), so every split shape / dop / batch
  /// size sees identical nullified data. 0 disables it (the production
  /// default); the scalar reference oracle applies the same function.
  double null_injection_rate = 0.0;
  uint64_t null_injection_seed = 0;

  /// When a buffer is "always fixed size" (the Presto baseline mode of
  /// Fig. 20 / §2 challenge 3), elastic resizing is disabled and
  /// memory.fixed_buffer_bytes is used as the capacity.
  bool elastic_buffers = true;

  // --- fault model (chaos harness, tests, benches) ---

  /// Optional fault-injection control plane consulted by the RpcBus on
  /// every control- and data-plane call. Null (default) means a
  /// fault-free cluster; the owner (test/bench) keeps it alive for the
  /// cluster's lifetime.
  FaultInjector* fault_injector = nullptr;

  /// Retry schedule for idempotent RPCs: the coordinator's control-plane
  /// calls and the exchange clients' GetPages pulls. Retry exhaustion
  /// escalates the query to kFailed.
  RetryPolicy rpc_retry;

  // --- morsel scheduler (shared CPU pool) ---

  /// The shared pool that runs every driver, exchange fetcher and shuffle
  /// executor as resumable quanta. Null (default) means the process-wide
  /// default pool; clusters that want an isolated or size-capped pool own
  /// a MorselScheduler and point this at it.
  MorselScheduler* scheduler = nullptr;

  /// Pool size for a cluster-owned scheduler (see AccordionCluster):
  /// 0 means hardware_concurrency() with a fallback of 4 when that
  /// reports 0. Ignored when `scheduler` is set explicitly.
  int scheduler_threads = 0;

  // --- cluster-level admission (coordinator) ---

  /// Global inflight limiter: queries running cluster-wide, across all
  /// sessions. Submit fails with kResourceExhausted at the cap
  /// (<= 0: unlimited). Complements the per-session cap in
  /// SessionOptions::max_concurrent_queries.
  int max_concurrent_queries = 0;

  /// Per-tenant quota (QueryOptions::tenant): running queries per tenant
  /// (<= 0: unlimited).
  int max_queries_per_tenant = 0;
};

/// Per-simulated-node resources (paper: c5.2xlarge, 8 vCPU, 10 Gbps),
/// one Pacer's worth. Ignored in real mode (cost.scale == 0).
struct NodeConfig {
  double cpu_cores = 4.0;
  double nic_bytes_per_sec = 256.0 * 1024 * 1024;
  double nic_burst_bytes = 4.0 * 1024 * 1024;
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_CONFIG_H_
