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

/// Hash-join shape knobs: the radix-partitioned build threshold and
/// grace-spill partitioning. Every shape probes with the one scalar batch
/// loop (HashTable::FindJoinBatch / FindJoinHashed).
struct JoinConfig {
  /// Build-row count at which an in-memory join build switches from one
  /// flat table to radix-partitioned cache-sized tables (0 disables the
  /// radix build). Only single fixed-width join keys partition; other key
  /// shapes keep the flat table.
  int64_t radix_min_build_rows = 1 << 17;

  /// Target distinct keys per radix partition table, sized so one
  /// partition's slots + keys stay roughly L2-resident.
  int64_t radix_partition_rows = 1 << 13;

  /// Upper bound on radix bits for the in-memory partitioned build.
  int radix_max_bits = 8;

  /// log2 of the spill fan-out: each grace-spill level scatters into
  /// 2^bits partition files.
  int spill_partition_bits = 4;

  /// Maximum spill repartition depth for skewed partitions. A partition
  /// still over budget at max depth is processed in build chunks
  /// (multiple probe passes) instead of recursing further.
  int max_spill_recursion = 3;
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
  double filter_us = 4;
  double project_us = 4;
  double hash_build_us = 25;
  double probe_us = 25;
  double probe_output_us = 5;
  double partial_agg_us = 15;
  double final_agg_us = 15;
  double topn_us = 10;
  double exchange_us = 2;
  double local_exchange_us = 1;
  double task_output_us = 8;
  double shuffle_executor_us = 6;
  double scale = 1.0;
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

  /// Join probe/build/spill shape knobs.
  JoinConfig join;

  /// Validates the whole config. Nonsensical values (negative budgets,
  /// max < initial buffer capacity, per-query budget above the worker
  /// budget, zero spill chunk, out-of-range radix/spill bits, a null
  /// injection rate outside [0, 1], a negative cost-model entry or RPC
  /// latency) are rejected with kInvalidArgument — never silently
  /// clamped. Called by AccordionCluster at construction.
  Status Normalize();

  /// Consumer-side resize cadence for elastic buffers (paper: ~500 ms).
  int64_t buffer_resize_interval_ms = 500;

  /// Shuffle-executor threads per shuffle buffer (paper Fig. 10b).
  int shuffle_executors = 2;

  /// Max pages returned by one GetPages RPC.
  int max_pages_per_fetch = 8;

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

  /// Cadence of the coordinator's health monitor, which escalates worker
  /// crashes and retry-exhausted tasks to query failure.
  int64_t health_check_interval_ms = 20;

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

  /// Target wall time of one scheduling quantum.
  int64_t scheduler_quantum_us = 1000;

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
  double cpu_burst_seconds = 0.05;
  double nic_burst_bytes = 4.0 * 1024 * 1024;
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_CONFIG_H_
