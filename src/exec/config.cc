#include "exec/config.h"

#include <utility>

namespace accordion {

Status EngineConfig::Normalize() {
  if (memory.initial_buffer_bytes <= 0) {
    return Status::InvalidArgument("memory.initial_buffer_bytes must be > 0");
  }
  if (memory.max_buffer_bytes <= 0) {
    return Status::InvalidArgument("memory.max_buffer_bytes must be > 0");
  }
  if (memory.max_buffer_bytes < memory.initial_buffer_bytes) {
    return Status::InvalidArgument(
        "memory.max_buffer_bytes (" + std::to_string(memory.max_buffer_bytes) +
        ") is below memory.initial_buffer_bytes (" +
        std::to_string(memory.initial_buffer_bytes) + ")");
  }
  if (memory.fixed_buffer_bytes <= 0) {
    return Status::InvalidArgument("memory.fixed_buffer_bytes must be > 0");
  }
  if (memory.worker_memory_bytes < 0) {
    return Status::InvalidArgument("memory.worker_memory_bytes must be >= 0");
  }
  if (memory.query_build_bytes < 0) {
    return Status::InvalidArgument("memory.query_build_bytes must be >= 0");
  }
  if (memory.worker_memory_bytes > 0 && memory.query_build_bytes > 0 &&
      memory.query_build_bytes > memory.worker_memory_bytes) {
    return Status::InvalidArgument(
        "memory.query_build_bytes (" +
        std::to_string(memory.query_build_bytes) +
        ") exceeds memory.worker_memory_bytes (" +
        std::to_string(memory.worker_memory_bytes) + ")");
  }
  if (memory.spill_chunk_bytes <= 0) {
    return Status::InvalidArgument("memory.spill_chunk_bytes must be > 0");
  }

  if (null_injection_rate < 0 || null_injection_rate > 1) {
    return Status::InvalidArgument("null_injection_rate must be in [0, 1]");
  }

  const std::pair<const char*, double> non_negative[] = {
      {"cost.scan_us", cost.scan_us},
      {"cost.hash_build_us", cost.hash_build_us},
      {"cost.probe_us", cost.probe_us},
      {"cost.shuffle_executor_us", cost.shuffle_executor_us},
      {"cost.scale", cost.scale},
      {"rpc_latency_ms", rpc_latency_ms},
  };
  for (const auto& [name, value] : non_negative) {
    // Written so that NaN fails too.
    if (!(value >= 0)) {
      return Status::InvalidArgument(std::string(name) + " must be >= 0");
    }
  }
  return Status::OK();
}

}  // namespace accordion
