#ifndef ACCORDION_EXEC_PACER_H_
#define ACCORDION_EXEC_PACER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/resource_governor.h"
#include "exec/config.h"

namespace accordion {

/// The simulation seam: one simulated node's CPU cores and NIC, plus the
/// cost-model arithmetic that turns rows into virtual CPU time. Every
/// simulated charge goes through a Pacer — driver operator costs, shuffle
/// partitioning, the DOP-switch cache replay, page fetches and storage
/// reads — and each charge returns the absolute time (NowMicros epoch)
/// before which the caller may not go on. Pool units yield until then;
/// blocking callers sleep.
///
/// A real-mode cluster (cost.scale == 0) builds no Pacer: every Pacer
/// pointer is null, so each charge site is one null check.
class Pacer {
 public:
  Pacer(const std::string& node, const NodeConfig& node_config,
        const CostModel& cost)
      : cost_(cost),
        cpu_(node + ".cpu", node_config.cpu_cores, kCpuBurstSeconds),
        nic_(node + ".nic", node_config.nic_bytes_per_sec,
             node_config.nic_burst_bytes) {}

  /// Virtual CPU time of `rows` rows at `per_row_us` each: rows x per-row
  /// µs x cost.scale.
  double CpuMicros(int64_t rows, double per_row_us) const {
    return static_cast<double>(rows) * per_row_us * cost_.scale;
  }

  /// Reserves `virtual_us` of the node's cores.
  int64_t ChargeCpu(double virtual_us) {
    return cpu_.ReserveMicros(virtual_us * 1e-6);
  }

  /// Reserves the shuffle-executor cost of partitioning `rows` rows.
  int64_t ChargeShuffle(int64_t rows) {
    return ChargeCpu(CpuMicros(rows, cost_.shuffle_executor_us));
  }

  /// Reserves `bytes` of the node's NIC bandwidth.
  int64_t ChargeNic(int64_t bytes) {
    return nic_.ReserveMicros(static_cast<double>(bytes));
  }

  const ResourceGovernor& cpu() const { return cpu_; }
  const ResourceGovernor& nic() const { return nic_; }

 private:
  /// Bucket capacity of the simulated CPU, in core-seconds: how far a
  /// node's demand may run ahead of its sustained rate.
  static constexpr double kCpuBurstSeconds = 0.05;

  const CostModel cost_;
  ResourceGovernor cpu_;
  ResourceGovernor nic_;
};

/// The Pacer of simulated node `node`; null in real mode (cost.scale == 0),
/// which ignores `node_config`.
inline std::unique_ptr<Pacer> MakePacer(const std::string& node,
                                        const NodeConfig& node_config,
                                        const EngineConfig& config) {
  if (config.cost.scale == 0) return nullptr;
  return std::make_unique<Pacer>(node, node_config, config.cost);
}

}  // namespace accordion

#endif  // ACCORDION_EXEC_PACER_H_
