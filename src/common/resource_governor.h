#ifndef ACCORDION_COMMON_RESOURCE_GOVERNOR_H_
#define ACCORDION_COMMON_RESOURCE_GOVERNOR_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

namespace accordion {

/// Token bucket with debt, used to simulate a shared node resource
/// (CPU cores, NIC bandwidth) inside the in-process cluster.
///
/// The paper runs on c5.2xlarge nodes (8 vCPU, 10 Gbps NIC). We reproduce
/// the *contention behaviour* of such nodes on a single host: each
/// simulated node's Pacer (exec/pacer.h) owns one governor for its cores
/// and one for its NIC, every simulated charge lands on one of them, and
/// when the aggregate demand on a node exceeds `rate`, callers are delayed
/// exactly as they would be by a saturated core or NIC. This is what makes
/// "adding parallelism stops helping once the node is maxed out" (paper
/// Fig. 24) observable. A real-mode cluster builds none.
///
/// Thread-safe. Reservations queue in FIFO order via negative balances.
class ResourceGovernor {
 public:
  /// @param name      label used in logs/metrics (e.g. "worker3.cpu").
  /// @param rate      sustained units per second (cpu-seconds/s == cores,
  ///                  or bytes/s).
  /// @param burst     bucket capacity in units; bounds short-term bursts.
  ResourceGovernor(std::string name, double rate, double burst);

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Reserves `amount` units and returns the absolute time (micros, same
  /// epoch as NowMicros) at which the reservation is granted. Never blocks.
  int64_t ReserveMicros(double amount);

  /// Blocks the calling thread until `amount` units are granted.
  void Consume(double amount);

  /// Fraction of capacity used over the recent window, in [0, 1+].
  /// Values near 1 mean the resource is saturated.
  double Utilization() const;

  /// Total units consumed since construction.
  double TotalConsumed() const;

  double rate() const { return rate_; }
  const std::string& name() const { return name_; }

  /// Changes the sustained rate (used to model cluster re-configuration in
  /// tests and failure-injection scenarios).
  void SetRate(double rate);

 private:
  void RefillLocked(int64_t now_us);
  void RecordLocked(int64_t now_us, double amount);

  const std::string name_;
  mutable std::mutex mutex_;
  double rate_;
  double burst_;
  double tokens_;
  int64_t last_refill_us_;
  double total_consumed_ = 0;

  // Sliding utilization window: 8 buckets x 250 ms = 2 s.
  static constexpr int kBuckets = 8;
  static constexpr int64_t kBucketUs = 250 * 1000;
  std::array<double, kBuckets> window_{};
  std::array<int64_t, kBuckets> window_start_us_{};
};

}  // namespace accordion

#endif  // ACCORDION_COMMON_RESOURCE_GOVERNOR_H_
