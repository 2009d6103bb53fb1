#ifndef ACCORDION_EXEC_LOCAL_EXCHANGE_H_
#define ACCORDION_EXEC_LOCAL_EXCHANGE_H_

#include <atomic>
#include <deque>
#include <mutex>

#include "exec/config.h"
#include "exec/scheduler.h"
#include "vector/page.h"

namespace accordion {

/// The in-task pipeline-breaker structure (paper Figs. 6/7): sink drivers
/// push pages in, source drivers pull pages out. Arbitrary distribution —
/// any source driver may take any page (the build side's shared hash
/// table makes per-driver hash partitioning unnecessary).
///
/// End handling (paper §4.3): when all sink drivers have finished and the
/// queue drains, every source poll returns the end page. The task can
/// also post targeted end pages to retire exactly one source driver
/// (intra-task DOP decrease).
///
/// Source drivers that find the queue empty and sink drivers that find it
/// full park on it; every page, end page and last sink finish wakes them.
class LocalExchange {
 public:
  explicit LocalExchange(const EngineConfig* config) : config_(config) {}

  // --- sink side ---
  bool AcceptingInput() const {
    return queued_bytes_.load() < config_->memory.initial_buffer_bytes * 8;
  }
  void Enqueue(const PagePtr& page);
  void AddSinkDriver() { ++sink_drivers_; }
  void SinkDriverFinished();

  // --- source side ---
  /// Data page, nullptr (nothing ready), or an end page (driver retires).
  PagePtr Poll();

  /// Posts one end page; exactly one source driver will consume it and
  /// shut down (paper's end-signal for source pipelines).
  void PostEndPage();

  /// Parks a source driver until a page or the end arrives, or a sink
  /// driver until the queue has room (see Operator::ParkOn).
  ParkState ParkSource(const Waiter& waiter);
  ParkState ParkSink(const Waiter& waiter);

  int64_t queued_bytes() const { return queued_bytes_.load(); }

 private:
  bool CompleteLocked() const {
    return started_ && sink_drivers_.load() == 0 && queue_.empty();
  }

  const EngineConfig* config_;
  mutable std::mutex mutex_;
  std::deque<PagePtr> queue_;  // may contain targeted end pages
  std::atomic<int64_t> queued_bytes_{0};
  std::atomic<int> sink_drivers_{0};
  std::atomic<bool> started_{false};
  WaiterSet sources_;  // waiting for a page or the end
  WaiterSet sinks_;    // waiting for room
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_LOCAL_EXCHANGE_H_
