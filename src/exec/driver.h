#ifndef ACCORDION_EXEC_DRIVER_H_
#define ACCORDION_EXEC_DRIVER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "exec/operator.h"
#include "exec/scheduler.h"

namespace accordion {

/// A physical operator sequence — the smallest unit of scheduling and
/// execution in a task (paper §2). One driver == one resumable unit on
/// the shared morsel-scheduler pool: each quantum moves pages between
/// adjacent operators and relays end pages (Fig. 13), charging each
/// operator's virtual CPU cost to the worker's Pacer on a simulated
/// cluster. Instead of sleeping to pace itself to one simulated core, the
/// driver records the pace deadline and yields the pool thread until it.
/// A driver blocked on an idle upstream or on backpressure parks on the
/// structure that blocks it, which wakes it when that changes.
class Driver : public Schedulable {
 public:
  Driver(int pipeline_id, int driver_seq, std::vector<OperatorPtr> operators,
         TaskContext* task_ctx);

  /// Runs up to `quantum_us` of operator work; called only by the pool.
  Quantum RunQuantum(int64_t quantum_us) override;

  /// Paper end signal: asks the head (source) operator to stop early; the
  /// end page then relays through the chain, closing the driver cleanly.
  /// Wakes the driver if it is parked.
  void RequestEnd();

  bool done() const { return done_.load(); }
  int pipeline_id() const { return pipeline_id_; }
  int driver_seq() const { return driver_seq_; }

 private:
  /// Counts `rows` as processed and, on a simulated cluster, charges their
  /// per-row cost: reserves node CPU through the Pacer and records the
  /// pace deadline (at most one simulated core per driver). In real mode
  /// (no Pacer) this is a row count and one null check.
  void Charge(const Operator& op, int64_t rows);

  /// After a pass without progress: registers the driver with every
  /// structure that holds it up and parks, or runs on if one of them
  /// changed meanwhile. `idle`: the quantum made no progress at all.
  Quantum Park(bool idle);

  int pipeline_id_;
  int driver_seq_;
  std::vector<OperatorPtr> operators_;
  TaskContext* task_ctx_;
  std::atomic<bool> end_requested_{false};
  std::atomic<bool> done_{false};

  // Quantum-crossing execution state (touched only under the scheduler's
  // run-exclusivity: one quantum of a unit at a time).
  bool started_ = false;
  std::vector<bool> finish_relayed_;
  int64_t start_us_ = 0;
  double virtual_us_ = 0;
  /// Absolute time before which the driver owes simulated CPU pacing.
  int64_t pace_until_us_ = 0;
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_DRIVER_H_
