#ifndef ACCORDION_EXEC_OPERATOR_H_
#define ACCORDION_EXEC_OPERATOR_H_

#include <memory>
#include <string>

#include "exec/scheduler.h"
#include "exec/task_context.h"
#include "vector/page.h"

namespace accordion {

/// Lifecycle states from the paper (§2, Fig. 13): running (unfinished),
/// finishing (no more input; flushing state), finished.
enum class OperatorState { kRunning, kFinishing, kFinished };

/// A physical operator instance owned by exactly one driver. Pages move
/// through the operator chain via AddInput/GetOutput; the **end page**
/// protocol closes the chain: a source operator returns Page::End() when
/// exhausted (or end-signalled), the driver relays it by calling Finish()
/// on the next operator, which flushes (stateful) or passes through
/// (stateless) and eventually emits its own end page.
class Operator {
 public:
  explicit Operator(TaskContext* task_ctx) : task_ctx_(task_ctx) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// True if AddInput may be called now. Sinks use this for backpressure.
  virtual bool NeedsInput() const { return state_ == OperatorState::kRunning; }

  /// Consumes one data page (never an end page).
  virtual void AddInput(const PagePtr& page) = 0;

  /// Produces the next output page; nullptr when nothing is ready yet.
  /// Returns Page::End() exactly once, transitioning to kFinished.
  virtual PagePtr GetOutput() = 0;

  /// Signals that no more input will arrive (end page received upstream).
  virtual void Finish() {
    if (state_ == OperatorState::kRunning) state_ = OperatorState::kFinishing;
  }

  /// Asks a *source* operator to stop early: the paper's end signal used
  /// by intra-task DOP decreases. Default: behave like Finish().
  virtual void SignalEnd() { Finish(); }

  bool IsFinished() const { return state_ == OperatorState::kFinished; }
  OperatorState state() const { return state_; }

  /// Called by a driver that made no progress, on each operator that held
  /// it up. An operator waiting on a shared structure — an empty exchange,
  /// a full buffer, an unbuilt join bridge — registers `waiter` there and
  /// returns kParked, or kReady if the structure changed since the driver
  /// looked. Operators that wait only on their neighbours return
  /// kNotBlocked.
  virtual ParkState ParkOn(const Waiter& waiter) {
    (void)waiter;
    return ParkState::kNotBlocked;
  }

  /// Per-row virtual CPU cost this operator charges (microseconds).
  virtual double CostPerRowMicros() const = 0;

  virtual std::string Name() const = 0;

  TaskContext* task_ctx() { return task_ctx_; }

 protected:
  /// Emits the end page exactly once; call from GetOutput when drained.
  PagePtr EmitEnd() {
    state_ = OperatorState::kFinished;
    return Page::End();
  }

  OperatorState state_ = OperatorState::kRunning;
  TaskContext* task_ctx_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Creates operator instances for one position of a pipeline — one per
/// driver. The factory outlives all its operators; pipelines are lists of
/// factories (paper: "a pipeline is a sequence of operator factories,
/// each capable of producing multiple physical operators").
class OperatorFactory {
 public:
  virtual ~OperatorFactory() = default;

  /// @param driver_seq per-pipeline driver sequence number.
  virtual OperatorPtr Create(TaskContext* task_ctx, int driver_seq) = 0;

  virtual std::string Name() const = 0;

  /// True if instances produce rows without input (pipeline heads).
  virtual bool IsSource() const { return false; }
};

using OperatorFactoryPtr = std::shared_ptr<OperatorFactory>;

}  // namespace accordion

#endif  // ACCORDION_EXEC_OPERATOR_H_
