#include "exec/driver.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "exec/pacer.h"

namespace accordion {

Driver::Driver(int pipeline_id, int driver_seq,
               std::vector<OperatorPtr> operators, TaskContext* task_ctx)
    : pipeline_id_(pipeline_id),
      driver_seq_(driver_seq),
      operators_(std::move(operators)),
      task_ctx_(task_ctx) {
  ACC_CHECK(!operators_.empty()) << "driver with no operators";
}

void Driver::Charge(const Operator& op, int64_t rows) {
  if (rows <= 0) return;
  task_ctx_->AddProcessedRows(rows);
  Pacer* pacer = task_ctx_->pacer();
  if (pacer == nullptr) return;
  double cost_us = pacer->CpuMicros(rows, op.CostPerRowMicros());
  if (cost_us <= 0) return;
  virtual_us_ += cost_us;
  // Two constraints: the node's aggregate core budget (the Pacer's grant)
  // and this driver's own single-core speed (start + accumulated virtual
  // time). Recorded instead of slept: the driver yields the pool thread
  // until the deadline, letting other units overlap the simulated wait.
  int64_t pace_us = start_us_ + static_cast<int64_t>(virtual_us_);
  pace_until_us_ =
      std::max({pace_until_us_, pacer->ChargeCpu(cost_us), pace_us});
}

Schedulable::Quantum Driver::RunQuantum(int64_t quantum_us) {
  if (!started_) {
    started_ = true;
    start_us_ = NowMicros();
    finish_relayed_.assign(operators_.size(), false);
  }
  const int64_t deadline_us = NowMicros() + quantum_us;
  const size_t n = operators_.size();
  bool worked = false;

  while (true) {
    if (operators_.back()->IsFinished() || task_ctx_->cancelled()) {
      done_ = true;
      return Quantum::Finished();
    }
    int64_t now_us = NowMicros();
    if (pace_until_us_ > now_us) return Quantum::Waiting(pace_until_us_);
    if (now_us >= deadline_us) return Quantum::Runnable();
    if (end_requested_.exchange(false)) operators_[0]->SignalEnd();

    bool progressed = false;
    for (size_t i = 0; i + 1 < n; ++i) {
      Operator& producer = *operators_[i];
      Operator& consumer = *operators_[i + 1];
      // Relay the end page: producer finished -> consumer enters finishing.
      if (producer.IsFinished() && !finish_relayed_[i]) {
        finish_relayed_[i] = true;
        consumer.Finish();
        progressed = true;
        continue;
      }
      if (producer.IsFinished() || !consumer.NeedsInput()) continue;
      PagePtr page = producer.GetOutput();
      if (page == nullptr) continue;
      progressed = true;
      if (page->IsEnd()) {
        // Producer emitted its end page (it marked itself finished).
        finish_relayed_[i] = true;
        consumer.Finish();
      } else {
        // Cost accounting: the head source pays its production cost, and
        // every operator pays its processing cost on consumption. Each
        // page thus charges every operator it passes through once.
        if (i == 0) Charge(producer, page->num_rows());
        Charge(consumer, page->num_rows());
        consumer.AddInput(page);
      }
    }

    // Drive the sink (flush / completion signalling).
    if (operators_.back()->GetOutput() != nullptr) progressed = true;

    if (!progressed) return Park(/*idle=*/!worked);
    worked = true;
  }
}

Schedulable::Quantum Driver::Park(bool idle) {
  // Blocked on upstream data or downstream backpressure. In each pair that
  // did not move, the consumer holds it up if it refuses input, else the
  // producer had nothing to give. Every blocked chain ends at a structure;
  // were one missed, only the fallback timer would resume the driver, and
  // the scheduler would count that as a lost wake.
  const Waiter waiter{task_ctx_->scheduler(), this};
  for (size_t i = 0; i + 1 < operators_.size(); ++i) {
    Operator& producer = *operators_[i];
    if (producer.IsFinished()) continue;
    Operator& consumer = *operators_[i + 1];
    Operator& blocker = consumer.NeedsInput() ? producer : consumer;
    if (blocker.ParkOn(waiter) == ParkState::kReady) return Quantum::Runnable();
  }
  return Quantum::Parked(idle);
}

void Driver::RequestEnd() {
  end_requested_ = true;
  task_ctx_->scheduler()->Wake(this);
}

}  // namespace accordion
