#include "exec/local_exchange.h"

#include "common/logging.h"

namespace accordion {

void LocalExchange::Enqueue(const PagePtr& page) {
  started_ = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(page);
    queued_bytes_ += page->ByteSize();
  }
  sources_.WakeAll();
}

void LocalExchange::SinkDriverFinished() {
  started_ = true;
  int remaining = --sink_drivers_;
  ACC_CHECK(remaining >= 0) << "local exchange sink underflow";
  if (remaining == 0) sources_.WakeAll();
}

PagePtr LocalExchange::Poll() {
  PagePtr page;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return CompleteLocked() ? Page::End() : nullptr;
    page = queue_.front();
    queue_.pop_front();
    if (!page->IsEnd()) queued_bytes_ -= page->ByteSize();
  }
  sinks_.WakeAll();
  return page;
}

void LocalExchange::PostEndPage() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Targeted end pages jump the queue so the DOP decrease takes effect
    // promptly; remaining data is handled by surviving drivers.
    queue_.push_front(Page::End());
  }
  sources_.WakeAll();
}

ParkState LocalExchange::ParkSource(const Waiter& waiter) {
  sources_.Add(waiter);
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.empty() && !CompleteLocked() ? ParkState::kParked
                                             : ParkState::kReady;
}

ParkState LocalExchange::ParkSink(const Waiter& waiter) {
  sinks_.Add(waiter);
  return AcceptingInput() ? ParkState::kReady : ParkState::kParked;
}

}  // namespace accordion
