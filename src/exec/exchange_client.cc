#include "exec/exchange_client.h"

#include <algorithm>
#include <functional>

#include "common/clock.h"
#include "common/logging.h"

namespace accordion {

namespace {
/// Max pages returned by one GetPages RPC.
constexpr int kMaxPagesPerFetch = 8;

/// Deterministic per-client jitter seed: clients of the same task
/// decorrelate without any global randomness source.
uint64_t JitterSeed(const std::string& task_id, int buffer_id) {
  return std::hash<std::string>{}(task_id) * 1099511628211ULL +
         static_cast<uint64_t>(buffer_id) + 1;
}
}  // namespace

ExchangeClient::ExchangeClient(TaskContext* task_ctx, int own_buffer_id,
                               FetchPagesFn fetch)
    : task_ctx_(task_ctx),
      own_buffer_id_(own_buffer_id),
      fetch_(std::move(fetch)),
      capacity_(&task_ctx->config(), task_ctx),
      rng_(JitterSeed(task_ctx->task_id(), own_buffer_id)) {}

ExchangeClient::~ExchangeClient() {
  // Safe also when Start() was never called: Retire on an unknown unit is
  // a no-op. Blocks at most one quantum if the fetcher is mid-run.
  task_ctx_->scheduler()->Retire(this);
}

void ExchangeClient::AddRemoteSplit(const RemoteSplit& split) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& s : sources_) {
      if (s.split == split) return;  // idempotent registration
    }
    Source source;
    source.split = split;
    sources_.push_back(std::move(source));
    wake = started_;
  }
  // A parked fetcher must learn of new upstreams (DOP increases wire
  // splits while the query runs).
  if (wake) task_ctx_->scheduler()->Wake(this);
}

void ExchangeClient::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_) return;
    started_ = true;
  }
  task_ctx_->scheduler()->Enqueue(task_ctx_->scheduler_group(),
                                  NonOwning(this));
}

bool ExchangeClient::AllSourcesFinishedLocked() const {
  if (sources_.empty()) return false;
  for (const auto& s : sources_) {
    if (!s.finished) return false;
  }
  return true;
}

void ExchangeClient::Fail(const Status& status) {
  failed_ = true;
  task_ctx_->ReportFailure(
      status.WithContext("exchange client of task " + task_ctx_->task_id()));
}

void ExchangeClient::CommitPending() {
  PagesResult result = std::move(pending_.result);
  const RemoteSplit target = pending_.target;
  pending_ = PendingFetch{};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& s : sources_) {
      if (!(s.split == target)) continue;
      s.attempts = 0;
      s.next_sequence += static_cast<int64_t>(result.pages.size());
      if (result.complete) s.finished = true;
      // Empty and unfinished: the fetch registered the fetcher on the
      // upstream buffer id, which signals once it has pages again.
      s.quiet = result.pages.empty() && !result.complete;
    }
    for (auto& page : result.pages) {
      buffered_bytes_ += page->ByteSize();
      queue_.push_back(std::move(page));
    }
    if (AllSourcesFinishedLocked()) complete_ = true;
  }
  if (!result.pages.empty() || complete_.load()) consumers_.WakeAll();
}

Schedulable::Quantum ExchangeClient::RunQuantum(int64_t quantum_us) {
  const int64_t deadline_us = NowMicros() + quantum_us;
  const RetryPolicy& retry = task_ctx_->config().rpc_retry;
  if (task_ctx_->cancelled()) return Quantum::Finished();
  if (failed_.load()) {
    // Unrecoverable: idle until the coordinator aborts the task, which
    // wakes the fetcher. Never complete the stream — that would truncate
    // results silently.
    return Quantum::Parked(/*idle=*/true);
  }
  // Commit a fetch whose simulated response was still in flight.
  if (pending_.active) {
    if (NowMicros() < pending_.ready_at_us) {
      return Quantum::Waiting(pending_.ready_at_us);
    }
    CommitPending();
    if (complete_.load()) return Quantum::Finished();
  }
  if (backoff_until_us_ > NowMicros()) {
    return Quantum::Waiting(backoff_until_us_);
  }
  const Waiter self{task_ctx_->scheduler(), this};
  bool fetched_any = false;
  while (NowMicros() < deadline_us) {
    // Backpressure: respect the elastic receive-buffer capacity; Poll
    // wakes the fetcher when a driver takes a page.
    if (!capacity_.Accepting(buffered_bytes_.load())) {
      room_waiters_.Add(self);
      if (capacity_.Accepting(buffered_bytes_.load())) continue;
      return Quantum::Parked(/*idle=*/!fetched_any);
    }
    RemoteSplit target;
    int64_t start_sequence = 0;
    Waiter long_poll = self;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (AllSourcesFinishedLocked()) {
        complete_ = true;
        return Quantum::Finished();
      }
      // Next source worth a fetch: unfinished, and not quiet unless its
      // buffer has signalled since. None left: every upstream is quiet (or
      // none is wired yet; AddRemoteSplit wakes the fetcher).
      bool found = false;
      for (size_t probe = 0; probe < sources_.size() && !found; ++probe) {
        size_t i = (cursor_ + probe) % sources_.size();
        Source& s = sources_[i];
        if (s.finished || (s.quiet && !s.signal->load())) continue;
        // Clear the signal before the fetch: one that lands during it is
        // kept for the next round. A failed fetch registers nothing, so
        // the source stays due until a fetch comes back empty.
        s.quiet = false;
        s.signal->store(false);
        target = s.split;
        start_sequence = s.next_sequence;
        long_poll.signal = s.signal;
        cursor_ = i + 1;
        found = true;
      }
      if (!found) return Quantum::Parked(/*idle=*/!fetched_any);
    }

    fetched_any = true;
    int64_t ready_at_us = 0;
    Result<PagesResult> fetched = fetch_(
        target, own_buffer_id_, start_sequence, kMaxPagesPerFetch,
        &long_poll, &ready_at_us);
    if (!fetched.ok()) {
      const Status& error = fetched.status();
      if (!IsRetryableRpcStatus(error)) {
        Fail(error);
        return Quantum::Parked(/*idle=*/false);
      }
      int attempts = 0;
      int64_t elapsed_ms = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& s : sources_) {
          if (!(s.split == target)) continue;
          if (s.attempts == 0) s.first_failure_ms = NowMillis();
          attempts = ++s.attempts;
          elapsed_ms = NowMillis() - s.first_failure_ms;
        }
      }
      if (attempts >= retry.max_attempts ||
          elapsed_ms > retry.attempt_deadline_ms) {
        Fail(error.WithContext("GetPages from task " + target.task.ToString() +
                               " failed after " + std::to_string(attempts) +
                               " attempts"));
        return Quantum::Parked(/*idle=*/false);
      }
      task_ctx_->AddRpcRetry();
      backoff_until_us_ =
          NowMicros() + RetryBackoffMs(retry, attempts, &rng_) * 1000;
      return Quantum::Waiting(backoff_until_us_);
    }
    pending_.active = true;
    pending_.target = target;
    pending_.result = std::move(fetched).value();
    pending_.ready_at_us = ready_at_us;
    if (NowMicros() < pending_.ready_at_us) {
      // Response still in flight (simulated RPC latency / NIC grant): yield
      // the pool thread until it lands.
      return Quantum::Waiting(pending_.ready_at_us);
    }
    CommitPending();
    if (complete_.load()) return Quantum::Finished();
  }
  return Quantum::Runnable();
}

PagePtr ExchangeClient::Poll() {
  PagePtr page;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!queue_.empty()) {
      page = queue_.front();
      queue_.pop_front();
    }
  }
  if (page != nullptr) {
    buffered_bytes_ -= page->ByteSize();
    capacity_.OnConsume(page->ByteSize());
    room_waiters_.WakeAll();
    return page;
  }
  if (complete_.load()) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return Page::End();
    return nullptr;
  }
  // Consumption outpaced production: grow the receive buffer and count a
  // turn-up (paper §5.1 bottleneck signal). A failed client keeps
  // returning nullptr until the coordinator aborts the query.
  capacity_.OnEmptyPop();
  return nullptr;
}

ParkState ExchangeClient::ParkConsumer(const Waiter& waiter) {
  consumers_.Add(waiter);
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.empty() && !complete_.load() ? ParkState::kParked
                                             : ParkState::kReady;
}

int ExchangeClient::num_sources() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(sources_.size());
}

}  // namespace accordion
