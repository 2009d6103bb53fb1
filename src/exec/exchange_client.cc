#include "exec/exchange_client.h"

#include <algorithm>
#include <functional>

#include "common/clock.h"
#include "common/logging.h"

namespace accordion {

namespace {
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
  // A fetcher idling in its empty backoff should notice new upstreams
  // promptly (DOP increases wire splits while the query runs).
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
    }
    for (auto& page : result.pages) {
      buffered_bytes_ += page->ByteSize();
      queue_.push_back(std::move(page));
    }
    if (result.complete) {
      for (auto& s : sources_) {
        if (s.split == target) s.finished = true;
      }
      if (AllSourcesFinishedLocked()) {
        complete_ = true;
        return;
      }
    }
  }
  if (result.pages.empty() && !result.complete) {
    // Exponential idle backoff instead of a fixed hot-poll cadence:
    // upstream is slow, so ease off up to ~16 ms between probes.
    ++empty_streak_;
    int64_t backoff_ms =
        std::min<int64_t>(1LL << std::min<int64_t>(empty_streak_, 4), 16);
    backoff_until_us_ = NowMicros() + backoff_ms * 1000;
  } else {
    empty_streak_ = 0;
  }
}

Schedulable::Quantum ExchangeClient::RunQuantum(int64_t quantum_us) {
  (void)quantum_us;  // one fetch round per quantum
  const RetryPolicy& retry = task_ctx_->config().rpc_retry;
  if (failed_.load()) {
    // Unrecoverable: idle until the coordinator aborts the task. Never
    // complete the stream — that would truncate results silently.
    return Quantum::Waiting(NowMicros() + 5000);
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
  // Backpressure: respect the elastic receive-buffer capacity.
  if (!capacity_.Accepting(buffered_bytes_.load())) {
    return Quantum::Waiting(NowMicros() + 1000);
  }
  RemoteSplit target;
  int64_t start_sequence = 0;
  bool have_target = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (AllSourcesFinishedLocked()) {
      complete_ = true;
      return Quantum::Finished();
    }
    for (size_t probe = 0; probe < sources_.size(); ++probe) {
      size_t i = (cursor_ + probe) % sources_.size();
      if (!sources_[i].finished) {
        target = sources_[i].split;
        start_sequence = sources_[i].next_sequence;
        cursor_ = i + 1;
        have_target = true;
        break;
      }
    }
  }
  if (!have_target) return Quantum::Waiting(NowMicros() + 1000);

  int64_t ready_at_us = 0;
  Result<PagesResult> fetched =
      fetch_(target, own_buffer_id_, start_sequence,
             task_ctx_->config().max_pages_per_fetch, &ready_at_us);
  if (!fetched.ok()) {
    const Status& error = fetched.status();
    if (!IsRetryableRpcStatus(error)) {
      Fail(error);
      return Quantum::Runnable();
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
      return Quantum::Runnable();
    }
    task_ctx_->AddRpcRetry();
    return Quantum::Waiting(NowMicros() +
                            RetryBackoffMs(retry, attempts, &rng_) * 1000);
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
  if (backoff_until_us_ > NowMicros()) {
    return Quantum::Waiting(backoff_until_us_);
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

int ExchangeClient::num_sources() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(sources_.size());
}

}  // namespace accordion
