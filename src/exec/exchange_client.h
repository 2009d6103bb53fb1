#ifndef ACCORDION_EXEC_EXCHANGE_CLIENT_H_
#define ACCORDION_EXEC_EXCHANGE_CLIENT_H_

#include <atomic>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "common/random.h"
#include "common/retry_policy.h"
#include "exec/output_buffer.h"
#include "exec/scheduler.h"
#include "exec/split.h"
#include "exec/task_context.h"

namespace accordion {

/// Performs one GetPages RPC against an upstream task's output buffer,
/// resuming at `start_sequence` (the pages already received from that
/// buffer id). Wired by the cluster layer (RpcBus::GetPages: fault
/// injection, RPC latency and, on a simulated cluster, NIC charging);
/// kUnavailable errors are retryable. The fetch happens at once and never
/// sleeps: it may set `*ready_at_us` (NowMicros epoch) to when the
/// response arrives, and the caller must not use the pages before then.
/// A fetch that finds nothing new registers `long_poll` (if given) on the
/// buffer id, which wakes it once pages or completion arrive.
using FetchPagesFn = std::function<Result<PagesResult>(
    const RemoteSplit&, int buffer_id, int64_t start_sequence, int max_pages,
    const Waiter* long_poll, int64_t* ready_at_us)>;

/// Task-side client pulling pages from all tasks of one upstream stage
/// (paper Fig. 7's exchange receive buffer + Fig. 12a's global remote
/// split set). One client per RemoteSource node per task; shared by all
/// exchange-operator drivers of that pipeline.
///
/// The fetcher is a resumable unit on the shared morsel-scheduler pool
/// (no dedicated thread). It fetches round-robin from the upstream tasks
/// and long-polls them: a fetch that comes back empty leaves the fetcher
/// registered on that upstream buffer id, and the source is fetched again
/// only once the buffer signals it. The fetcher parks once every
/// unfinished source is quiet, and while backpressured by the elastic
/// receive buffer (§4.2.2), which wakes it when a driver takes a page. It
/// yields on a timer only while a simulated response is in flight or
/// while backing off after an error. Remote splits can be added while
/// running — that is what makes upstream intra-stage DOP increases
/// invisible to the consuming operators.
///
/// Fault handling: each source keeps its own receive sequence, so a
/// transient fetch error (injected fault, dropped response) is retried
/// with backoff at the same sequence and the upstream resume window
/// re-serves exactly the missed pages. When retries are exhausted the
/// client reports the failure to its TaskContext and idles — it never
/// fabricates completion, because that would silently truncate results.
class ExchangeClient : public Schedulable {
 public:
  ExchangeClient(TaskContext* task_ctx, int own_buffer_id, FetchPagesFn fetch);
  ~ExchangeClient() override;

  /// Registers an upstream task (startup wiring or runtime DOP increase).
  void AddRemoteSplit(const RemoteSplit& split);

  /// Enqueues the fetcher on the pool. Call after initial splits are added.
  void Start();

  /// One fetch round; called only by the pool.
  Quantum RunQuantum(int64_t quantum_us) override;

  /// Data page, nullptr (nothing buffered yet), or the end page once all
  /// upstream tasks have completed and the buffer drained.
  PagePtr Poll();

  /// Parks an exchange driver whose Poll returned nullptr until a page or
  /// the end arrives (see Operator::ParkOn).
  ParkState ParkConsumer(const Waiter& waiter);

  bool complete() const { return complete_.load(); }
  /// True once a fetch failed unrecoverably (also reported to the
  /// TaskContext, from where the coordinator escalates).
  bool failed() const { return failed_.load(); }
  int64_t buffered_bytes() const { return buffered_bytes_.load(); }
  int num_sources() const;

 private:
  bool AllSourcesFinishedLocked() const;
  /// Marks the client (and its task) failed; the fetcher idles afterwards.
  void Fail(const Status& status);
  /// Applies a successfully fetched batch whose simulated response has
  /// arrived: sequences, queue, completion, quiet sources.
  void CommitPending();

  TaskContext* task_ctx_;
  int own_buffer_id_;
  FetchPagesFn fetch_;
  ElasticCapacity capacity_;
  Random rng_;  // quantum-only (backoff jitter)

  mutable std::mutex mutex_;
  struct Source {
    RemoteSplit split;
    bool finished = false;
    /// Pages received so far == resume point for the next fetch.
    int64_t next_sequence = 0;
    /// Consecutive failed fetches (reset on success).
    int attempts = 0;
    /// Wall-clock start of the current retry run (first failure), for the
    /// deadline check.
    int64_t first_failure_ms = 0;
    /// The last fetch came back empty and left the fetcher registered on
    /// the upstream buffer id: skip the source until `signal` is set.
    bool quiet = false;
    std::shared_ptr<std::atomic<bool>> signal =
        std::make_shared<std::atomic<bool>>(false);
  };
  std::vector<Source> sources_;
  std::deque<PagePtr> queue_;
  WaiterSet consumers_;     // exchange drivers waiting for a page or the end
  WaiterSet room_waiters_;  // the fetcher, waiting for the queue to drain
  std::atomic<int64_t> buffered_bytes_{0};
  std::atomic<bool> complete_{false};
  std::atomic<bool> failed_{false};
  bool started_ = false;

  // Quantum-crossing fetch state; touched only inside quanta (the
  // scheduler runs at most one quantum of a unit at a time).
  struct PendingFetch {
    bool active = false;
    RemoteSplit target;
    PagesResult result;
    int64_t ready_at_us = 0;
  };
  PendingFetch pending_;
  size_t cursor_ = 0;
  int64_t backoff_until_us_ = 0;
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_EXCHANGE_CLIENT_H_
