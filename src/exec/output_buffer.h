#ifndef ACCORDION_EXEC_OUTPUT_BUFFER_H_
#define ACCORDION_EXEC_OUTPUT_BUFFER_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/scheduler.h"
#include "exec/task_context.h"
#include "plan/plan_node.h"
#include "vector/page.h"

namespace accordion {

/// Result of one GetPages poll: zero or more pages plus a completion flag.
/// `complete == true` is the wire form of the end page for that consumer.
struct PagesResult {
  std::vector<PagePtr> pages;
  bool complete = false;

  int64_t TotalBytes() const {
    int64_t bytes = 0;
    for (const auto& p : pages) bytes += p->ByteSize();
    return bytes;
  }
  int64_t TotalRows() const {
    int64_t rows = 0;
    for (const auto& p : pages) rows += p->num_rows();
    return rows;
  }
};

/// Consumer-driven elastic capacity (paper §4.2.2, Fig. 11): starts at one
/// page, doubles whenever the consumer finds the buffer empty (turn-up),
/// and is periodically re-fitted to the observed consumption rate. The
/// turn-up counter feeds bottleneck localization (§5.1). Thread-safe.
class ElasticCapacity {
 public:
  ElasticCapacity(const EngineConfig* config, TaskContext* task_ctx);

  /// Producer-side check: may more bytes be buffered?
  bool Accepting(int64_t queued_bytes) const;

  /// Consumer found the buffer empty while expecting data. Returns true
  /// if that grew the capacity.
  bool OnEmptyPop();

  /// Consumer took `bytes` out; also drives the periodic re-fit.
  void OnConsume(int64_t bytes);

  int64_t capacity_bytes() const { return capacity_.load(); }
  int64_t turn_ups() const { return turn_ups_.load(); }

 private:
  const EngineConfig* config_;
  TaskContext* task_ctx_;  // may be null (no counter reporting)
  std::atomic<int64_t> capacity_;
  std::atomic<int64_t> turn_ups_{0};
  std::mutex window_mutex_;
  int64_t window_start_ms_;
  int64_t window_bytes_ = 0;
};

/// Configuration of one task's output buffer, derived from the fragment's
/// output partitioning by the scheduler.
struct OutputBufferConfig {
  Partitioning partitioning = Partitioning::kGather;
  std::vector<int> keys;
  int initial_consumers = 1;

  /// First buffer id served (usually 0). Tasks spawned after their
  /// consuming stage was DOP-switched start directly at the consumer's
  /// current buffer-id window.
  int first_buffer_id = 0;

  /// Retain all input pages for DOP-switch rebuilds (paper §4.5's
  /// intermediate data cache). Set on stages feeding a join build side.
  bool retain_cache = false;

  /// Deliver incoming pages to every live task group (build side) rather
  /// than only the active one (probe side) during a DOP switch.
  bool multicast_groups = false;
};

/// Producer/consumer bridge between one task and its downstream stage
/// (paper §4.2.1): owns data distribution, shuffling and DOP-variation
/// adaptation, so that parallelism changes touch only buffers.
///
/// Waiting is event-driven on both sides: a task-output driver that finds
/// the buffer full parks on its capacity, and a consumer whose GetPages
/// finds nothing new for its buffer id registers on that id (the
/// exchange fetcher's long-poll, and the coordinator's root fetch). Pages
/// taken wake the producers; pages, completion, end signals and task-group
/// changes wake the consumers.
class OutputBuffer {
 public:
  OutputBuffer(OutputBufferConfig config, TaskContext* task_ctx);
  virtual ~OutputBuffer() = default;

  // --- producer side (task output operators) ---
  virtual bool AcceptingInput() const = 0;
  virtual void Enqueue(const PagePtr& page) = 0;

  /// Parks a task-output driver until the buffer accepts input again
  /// (see Operator::ParkOn).
  ParkState ParkProducer(const Waiter& waiter);

  /// Tracks the number of task-output drivers feeding this buffer.
  void AddProducerDriver() { ++producer_drivers_; }
  void ProducerDriverFinished();

  /// Wakes every unit and thread parked on the buffer (task abort, last
  /// producer finished).
  virtual void WakeAllWaiters();

  // --- consumer side (downstream exchange clients, via RPC) ---

  /// Pulls pages for `buffer_id` with lossless-retry semantics:
  /// `start_sequence` is the number of pages the consumer has already
  /// received from this buffer id. Pages handed out stay in a per-consumer
  /// unacked window until a later call's start_sequence acknowledges them,
  /// so a consumer whose response was lost in flight re-fetches with its
  /// old sequence and gets exactly the same pages again — a dropped
  /// GetPages response is invisible to the query. Completion is likewise
  /// re-observable. Pass kAutoSequence for local consumers that never
  /// retry (acks everything outstanding, serves only new pages). When
  /// nothing new is there yet, `waiter` (if given) is registered on the
  /// buffer id and woken once pages or completion arrive.
  static constexpr int64_t kAutoSequence = -1;
  PagesResult GetPages(int buffer_id, int64_t start_sequence, int max_pages,
                       const Waiter* waiter = nullptr);

  /// Legacy single-shot form: no resume window (every page is delivered
  /// exactly once, immediately acked).
  PagesResult GetPages(int buffer_id, int max_pages) {
    return GetPages(buffer_id, kAutoSequence, max_pages);
  }

  /// Grows the buffer-ID array to `n` consumers (ids [0, n)).
  virtual void SetConsumerCount(int n) = 0;

  /// Paper end signal: stop serving `buffer_id`; its consumer observes
  /// completion on the next poll.
  virtual void EndSignal(int buffer_id) = 0;

  /// True once every consumer has observed completion.
  virtual bool AllConsumersDone() const = 0;

  // --- DOP switching (shuffle buffers only, §4.5) ---
  /// Creates a new task group of `count` consumers with buffer ids
  /// [first_buffer_id, first_buffer_id + count). The id range is assigned
  /// by the coordinator so that every task of a stage serves a consistent
  /// id space. Replays the retained page cache into the new group.
  virtual void AddTaskGroup(int count, int first_buffer_id);

  /// Routes future pages only to the most recently added group
  /// (probe-side switch); older groups complete once drained.
  virtual void SwitchToNewestGroup();

  int64_t turn_ups() const { return capacity_.turn_ups(); }
  int64_t capacity_bytes() const { return capacity_.capacity_bytes(); }
  int64_t queued_bytes() const { return queued_bytes_.load(); }

 protected:
  /// Implementation hook: hands out the next batch of *new* pages for
  /// `buffer_id` (destructive pop). The resume window above it makes the
  /// public GetPages retry-safe. An empty, incomplete result registers
  /// `waiter` (if any) on the buffer id, under the lock that found it so.
  virtual PagesResult FetchNewPages(int buffer_id, int max_pages,
                                    const Waiter* waiter) = 0;

  /// Updates the elastic capacity after a consumer took `bytes` (or found
  /// nothing), and wakes the producers if that made room.
  void AfterTake(int64_t bytes, bool complete);

  bool NoMoreInput() const {
    return producers_started_ && producer_drivers_.load() == 0;
  }

  OutputBufferConfig config_;
  TaskContext* task_ctx_;
  ElasticCapacity capacity_;
  std::atomic<int64_t> queued_bytes_{0};
  std::atomic<int> producer_drivers_{0};
  std::atomic<bool> producers_started_{false};
  WaiterSet producers_;  // task-output drivers waiting for room

 private:
  /// Per-consumer delivery stream backing the resume protocol.
  struct ConsumerStream {
    int64_t window_start = 0;     // sequence of window.front()
    int64_t next_sequence = 0;    // sequence the next new page gets
    bool complete_seen = false;   // impl reported end-of-stream
    std::deque<PagePtr> window;   // delivered but unacknowledged
  };

  std::mutex stream_mutex_;
  std::map<int, ConsumerStream> streams_;  // keyed by buffer id
};

/// Arbitrary-distribution buffer (paper Fig. 10a): one page queue, any
/// consumer takes any page. Used for gather and arbitrary partitioning.
class SharedBuffer : public OutputBuffer {
 public:
  SharedBuffer(OutputBufferConfig config, TaskContext* task_ctx);

  bool AcceptingInput() const override;
  void Enqueue(const PagePtr& page) override;
  void SetConsumerCount(int n) override;
  void EndSignal(int buffer_id) override;
  bool AllConsumersDone() const override;
  void WakeAllWaiters() override;

 protected:
  PagesResult FetchNewPages(int buffer_id, int max_pages,
                            const Waiter* waiter) override;

 private:
  mutable std::mutex mutex_;
  std::deque<PagePtr> queue_;
  std::vector<bool> consumer_done_;  // indexed by buffer id
  WaiterSet consumers_;  // any consumer may take any page
};

/// Replicating buffer for broadcast joins (Fig. 16a): every consumer gets
/// every page; the full page list is cached so consumers added at runtime
/// can replay history.
class BroadcastBuffer : public OutputBuffer {
 public:
  BroadcastBuffer(OutputBufferConfig config, TaskContext* task_ctx);

  bool AcceptingInput() const override;
  void Enqueue(const PagePtr& page) override;
  void SetConsumerCount(int n) override;
  void EndSignal(int buffer_id) override;
  bool AllConsumersDone() const override;
  void WakeAllWaiters() override;

 protected:
  PagesResult FetchNewPages(int buffer_id, int max_pages,
                            const Waiter* waiter) override;

 private:
  struct Consumer {
    size_t next_page = 0;  // index into cache_
    bool done = false;
  };

  mutable std::mutex mutex_;
  std::vector<PagePtr> cache_;
  std::vector<Consumer> consumers_;
  WaiterSet consumer_waiters_;  // every page is for every consumer
};

/// Hash-partitioned buffer with shuffle executors, page cache, buffer-ID
/// groups and task groups (paper Fig. 10b + §4.5). The workhorse of
/// intra-stage elasticity for partitioned hash joins.
///
/// Shuffle executors are resumable units on the shared morsel-scheduler
/// pool (not dedicated threads): each pops a page, on a simulated cluster
/// charges the shuffle CPU cost to the worker's Pacer and yields the pool
/// thread until the grant time, then partitions the page into the live
/// task groups, waking the consumers of each buffer id that got rows. A
/// page counts as in-flight from pop to delivery, so consumers never
/// observe a spurious completion while its rows are mid-shuffle. An idle
/// executor parks on the input queue; once the input has ended and
/// drained, the executors finish (an Enqueue after that starts fresh
/// ones).
class ShuffleBuffer : public OutputBuffer {
 public:
  ShuffleBuffer(OutputBufferConfig config, TaskContext* task_ctx);
  ~ShuffleBuffer() override;

  bool AcceptingInput() const override;
  void Enqueue(const PagePtr& page) override;
  void SetConsumerCount(int n) override;
  void EndSignal(int buffer_id) override;
  bool AllConsumersDone() const override;
  void WakeAllWaiters() override;

  /// Idempotent: a group with the same first_buffer_id already exists ->
  /// no-op (a retried AddOutputTaskGroup RPC must not double-create).
  void AddTaskGroup(int count, int first_buffer_id) override;
  void SwitchToNewestGroup() override;

 protected:
  PagesResult FetchNewPages(int buffer_id, int max_pages,
                            const Waiter* waiter) override;

 private:
  struct Group {
    int first_buffer_id = 0;
    int count = 0;
    bool routing = true;  // receives newly produced pages
    /// Pages with sequence number < created_seq reached this group via the
    /// cache replay of AddTaskGroup; executors must not re-deliver them.
    int64_t created_seq = 0;
    std::vector<std::deque<PagePtr>> queues;
    std::vector<bool> done;       // end-signalled consumers
    std::vector<int64_t> queued;  // bytes per queue
    /// Consumers parked on each buffer id (heap cells: groups_ moves).
    std::vector<std::unique_ptr<WaiterSet>> waiters;

    void Resize(int n);
  };

  /// One pool-scheduled shuffle executor. State that crosses quanta (the
  /// popped page and its CPU grant) lives on the unit; mutation happens
  /// only inside quanta.
  class ExecutorUnit : public Schedulable {
   public:
    explicit ExecutorUnit(ShuffleBuffer* parent) : parent_(parent) {}
    Quantum RunQuantum(int64_t quantum_us) override;

   private:
    friend class ShuffleBuffer;
    ShuffleBuffer* parent_;
    bool active_ = false;  // a popped page awaits delivery
    int64_t seq_ = 0;
    PagePtr page_;
    int64_t grant_us_ = 0;  // CPU reservation grant time
  };

  Schedulable::Quantum ExecutorQuantum(ExecutorUnit* unit, int64_t quantum_us);
  /// Creates kShuffleExecutors fresh executor units and returns them for
  /// the caller to enqueue once it dropped mutex_. Caller holds mutex_.
  std::vector<ExecutorUnit*> NewExecutorsLocked();
  void EnqueueExecutors(const std::vector<ExecutorUnit*>& units);
  /// Partitions `page` into `group`'s queues and collects the waiter sets
  /// of the ids that received rows into `woken`. Caller holds mutex_.
  void PartitionIntoGroupLocked(const PagePtr& page, Group* group,
                                std::vector<WaiterSet*>* woken);
  bool DrainedLocked() const;
  /// Every consumer waiter set (for wakes that may complete any stream).
  std::vector<WaiterSet*> AllConsumerWaitersLocked();

  mutable std::mutex mutex_;
  std::deque<std::pair<int64_t, PagePtr>> input_queue_;  // (seq, page)
  int64_t next_seq_ = 0;
  std::vector<PagePtr> cache_;
  std::vector<Group> groups_;
  int active_group_ = 0;
  int in_flight_ = 0;   // pages popped but not yet delivered
  int replaying_ = 0;   // active AddTaskGroup cache replays
  int live_executors_ = 0;  // executor units not yet finished
  std::vector<std::unique_ptr<ExecutorUnit>> executors_;
  WaiterSet input_waiters_;  // idle executors
  // Scatter scratch reused across pages; guarded by mutex_ (the partition
  // step runs locked).
  std::vector<uint64_t> scatter_hashes_;
  std::vector<std::vector<int32_t>> scatter_selections_;
};

/// Creates the buffer implementation matching `config.partitioning`.
std::unique_ptr<OutputBuffer> MakeOutputBuffer(OutputBufferConfig config,
                                               TaskContext* task_ctx);

}  // namespace accordion

#endif  // ACCORDION_EXEC_OUTPUT_BUFFER_H_
