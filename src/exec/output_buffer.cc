#include "exec/output_buffer.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "exec/pacer.h"
#include "exec/radix_partitioner.h"

namespace accordion {

namespace {
/// Consumer-side resize cadence for elastic buffers (paper: ~500 ms).
constexpr int64_t kBufferResizeIntervalMs = 500;

/// Shuffle-executor threads per shuffle buffer (paper Fig. 10b).
constexpr int kShuffleExecutors = 2;
}  // namespace

// ---------------------------------------------------------------------------
// ElasticCapacity
// ---------------------------------------------------------------------------

ElasticCapacity::ElasticCapacity(const EngineConfig* config,
                                 TaskContext* task_ctx)
    : config_(config),
      task_ctx_(task_ctx),
      capacity_(config->elastic_buffers ? config->memory.initial_buffer_bytes
                                        : config->memory.fixed_buffer_bytes),
      window_start_ms_(NowMillis()) {}

bool ElasticCapacity::Accepting(int64_t queued_bytes) const {
  return queued_bytes < capacity_.load();
}

bool ElasticCapacity::OnEmptyPop() {
  if (!config_->elastic_buffers) return false;
  int64_t cap = capacity_.load();
  int64_t grown = std::min(config_->memory.max_buffer_bytes, cap * 2);
  if (grown == cap) return false;
  capacity_.store(grown);
  ++turn_ups_;
  if (task_ctx_ != nullptr) task_ctx_->BufferTurnUp();
  return true;
}

void ElasticCapacity::OnConsume(int64_t bytes) {
  if (!config_->elastic_buffers) return;
  std::lock_guard<std::mutex> lock(window_mutex_);
  window_bytes_ += bytes;
  int64_t now = NowMillis();
  if (now - window_start_ms_ >= kBufferResizeIntervalMs) {
    // Re-fit capacity to the recent consumption rate (with headroom), so
    // production never outruns consumption by more than one window.
    int64_t fitted = std::max(config_->memory.initial_buffer_bytes,
                              window_bytes_ + window_bytes_ / 2);
    capacity_.store(std::min(config_->memory.max_buffer_bytes, fitted));
    window_bytes_ = 0;
    window_start_ms_ = now;
  }
}

// ---------------------------------------------------------------------------
// OutputBuffer
// ---------------------------------------------------------------------------

OutputBuffer::OutputBuffer(OutputBufferConfig config, TaskContext* task_ctx)
    : config_(std::move(config)),
      task_ctx_(task_ctx),
      capacity_(&task_ctx->config(), /*task_ctx=*/nullptr) {}

void OutputBuffer::ProducerDriverFinished() {
  producers_started_ = true;
  int remaining = --producer_drivers_;
  ACC_CHECK(remaining >= 0) << "producer driver count underflow";
  // The end may now be observable (and idle shuffle executors may finish).
  if (remaining == 0) WakeAllWaiters();
}

ParkState OutputBuffer::ParkProducer(const Waiter& waiter) {
  producers_.Add(waiter);
  return AcceptingInput() ? ParkState::kReady : ParkState::kParked;
}

void OutputBuffer::WakeAllWaiters() { producers_.WakeAll(); }

void OutputBuffer::AfterTake(int64_t bytes, bool complete) {
  bool room = bytes > 0;
  if (room) {
    capacity_.OnConsume(bytes);
  } else if (!complete) {
    room = capacity_.OnEmptyPop();
  }
  if (room) producers_.WakeAll();
}

void OutputBuffer::AddTaskGroup(int count, int first_buffer_id) {
  ACC_CHECK(false) << "AddTaskGroup on non-shuffle buffer";
}

void OutputBuffer::SwitchToNewestGroup() {
  ACC_CHECK(false) << "SwitchToNewestGroup on non-shuffle buffer";
}

PagesResult OutputBuffer::GetPages(int buffer_id, int64_t start_sequence,
                                   int max_pages, const Waiter* waiter) {
  std::lock_guard<std::mutex> lock(stream_mutex_);
  ConsumerStream& stream = streams_[buffer_id];
  if (start_sequence == kAutoSequence) start_sequence = stream.next_sequence;
  // Acknowledge: everything below start_sequence arrived at the consumer.
  while (stream.window_start < start_sequence && !stream.window.empty()) {
    stream.window.pop_front();
    ++stream.window_start;
  }
  if (start_sequence < stream.next_sequence) {
    // Retry after a lost response: re-serve from the unacked window.
    PagesResult result;
    size_t offset = static_cast<size_t>(start_sequence - stream.window_start);
    for (size_t i = offset; i < stream.window.size() &&
                            static_cast<int>(result.pages.size()) < max_pages;
         ++i) {
      result.pages.push_back(stream.window[i]);
    }
    result.complete =
        stream.complete_seen &&
        start_sequence + static_cast<int64_t>(result.pages.size()) ==
            stream.next_sequence;
    return result;
  }
  PagesResult result = FetchNewPages(buffer_id, max_pages, waiter);
  for (const auto& page : result.pages) {
    stream.window.push_back(page);
    ++stream.next_sequence;
  }
  if (result.complete) stream.complete_seen = true;
  result.complete = stream.complete_seen;
  return result;
}

// ---------------------------------------------------------------------------
// SharedBuffer
// ---------------------------------------------------------------------------

SharedBuffer::SharedBuffer(OutputBufferConfig config, TaskContext* task_ctx)
    : OutputBuffer(std::move(config), task_ctx) {
  // Ids below first_buffer_id are marked done: no consumer will pull them.
  consumer_done_.resize(config_.first_buffer_id, true);
  consumer_done_.resize(config_.first_buffer_id + config_.initial_consumers,
                        false);
}

bool SharedBuffer::AcceptingInput() const {
  return capacity_.Accepting(queued_bytes_.load());
}

void SharedBuffer::Enqueue(const PagePtr& page) {
  producers_started_ = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(page);
    queued_bytes_ += page->ByteSize();
  }
  consumers_.WakeAll();
}

PagesResult SharedBuffer::FetchNewPages(int buffer_id, int max_pages,
                                        const Waiter* waiter) {
  PagesResult result;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (buffer_id >= static_cast<int>(consumer_done_.size())) {
      consumer_done_.resize(buffer_id + 1, false);
    }
    if (consumer_done_[buffer_id]) {
      result.complete = true;
      return result;
    }
    while (!queue_.empty() &&
           static_cast<int>(result.pages.size()) < max_pages) {
      result.pages.push_back(queue_.front());
      queue_.pop_front();
    }
    if (queue_.empty() && NoMoreInput()) {
      result.complete = true;
      consumer_done_[buffer_id] = true;
    } else if (result.pages.empty() && waiter != nullptr) {
      consumers_.Add(*waiter);
    }
  }
  int64_t bytes = result.TotalBytes();
  queued_bytes_ -= bytes;
  AfterTake(bytes, result.complete);
  return result;
}

void SharedBuffer::SetConsumerCount(int n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (n > static_cast<int>(consumer_done_.size())) {
    consumer_done_.resize(n, false);
  }
}

void SharedBuffer::EndSignal(int buffer_id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (buffer_id >= static_cast<int>(consumer_done_.size())) {
      consumer_done_.resize(buffer_id + 1, false);
    }
    consumer_done_[buffer_id] = true;
  }
  consumers_.WakeAll();
}

void SharedBuffer::WakeAllWaiters() {
  // Orders the wake after any consumer that checked NoMoreInput under the
  // lock and registered: it is in the set by now.
  { std::lock_guard<std::mutex> lock(mutex_); }
  consumers_.WakeAll();
  OutputBuffer::WakeAllWaiters();
}

bool SharedBuffer::AllConsumersDone() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (bool done : consumer_done_) {
    if (!done) return false;
  }
  return NoMoreInput() && queue_.empty();
}

// ---------------------------------------------------------------------------
// BroadcastBuffer
// ---------------------------------------------------------------------------

BroadcastBuffer::BroadcastBuffer(OutputBufferConfig config,
                                 TaskContext* task_ctx)
    : OutputBuffer(std::move(config), task_ctx) {
  consumers_.resize(config_.first_buffer_id + config_.initial_consumers);
  for (int i = 0; i < config_.first_buffer_id; ++i) {
    consumers_[i].done = true;  // ids below the window are never pulled
  }
}

bool BroadcastBuffer::AcceptingInput() const {
  // Broadcast retains history; bound by the max elastic capacity against
  // the slowest consumer's backlog.
  std::lock_guard<std::mutex> lock(mutex_);
  size_t slowest = cache_.size();
  for (const auto& c : consumers_) {
    if (!c.done) slowest = std::min(slowest, c.next_page);
  }
  int64_t backlog = 0;
  for (size_t i = slowest; i < cache_.size(); ++i) {
    backlog += cache_[i]->ByteSize();
  }
  return capacity_.Accepting(backlog);
}

void BroadcastBuffer::Enqueue(const PagePtr& page) {
  producers_started_ = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cache_.push_back(page);
    queued_bytes_ += page->ByteSize();
  }
  consumer_waiters_.WakeAll();
}

PagesResult BroadcastBuffer::FetchNewPages(int buffer_id, int max_pages,
                                           const Waiter* waiter) {
  PagesResult result;
  int64_t bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (buffer_id >= static_cast<int>(consumers_.size())) {
      consumers_.resize(buffer_id + 1);
    }
    Consumer& consumer = consumers_[buffer_id];
    if (consumer.done) {
      result.complete = true;
      return result;
    }
    while (consumer.next_page < cache_.size() &&
           static_cast<int>(result.pages.size()) < max_pages) {
      result.pages.push_back(cache_[consumer.next_page++]);
    }
    if (consumer.next_page == cache_.size() && NoMoreInput()) {
      result.complete = true;
      consumer.done = true;
    } else if (result.pages.empty() && waiter != nullptr) {
      consumer_waiters_.Add(*waiter);
    }
    bytes = result.TotalBytes();
  }
  AfterTake(bytes, result.complete);
  return result;
}

void BroadcastBuffer::SetConsumerCount(int n) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (n > static_cast<int>(consumers_.size())) consumers_.resize(n);
}

void BroadcastBuffer::EndSignal(int buffer_id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (buffer_id >= static_cast<int>(consumers_.size())) {
      consumers_.resize(buffer_id + 1);
    }
    consumers_[buffer_id].done = true;
  }
  WakeAllWaiters();  // its consumer completes; the backlog may shrink
}

void BroadcastBuffer::WakeAllWaiters() {
  { std::lock_guard<std::mutex> lock(mutex_); }
  consumer_waiters_.WakeAll();
  OutputBuffer::WakeAllWaiters();
}

bool BroadcastBuffer::AllConsumersDone() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!NoMoreInput()) return false;
  for (const auto& c : consumers_) {
    if (!c.done) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// ShuffleBuffer
// ---------------------------------------------------------------------------

void ShuffleBuffer::Group::Resize(int n) {
  count = n;
  queues.resize(n);
  done.resize(n, false);
  queued.resize(n, 0);
  while (static_cast<int>(waiters.size()) < n) {
    waiters.push_back(std::make_unique<WaiterSet>());
  }
}

ShuffleBuffer::ShuffleBuffer(OutputBufferConfig config, TaskContext* task_ctx)
    : OutputBuffer(std::move(config), task_ctx) {
  ACC_CHECK(!config_.keys.empty()) << "shuffle buffer requires hash keys";
  Group group;
  group.first_buffer_id = config_.first_buffer_id;
  group.Resize(config_.initial_consumers);
  groups_.push_back(std::move(group));
  std::vector<ExecutorUnit*> units;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    units = NewExecutorsLocked();
  }
  EnqueueExecutors(units);
}

ShuffleBuffer::~ShuffleBuffer() {
  // Retire before the members are destroyed: blocks at most one in-flight
  // quantum per unit (the old thread-join here was the TSan-flagged
  // destruction race when executors outlived the buffer's fields).
  MorselScheduler* scheduler = task_ctx_->scheduler();
  for (auto& unit : executors_) scheduler->Retire(unit.get());
}

std::vector<ShuffleBuffer::ExecutorUnit*> ShuffleBuffer::NewExecutorsLocked() {
  std::vector<ExecutorUnit*> units;
  for (int i = 0; i < kShuffleExecutors; ++i) {
    executors_.push_back(std::make_unique<ExecutorUnit>(this));
    units.push_back(executors_.back().get());
  }
  live_executors_ += kShuffleExecutors;
  return units;
}

void ShuffleBuffer::EnqueueExecutors(const std::vector<ExecutorUnit*>& units) {
  MorselScheduler* scheduler = task_ctx_->scheduler();
  for (ExecutorUnit* unit : units) {
    scheduler->Enqueue(task_ctx_->scheduler_group(), NonOwning(unit));
  }
}

bool ShuffleBuffer::AcceptingInput() const {
  return capacity_.Accepting(queued_bytes_.load());
}

void ShuffleBuffer::Enqueue(const PagePtr& page) {
  producers_started_ = true;
  std::vector<ExecutorUnit*> restarted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    input_queue_.emplace_back(next_seq_++, page);
    queued_bytes_ += page->ByteSize();
    if (config_.retain_cache) cache_.push_back(page);
    // The executors finished once the input ended. A producer driver added
    // after that (a task DOP raise) still gets its pages delivered.
    if (live_executors_ == 0) restarted = NewExecutorsLocked();
  }
  EnqueueExecutors(restarted);
  input_waiters_.WakeAll();
}

void ShuffleBuffer::PartitionIntoGroupLocked(const PagePtr& page, Group* group,
                                             std::vector<WaiterSet*>* woken) {
  if (group->count == 1) {
    group->queues[0].push_back(page);
    group->queued[0] += page->ByteSize();
    woken->push_back(group->waiters[0].get());
    return;
  }
  // Batch-hash, split into selection vectors, then scatter each partition
  // with run-coalesced bulk copies (GatherSelection) — the same
  // vectorized scatter the radix aggregation path uses. Routing stays
  // `hash % count` so partition assignment matches the per-row protocol
  // consumers were scheduled against.
  page->HashRows(config_.keys, &scatter_hashes_);
  RadixPartitioner::BuildModuloSelections(scatter_hashes_.data(),
                                          page->num_rows(), group->count,
                                          &scatter_selections_);
  for (int p = 0; p < group->count; ++p) {
    if (scatter_selections_[p].empty()) continue;
    PagePtr part = GatherSelection(*page, scatter_selections_[p]);
    group->queues[p].push_back(part);
    group->queued[p] += part->ByteSize();
    woken->push_back(group->waiters[p].get());
  }
}

std::vector<WaiterSet*> ShuffleBuffer::AllConsumerWaitersLocked() {
  std::vector<WaiterSet*> sets;
  for (Group& group : groups_) {
    for (auto& waiters : group.waiters) sets.push_back(waiters.get());
  }
  return sets;
}

Schedulable::Quantum ShuffleBuffer::ExecutorUnit::RunQuantum(
    int64_t quantum_us) {
  return parent_->ExecutorQuantum(this, quantum_us);
}

Schedulable::Quantum ShuffleBuffer::ExecutorQuantum(ExecutorUnit* unit,
                                                    int64_t quantum_us) {
  const int64_t deadline_us = NowMicros() + quantum_us;
  bool delivered = false;
  while (true) {
    if (unit->active_) {
      // Deliver the popped page once its simulated shuffle CPU is granted.
      if (NowMicros() < unit->grant_us_) {
        return Schedulable::Quantum::Waiting(unit->grant_us_);
      }
      std::vector<WaiterSet*> woken;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t g = 0; g < groups_.size(); ++g) {
          Group& group = groups_[g];
          bool deliver = config_.multicast_groups
                             ? group.routing
                             : static_cast<int>(g) == active_group_;
          // Pages predating the group arrived through the cache replay.
          if (deliver && group.routing && unit->seq_ >= group.created_seq) {
            PartitionIntoGroupLocked(unit->page_, &group, &woken);
          }
        }
        --in_flight_;
        unit->active_ = false;
        unit->page_ = nullptr;
        delivered = true;
        // Streams that waited only for in-flight rows may complete now.
        if (DrainedLocked()) {
          for (Group& group : groups_) {
            if (!NoMoreInput() && group.routing) continue;
            for (auto& waiters : group.waiters) woken.push_back(waiters.get());
          }
        }
      }
      for (WaiterSet* waiters : woken) waiters->WakeAll();
    }
    if (NowMicros() >= deadline_us) return Schedulable::Quantum::Runnable();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (task_ctx_->cancelled() || (input_queue_.empty() && NoMoreInput())) {
        --live_executors_;
        return Schedulable::Quantum::Finished();
      }
      if (input_queue_.empty()) {
        // Enqueue, the last producer's finish and Task::Abort wake us.
        input_waiters_.Add(Waiter{task_ctx_->scheduler(), unit});
        return Schedulable::Quantum::Parked(/*idle=*/!delivered);
      }
      unit->seq_ = input_queue_.front().first;
      unit->page_ = input_queue_.front().second;
      input_queue_.pop_front();
      ++in_flight_;
      unit->active_ = true;
    }
    if (Pacer* pacer = task_ctx_->pacer()) {
      unit->grant_us_ = pacer->ChargeShuffle(unit->page_->num_rows());
    }
  }
}

bool ShuffleBuffer::DrainedLocked() const {
  return input_queue_.empty() && in_flight_ == 0 && replaying_ == 0;
}

PagesResult ShuffleBuffer::FetchNewPages(int buffer_id, int max_pages,
                                         const Waiter* waiter) {
  PagesResult result;
  int64_t bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Group* group = nullptr;
    int index = -1;
    for (auto& g : groups_) {
      if (buffer_id >= g.first_buffer_id &&
          buffer_id < g.first_buffer_id + g.count) {
        group = &g;
        index = buffer_id - g.first_buffer_id;
        break;
      }
    }
    ACC_CHECK(group != nullptr) << "unknown buffer id " << buffer_id;
    if (group->done[index]) {
      result.complete = true;
      return result;
    }
    auto& queue = group->queues[index];
    while (!queue.empty() && static_cast<int>(result.pages.size()) < max_pages) {
      bytes += queue.front()->ByteSize();
      group->queued[index] -= queue.front()->ByteSize();
      result.pages.push_back(queue.front());
      queue.pop_front();
    }
    bool no_more_for_group =
        (NoMoreInput() || !group->routing) && DrainedLocked();
    if (queue.empty() && no_more_for_group) {
      result.complete = true;
      group->done[index] = true;
    } else if (result.pages.empty() && waiter != nullptr) {
      group->waiters[index]->Add(*waiter);
    }
  }
  queued_bytes_ -= bytes;
  AfterTake(bytes, result.complete);
  return result;
}

void ShuffleBuffer::SetConsumerCount(int n) {
  std::vector<WaiterSet*> woken;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ACC_CHECK(groups_.size() == 1)
        << "SetConsumerCount after task groups were added";
    Group& group = groups_[0];
    n -= group.first_buffer_id;
    if (n <= group.count) return;
    // Growing the primary group would misroute already-partitioned rows
    // for stateful consumers; stateless consumers tolerate it.
    // Re-partitioning of queued-but-undelivered pages keeps hash consumers
    // correct.
    std::vector<PagePtr> pending;
    for (auto& queue : group.queues) {
      for (auto& page : queue) pending.push_back(page);
      queue.clear();
    }
    group.Resize(n);
    group.done.assign(n, false);
    group.queued.assign(n, 0);
    for (const auto& page : pending) {
      PartitionIntoGroupLocked(page, &group, &woken);
    }
  }
  for (WaiterSet* waiters : woken) waiters->WakeAll();
}

void ShuffleBuffer::EndSignal(int buffer_id) {
  WaiterSet* woken = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& group : groups_) {
      if (buffer_id >= group.first_buffer_id &&
          buffer_id < group.first_buffer_id + group.count) {
        group.done[buffer_id - group.first_buffer_id] = true;
        woken = group.waiters[buffer_id - group.first_buffer_id].get();
        break;
      }
    }
  }
  if (woken != nullptr) woken->WakeAll();
}

bool ShuffleBuffer::AllConsumersDone() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!NoMoreInput() || !DrainedLocked()) return false;
  for (const auto& group : groups_) {
    for (int i = 0; i < group.count; ++i) {
      if (!group.done[i]) return false;
    }
  }
  return true;
}

void ShuffleBuffer::WakeAllWaiters() {
  std::vector<WaiterSet*> sets;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sets = AllConsumerWaitersLocked();
  }
  for (WaiterSet* waiters : sets) waiters->WakeAll();
  input_waiters_.WakeAll();
  OutputBuffer::WakeAllWaiters();
}

void ShuffleBuffer::AddTaskGroup(int count, int first_buffer_id) {
  ACC_CHECK(count > 0);
  std::vector<PagePtr> replay;
  size_t group_index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Group& existing : groups_) {
      // Retried RPC (response dropped): the group already exists.
      if (existing.first_buffer_id == first_buffer_id) return;
    }
    Group group;
    group.first_buffer_id = first_buffer_id;
    group.created_seq = next_seq_;
    group.Resize(count);
    groups_.push_back(std::move(group));
    group_index = groups_.size() - 1;
    replay = cache_;  // snapshot: later pages reach the group via routing
    ++replaying_;
  }
  // Reshuffle the cache into the new group (Table 2's "shuffle time"),
  // blocking the calling control-plane thread on the simulated shuffle CPU.
  Pacer* pacer = task_ctx_->pacer();
  std::vector<WaiterSet*> woken;
  for (const auto& page : replay) {
    if (pacer != nullptr) {
      SleepUntilMicros(pacer->ChargeShuffle(page->num_rows()));
    }
    woken.clear();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      PartitionIntoGroupLocked(page, &groups_[group_index], &woken);
    }
    for (WaiterSet* waiters : woken) waiters->WakeAll();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --replaying_;
    woken = AllConsumerWaitersLocked();
  }
  for (WaiterSet* waiters : woken) waiters->WakeAll();
}

void ShuffleBuffer::SwitchToNewestGroup() {
  std::vector<WaiterSet*> woken;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    int newest = static_cast<int>(groups_.size()) - 1;
    for (int g = 0; g < static_cast<int>(groups_.size()); ++g) {
      groups_[g].routing = g == newest;
    }
    active_group_ = newest;
    woken = AllConsumerWaitersLocked();  // old groups may complete now
  }
  for (WaiterSet* waiters : woken) waiters->WakeAll();
}

std::unique_ptr<OutputBuffer> MakeOutputBuffer(OutputBufferConfig config,
                                               TaskContext* task_ctx) {
  switch (config.partitioning) {
    case Partitioning::kHash:
      return std::make_unique<ShuffleBuffer>(std::move(config), task_ctx);
    case Partitioning::kBroadcast:
      return std::make_unique<BroadcastBuffer>(std::move(config), task_ctx);
    case Partitioning::kArbitrary:
    case Partitioning::kGather:
      return std::make_unique<SharedBuffer>(std::move(config), task_ctx);
  }
  return nullptr;
}

}  // namespace accordion
