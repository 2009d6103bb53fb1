#ifndef ACCORDION_EXEC_SCHEDULER_H_
#define ACCORDION_EXEC_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace accordion {

struct EngineConfig;

/// A resumable unit of work driven by the shared CPU pool — a driver, an
/// exchange fetcher or a shuffle executor. The pool calls RunQuantum
/// repeatedly; the unit does up to `quantum_us` of work and yields instead
/// of blocking, so a fixed-size pool can multiplex every driver of every
/// concurrent query (morsel-driven scheduling, Leis et al.).
class Schedulable {
 public:
  struct Quantum {
    enum class State {
      kRunnable,  // more work available right now — requeue
      kWaiting,   // a timed wait: nothing to do before `resume_at_us`
                  // (simulated pacing, RPC latency, retry backoff); a
                  // Wake() resumes earlier
      kParked,    // waiting for an event: the unit registered with the
                  // structure it found empty or full, which Wake()s it
      kFinished,  // unit completed; the scheduler drops it
    };
    State state = State::kRunnable;
    int64_t resume_at_us = 0;  // absolute NowMicros time, kWaiting only
    /// kParked only: the quantum did no work before parking again.
    bool idle = false;

    static Quantum Runnable() { return Quantum{State::kRunnable, 0}; }
    static Quantum Waiting(int64_t resume_at_us) {
      return Quantum{State::kWaiting, resume_at_us};
    }
    static Quantum Parked(bool idle) {
      return Quantum{State::kParked, 0, idle};
    }
    static Quantum Finished() { return Quantum{State::kFinished, 0}; }
  };

  virtual ~Schedulable() = default;

  /// Runs up to `quantum_us` of work. Must not block on locks held across
  /// quanta, other units' progress, or simulated latency — yield instead.
  virtual Quantum RunQuantum(int64_t quantum_us) = 0;
};

/// Non-owning handle for units whose lifetime is managed by their task
/// structures (drivers, exchange clients, shuffle buffers). The owner must
/// Retire() the unit before destroying it.
inline std::shared_ptr<Schedulable> NonOwning(Schedulable* unit) {
  return std::shared_ptr<Schedulable>(unit, [](Schedulable*) {});
}

/// The shared, fixed-size CPU pool with weighted fair queueing across
/// queries (paper §5.4's latency-constraint substrate; ROADMAP open item
/// 1). Every unit belongs to a group — the query id — and each group
/// accumulates virtual runtime `elapsed / weight` as its units run; the
/// pool always serves the runnable group with the smallest virtual
/// runtime, so CPU time divides between queries proportionally to their
/// weights regardless of how many units each query enqueues. The
/// coordinator maps DOP changes onto group weights, which is what turns
/// the paper's thread-count tuning into a queue-share change.
///
/// Waiting units cost nothing. A timed wait (pacing, RPC latency, retry
/// backoff) sits on a timer heap; a parked unit waits for the structure it
/// registered with to Wake() it, and keeps only a constant fallback timer
/// (kParkFallbackUs) that bounds a lost wakeup. Wake() is lossless: a wake
/// that lands while the unit is inside RunQuantum requeues it as soon as
/// that quantum returns a wait. Retire() synchronously removes a unit,
/// blocking until any in-flight quantum returns — the teardown primitive
/// replacing thread joins.
class MorselScheduler {
 public:
  /// How long a parked unit sleeps when nothing wakes it; it then re-checks
  /// and parks again if still blocked. Only a lost wakeup makes that
  /// resume find work, which fallback_resumes() counts.
  static constexpr int64_t kParkFallbackUs = 50 * 1000;

  struct Options {
    /// Pool size; 0 means hardware_concurrency() (4 if that reports 0).
    int num_threads = 0;
    /// Target wall time of one quantum before a unit must requeue.
    int64_t quantum_us = 1000;
  };

  MorselScheduler() : MorselScheduler(Options()) {}
  explicit MorselScheduler(Options options);
  ~MorselScheduler();

  MorselScheduler(const MorselScheduler&) = delete;
  MorselScheduler& operator=(const MorselScheduler&) = delete;

  /// Process-wide default pool, used when EngineConfig::scheduler is
  /// null. Never destroyed (it must outlive all static-duration users).
  static MorselScheduler* Default();

  /// Adds `unit` to `group`'s run queue. The scheduler keeps the
  /// shared_ptr until the unit finishes or is retired; owners that manage
  /// lifetime themselves pass NonOwning(unit) and must Retire().
  void Enqueue(const std::string& group, std::shared_ptr<Schedulable> unit);

  /// Sets `group`'s fair-queueing weight (default 1.0; minimum clamped to
  /// a small positive value). Takes effect from the next quantum.
  void SetGroupWeight(const std::string& group, double weight);

  /// Drops `group`'s weight record once its units are gone (query end).
  void ClearGroup(const std::string& group);

  /// Moves a waiting or parked unit back to its run queue immediately
  /// (new input arrived, backpressure lifted). A unit inside RunQuantum is
  /// requeued when that quantum returns a wait, so no wake is lost. No-op
  /// for queued units and for units the scheduler no longer knows — a
  /// structure's waiter list may outlive a retired unit.
  void Wake(Schedulable* unit);

  /// Removes `unit` from the scheduler, blocking until an in-flight
  /// quantum (if any) returns. After Retire the scheduler holds no
  /// reference to the unit. No-op if the unit already finished. Must not
  /// be called from a pool thread — that would self-deadlock.
  void Retire(Schedulable* unit);

  int num_threads() const { return static_cast<int>(threads_.size()); }
  int64_t quantum_us() const { return quantum_us_; }

  /// Units currently registered (queued + waiting + running). Test hook.
  int num_units() const;
  /// Parked units the fallback timer resumed that then did work and
  /// stayed alive with no wake following within kWakeGraceUs: each is a
  /// wake that never came. A unit still blocked re-parks idle and is not
  /// counted; nor is one that finishes, or one whose wake was merely in
  /// flight (a producer changes a structure before it wakes the waiters,
  /// so the timer can land in between). Test hook.
  int64_t fallback_resumes() const;
  /// Groups currently known (with units or an explicit weight). Test hook.
  int num_groups() const;

 private:
  enum class UnitState { kQueued, kRunning, kWaiting };

  struct Unit {
    std::shared_ptr<Schedulable> ref;
    std::string group;
    UnitState state = UnitState::kQueued;
    /// Invalidates stale timer-heap entries after a Wake or state change.
    int64_t wait_epoch = 0;
    bool retire_requested = false;
    /// Woken while running: requeue when the quantum returns a wait.
    bool wake_pending = false;
    /// Parked (not a timed wait): a timer resume is the fallback.
    bool parked = false;
    /// Resumed by the fallback timer and not woken since.
    bool fallback_resume = false;
    /// When a fallback resume did work; a wake within kWakeGraceUs
    /// clears it, else it counts as a fallback resume.
    int64_t suspect_us = 0;
  };

  static constexpr int64_t kWakeGraceUs = 10 * 1000;

  struct Group {
    double weight = 1.0;
    double vruntime = 0;
    int members = 0;  // units registered under this group
    /// Weight was set explicitly; keep the (possibly empty) group until
    /// ClearGroup instead of dropping the weight with its last unit.
    bool pinned = false;
    std::deque<Schedulable*> runnable;
  };

  struct Timer {
    int64_t resume_at_us;
    Schedulable* unit;
    int64_t wait_epoch;
    bool operator>(const Timer& other) const {
      return resume_at_us > other.resume_at_us;
    }
  };

  void WorkerLoop();
  /// Moves expired timers' units back to their run queues.
  void PromoteTimersLocked(int64_t now_us);
  /// Runnable unit of the smallest-vruntime group, or null.
  Schedulable* PickLocked();
  double MinActiveVruntimeLocked() const;
  /// Erases the unit and its group bookkeeping; notifies retire waiters.
  void EraseUnitLocked(Schedulable* unit);
  /// Counts `unit`'s suspect resume once its grace has passed.
  void SettleSuspectLocked(Unit* unit, int64_t now_us);

  int64_t quantum_us_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable retire_cv_;
  std::map<Schedulable*, Unit> units_;
  std::map<std::string, Group> groups_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> timers_;
  int64_t fallback_resumes_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

/// The scheduler a component should use: the config's, or the process
/// default when the config doesn't name one.
MorselScheduler* SchedulerFor(const EngineConfig& config);

/// A thread blocked outside the pool — the coordinator's root fetch, or a
/// DOP switch waiting for hash builds — until a structure notifies it.
/// Several threads may share one: each waits for a notification newer
/// than the generation it read before checking its condition.
class ThreadWaiter {
 public:
  void Notify();
  /// Notifications so far. Read it before checking the awaited condition.
  uint64_t generation() const;
  /// Blocks until a notification after generation `seen`, or until
  /// `deadline_us` (NowMicros epoch).
  void WaitUntil(int64_t deadline_us, uint64_t seen);

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  uint64_t generation_ = 0;
};

/// Whom a structure wakes when it changes: a parked pool unit, or a
/// blocked thread.
struct Waiter {
  MorselScheduler* scheduler = nullptr;
  Schedulable* unit = nullptr;
  /// Set before `unit` is woken, so a unit parked on several structures
  /// can tell which one changed (an exchange fetcher's upstream tasks).
  /// Shared: the structure may outlive the unit.
  std::shared_ptr<std::atomic<bool>> signal;
  std::shared_ptr<ThreadWaiter> thread;  // instead of a unit
};

/// The waiters parked on one condition of a structure: an empty queue, a
/// full buffer, an unbuilt hash table. Protocol: a waiter Add()s itself
/// and then re-checks the condition (or checks and Add()s under the lock
/// the producer changes the structure under); a producer changes the
/// structure and then calls WakeAll(). One of the two always sees the
/// other, so no wake is lost.
/// WakeAll() costs one atomic load while nobody waits, so a flowing
/// pipeline pays nothing extra per page.
class WaiterSet {
 public:
  /// Registers `waiter` (once; a repeated Add is a no-op).
  void Add(const Waiter& waiter);
  /// Wakes and forgets every registered waiter.
  void WakeAll() {
    if (any_.load()) WakeAllSlow();
  }

 private:
  void WakeAllSlow();

  std::atomic<bool> any_{false};
  std::mutex mutex_;
  std::vector<Waiter> waiters_;
};

/// What a blocked operator or structure did with a park request.
enum class ParkState {
  kNotBlocked,  // waits on no shared structure
  kParked,      // registered: the structure wakes the waiter on a change
  kReady,       // the structure changed since the caller looked: run on
};

}  // namespace accordion

#endif  // ACCORDION_EXEC_SCHEDULER_H_
