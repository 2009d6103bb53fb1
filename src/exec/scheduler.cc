#include "exec/scheduler.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/clock.h"
#include "common/logging.h"
#include "exec/config.h"
#include "exec/task_context.h"

namespace accordion {

namespace {
/// Set inside pool threads so Retire can refuse to self-deadlock.
thread_local bool tls_in_pool_thread = false;

constexpr double kMinWeight = 1e-3;

std::chrono::steady_clock::time_point ToTimePoint(int64_t us) {
  return std::chrono::steady_clock::time_point(std::chrono::microseconds(us));
}
}  // namespace

MorselScheduler::MorselScheduler(Options options)
    : quantum_us_(std::max<int64_t>(options.quantum_us, 50)) {
  int threads = options.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 4;  // hardware_concurrency may report 0
  }
  threads_.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

MorselScheduler::~MorselScheduler() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

MorselScheduler* MorselScheduler::Default() {
  // Leaked singleton: outlives every static-duration task/test fixture and
  // keeps LeakSanitizer quiet (function-local static, never destroyed
  // while any user could still enqueue).
  static MorselScheduler* pool = new MorselScheduler();
  return pool;
}

MorselScheduler* SchedulerFor(const EngineConfig& config) {
  return config.scheduler != nullptr ? config.scheduler
                                     : MorselScheduler::Default();
}

MorselScheduler* TaskContext::scheduler() const {
  return SchedulerFor(*config_);
}

double MorselScheduler::MinActiveVruntimeLocked() const {
  double min_v = std::numeric_limits<double>::max();
  bool any = false;
  for (const auto& [name, group] : groups_) {
    if (group.members == 0) continue;
    min_v = std::min(min_v, group.vruntime);
    any = true;
  }
  return any ? min_v : 0.0;
}

void MorselScheduler::Enqueue(const std::string& group,
                              std::shared_ptr<Schedulable> unit) {
  ACC_CHECK(unit != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ACC_CHECK(units_.count(unit.get()) == 0)
        << "unit enqueued twice in group " << group;
    Group& g = groups_[group];
    if (g.members == 0) {
      // A newly active group starts at the current minimum so it neither
      // starves the field (vruntime too low after idling) nor waits
      // behind everyone (too high).
      g.vruntime = std::max(g.vruntime, MinActiveVruntimeLocked());
    }
    ++g.members;
    Unit entry;
    entry.ref = std::move(unit);
    entry.group = group;
    entry.state = UnitState::kQueued;
    Schedulable* raw = entry.ref.get();
    units_.emplace(raw, std::move(entry));
    g.runnable.push_back(raw);
  }
  work_cv_.notify_one();
}

void MorselScheduler::SetGroupWeight(const std::string& group, double weight) {
  std::lock_guard<std::mutex> lock(mutex_);
  Group& g = groups_[group];
  g.weight = std::max(weight, kMinWeight);
  g.pinned = true;
}

void MorselScheduler::ClearGroup(const std::string& group) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  it->second.pinned = false;
  it->second.weight = 1.0;
  if (it->second.members == 0) groups_.erase(it);
}

void MorselScheduler::Wake(Schedulable* unit) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = units_.find(unit);
    if (it == units_.end()) return;
    Unit& entry = it->second;
    entry.fallback_resume = false;  // the wake came, if late
    SettleSuspectLocked(&entry, NowMicros());
    entry.suspect_us = 0;
    if (entry.state == UnitState::kRunning) {
      entry.wake_pending = true;
      return;
    }
    if (entry.state != UnitState::kWaiting) return;
    ++entry.wait_epoch;  // invalidate the pending timer entry
    entry.state = UnitState::kQueued;
    groups_[entry.group].runnable.push_back(unit);
  }
  work_cv_.notify_one();
}

void MorselScheduler::SettleSuspectLocked(Unit* unit, int64_t now_us) {
  if (unit->suspect_us != 0 && now_us - unit->suspect_us >= kWakeGraceUs) {
    ++fallback_resumes_;
    unit->suspect_us = 0;
  }
}

void MorselScheduler::EraseUnitLocked(Schedulable* unit) {
  auto it = units_.find(unit);
  ACC_CHECK(it != units_.end());
  SettleSuspectLocked(&it->second, NowMicros());
  auto git = groups_.find(it->second.group);
  ACC_CHECK(git != groups_.end());
  Group& g = git->second;
  --g.members;
  auto pos = std::find(g.runnable.begin(), g.runnable.end(), unit);
  if (pos != g.runnable.end()) g.runnable.erase(pos);
  if (g.members == 0 && !g.pinned) groups_.erase(git);
  units_.erase(it);
  retire_cv_.notify_all();
}

void MorselScheduler::Retire(Schedulable* unit) {
  ACC_CHECK(!tls_in_pool_thread)
      << "Retire from a pool thread would self-deadlock";
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = units_.find(unit);
  if (it == units_.end()) return;  // already finished
  it->second.retire_requested = true;
  if (it->second.state != UnitState::kRunning) {
    EraseUnitLocked(unit);
    return;
  }
  // A pool thread is inside RunQuantum; it observes retire_requested when
  // the quantum returns and erases the unit.
  retire_cv_.wait(lock, [&] { return units_.count(unit) == 0; });
}

void MorselScheduler::PromoteTimersLocked(int64_t now_us) {
  while (!timers_.empty() && timers_.top().resume_at_us <= now_us) {
    Timer timer = timers_.top();
    timers_.pop();
    auto it = units_.find(timer.unit);
    if (it == units_.end() || it->second.state != UnitState::kWaiting ||
        it->second.wait_epoch != timer.wait_epoch) {
      continue;  // stale entry (unit woken, retired or finished)
    }
    it->second.fallback_resume = it->second.parked;
    it->second.state = UnitState::kQueued;
    groups_[it->second.group].runnable.push_back(timer.unit);
  }
}

Schedulable* MorselScheduler::PickLocked() {
  Group* best = nullptr;
  for (auto& [name, group] : groups_) {
    if (group.runnable.empty()) continue;
    if (best == nullptr || group.vruntime < best->vruntime) best = &group;
  }
  if (best == nullptr) return nullptr;
  Schedulable* unit = best->runnable.front();
  best->runnable.pop_front();
  return unit;
}

void MorselScheduler::WorkerLoop() {
  tls_in_pool_thread = true;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (shutdown_) return;
    PromoteTimersLocked(NowMicros());
    Schedulable* picked = PickLocked();
    if (picked == nullptr) {
      if (timers_.empty()) {
        work_cv_.wait(lock);
      } else {
        work_cv_.wait_until(lock, ToTimePoint(timers_.top().resume_at_us));
      }
      continue;
    }
    auto it = units_.find(picked);
    it->second.state = UnitState::kRunning;
    // Keep the unit alive across the unlocked quantum even if the owner
    // finishes it concurrently (owners must Retire first, but the ref
    // makes a bug here UAF-free).
    std::shared_ptr<Schedulable> ref = it->second.ref;
    lock.unlock();

    int64_t start_us = NowMicros();
    Schedulable::Quantum quantum = ref->RunQuantum(quantum_us_);
    int64_t elapsed_us = std::max<int64_t>(NowMicros() - start_us, 1);

    lock.lock();
    it = units_.find(picked);
    ACC_CHECK(it != units_.end());
    Group& g = groups_.at(it->second.group);
    g.vruntime += static_cast<double>(elapsed_us) / g.weight;
    using State = Schedulable::Quantum::State;
    Unit& entry = it->second;
    SettleSuspectLocked(&entry, NowMicros());
    if (entry.fallback_resume && quantum.state != State::kFinished &&
        !(quantum.state == State::kParked && quantum.idle)) {
      entry.suspect_us = NowMicros();  // it found work no wake announced
    }
    entry.fallback_resume = false;
    const bool woken = entry.wake_pending;
    entry.wake_pending = false;
    if (entry.retire_requested || quantum.state == State::kFinished) {
      EraseUnitLocked(picked);
      continue;
    }
    int64_t resume_at_us = quantum.resume_at_us;
    if (quantum.state == State::kParked) {
      resume_at_us = NowMicros() + kParkFallbackUs;
    }
    const bool waits = quantum.state == State::kParked ||
                       (quantum.state == State::kWaiting &&
                        resume_at_us > NowMicros());
    if (waits && !woken) {
      entry.state = UnitState::kWaiting;
      entry.parked = quantum.state == State::kParked;
      ++entry.wait_epoch;
      timers_.push(Timer{resume_at_us, picked, entry.wait_epoch});
    } else {
      entry.state = UnitState::kQueued;
      g.runnable.push_back(picked);
    }
    // Peers may be sleeping with a stale (or no) timer deadline; have one
    // re-evaluate against the new runnable unit / earlier timer.
    work_cv_.notify_one();
  }
}

int MorselScheduler::num_units() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(units_.size());
}

int MorselScheduler::num_groups() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(groups_.size());
}

int64_t MorselScheduler::fallback_resumes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t now_us = NowMicros();
  int64_t settled = 0;
  for (const auto& [unit, entry] : units_) {
    if (entry.suspect_us != 0 && now_us - entry.suspect_us >= kWakeGraceUs) {
      ++settled;
    }
  }
  return fallback_resumes_ + settled;
}

void ThreadWaiter::Notify() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++generation_;
  }
  cv_.notify_all();
}

uint64_t ThreadWaiter::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

void ThreadWaiter::WaitUntil(int64_t deadline_us, uint64_t seen) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_until(lock, ToTimePoint(deadline_us),
                 [&] { return generation_ != seen; });
}

void WaiterSet::Add(const Waiter& waiter) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Waiter& w : waiters_) {
    if (w.unit == waiter.unit && w.thread == waiter.thread &&
        w.signal == waiter.signal) {
      return;
    }
  }
  waiters_.push_back(waiter);
  any_.store(true);
}

void WaiterSet::WakeAllSlow() {
  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    waiters.swap(waiters_);
    any_.store(false);
  }
  for (const Waiter& w : waiters) {
    if (w.signal != nullptr) w.signal->store(true);
    if (w.thread != nullptr) w.thread->Notify();
    if (w.unit != nullptr) w.scheduler->Wake(w.unit);
  }
}

}  // namespace accordion
