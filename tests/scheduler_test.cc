// The shared CPU pool and its cluster-level wiring. Three layers under
// test:
//
//  * MorselScheduler in isolation — weighted fair queueing actually
//    divides CPU time by group weight, weight changes take effect
//    mid-run (the mechanism behind DOP-switch), Wake() resumes a
//    waiting unit before its timer, and Retire() is a safe no-op for
//    units the scheduler never saw or already dropped.
//  * Admission control — the coordinator's global concurrency cap and
//    per-tenant quota reject at Submit with ResourceExhausted and
//    readmit once a slot frees.
//  * The bounded-thread claim itself — eight concurrent sessions of
//    TPC-H queries must not grow the process thread count at all,
//    because every driver, exchange fetcher and shuffle executor rides
//    the fixed pool. Plus a chaos run: fault recovery and clean
//    worker-crash failure still hold when drivers are pool-scheduled
//    on a deliberately tiny pool.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/fault_injector.h"
#include "exec/scheduler.h"
#include "plan/builder.h"
#include "tests/reference_eval.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"

namespace accordion {
namespace {

constexpr double kSf = 0.005;

// --- MorselScheduler unit tests --------------------------------------------

/// Burns its full quantum in a busy spin and counts quanta served, so
/// relative quantum counts measure each group's CPU share directly.
class BurnUnit : public Schedulable {
 public:
  Quantum RunQuantum(int64_t quantum_us) override {
    if (stop_.load()) return Quantum::Finished();
    int64_t end = NowMicros() + quantum_us;
    while (NowMicros() < end) {
    }
    quanta_.fetch_add(1);
    return Quantum::Runnable();
  }

  std::atomic<int64_t> quanta_{0};
  std::atomic<bool> stop_{false};
};

/// Runs once per resume and goes back to waiting; used to observe timer
/// and Wake() behaviour.
class WaiterUnit : public Schedulable {
 public:
  explicit WaiterUnit(int64_t wait_us) : wait_us_(wait_us) {}

  Quantum RunQuantum(int64_t) override {
    runs_.fetch_add(1);
    if (finish_.load()) return Quantum::Finished();
    return Quantum::Waiting(NowMicros() + wait_us_);
  }

  std::atomic<int> runs_{0};
  std::atomic<bool> finish_{false};

 private:
  int64_t wait_us_;
};

MorselScheduler::Options SmallPool(int threads, int64_t quantum_us = 200) {
  MorselScheduler::Options options;
  options.num_threads = threads;
  options.quantum_us = quantum_us;
  return options;
}

TEST(MorselSchedulerTest, DefaultsToNonZeroThreads) {
  MorselScheduler scheduler;
  EXPECT_GT(scheduler.num_threads(), 0);
  EXPECT_EQ(scheduler.num_units(), 0);
}

TEST(MorselSchedulerTest, FairShareTracksGroupWeights) {
  // One pool thread so the two groups compete for the same CPU; group
  // "heavy" is entitled to 3x the quanta of group "light".
  MorselScheduler scheduler(SmallPool(1));
  auto light = std::make_shared<BurnUnit>();
  auto heavy = std::make_shared<BurnUnit>();
  scheduler.SetGroupWeight("light", 1.0);
  scheduler.SetGroupWeight("heavy", 3.0);
  scheduler.Enqueue("light", light);
  scheduler.Enqueue("heavy", heavy);

  SleepForMillis(250);
  int64_t light_quanta = light->quanta_.load();
  int64_t heavy_quanta = heavy->quanta_.load();
  light->stop_.store(true);
  heavy->stop_.store(true);

  // Enough quanta ran for the ratio to be meaningful, neither group
  // starved, and the share leans decisively toward the heavy group.
  ASSERT_GT(light_quanta, 0);
  ASSERT_GT(heavy_quanta, 0);
  ASSERT_GT(light_quanta + heavy_quanta, 100);
  double ratio = static_cast<double>(heavy_quanta) /
                 static_cast<double>(light_quanta);
  EXPECT_GT(ratio, 1.8) << "heavy=" << heavy_quanta
                        << " light=" << light_quanta;
  EXPECT_LT(ratio, 6.0) << "heavy=" << heavy_quanta
                        << " light=" << light_quanta;
}

TEST(MorselSchedulerTest, WeightChangeShiftsShareMidRun) {
  // The DOP-switch mechanism: equal shares first, then one group's
  // weight is raised mid-run and the split must follow from that point.
  MorselScheduler scheduler(SmallPool(1));
  auto a = std::make_shared<BurnUnit>();
  auto b = std::make_shared<BurnUnit>();
  scheduler.Enqueue("qa", a);
  scheduler.Enqueue("qb", b);

  SleepForMillis(150);
  int64_t a_before = a->quanta_.load();
  int64_t b_before = b->quanta_.load();

  scheduler.SetGroupWeight("qb", 4.0);
  SleepForMillis(250);
  int64_t a_delta = a->quanta_.load() - a_before;
  int64_t b_delta = b->quanta_.load() - b_before;
  a->stop_.store(true);
  b->stop_.store(true);

  // Phase 1: roughly even (no starvation either way).
  ASSERT_GT(a_before, 0);
  ASSERT_GT(b_before, 0);
  double before_ratio =
      static_cast<double>(b_before) / static_cast<double>(a_before);
  EXPECT_GT(before_ratio, 0.4) << "a=" << a_before << " b=" << b_before;
  EXPECT_LT(before_ratio, 2.5) << "a=" << a_before << " b=" << b_before;

  // Phase 2: the raised weight dominates the incremental share.
  ASSERT_GT(a_delta, 0);
  ASSERT_GT(b_delta, 0);
  double after_ratio =
      static_cast<double>(b_delta) / static_cast<double>(a_delta);
  EXPECT_GT(after_ratio, 1.8) << "a+=" << a_delta << " b+=" << b_delta;
}

TEST(MorselSchedulerTest, WaitingUnitResumesOnTimerNotBusyPoll) {
  MorselScheduler scheduler(SmallPool(1));
  auto waiter = std::make_shared<WaiterUnit>(20000);  // 20ms naps
  scheduler.Enqueue("q", waiter);

  SleepForMillis(300);
  int runs = waiter->runs_.load();
  // Resumed repeatedly (timers fire) but no faster than the wait allows
  // (the pool is not spinning it).
  EXPECT_GE(runs, 5) << "timer resume appears stuck";
  EXPECT_LE(runs, 30) << "waiting unit ran more often than its timer";

  waiter->finish_.store(true);
  scheduler.Wake(waiter.get());
  // Finishing drops the unit from the scheduler.
  Stopwatch sw;
  while (scheduler.num_units() != 0 && sw.ElapsedMillis() < 5000) {
    SleepForMillis(1);
  }
  EXPECT_EQ(scheduler.num_units(), 0);
}

TEST(MorselSchedulerTest, WakeResumesBeforeTimerExpiry) {
  MorselScheduler scheduler(SmallPool(1));
  auto waiter = std::make_shared<WaiterUnit>(10 * 1000 * 1000);  // 10s nap
  scheduler.Enqueue("q", waiter);

  Stopwatch sw;
  while (waiter->runs_.load() < 1 && sw.ElapsedMillis() < 5000) {
    SleepForMillis(1);
  }
  ASSERT_EQ(waiter->runs_.load(), 1) << "unit never ran its first quantum";

  // Wake while 10 seconds of timer remain: the second run must happen
  // almost immediately, not at timer expiry.
  sw.Restart();
  scheduler.Wake(waiter.get());
  while (waiter->runs_.load() < 2 && sw.ElapsedMillis() < 5000) {
    SleepForMillis(1);
  }
  EXPECT_EQ(waiter->runs_.load(), 2);
  EXPECT_LT(sw.ElapsedMillis(), 5000);

  waiter->finish_.store(true);
  scheduler.Wake(waiter.get());
}

/// Holds its first quantum open until released, then asks for a long
/// timed wait, so a test can Wake it while it is inside RunQuantum.
class GatedUnit : public Schedulable {
 public:
  Quantum RunQuantum(int64_t) override {
    if (runs_.fetch_add(1) == 0) {
      in_quantum_.store(true);
      while (!release_.load()) SleepForMicros(100);
    }
    if (finish_.load()) return Quantum::Finished();
    return Quantum::Waiting(NowMicros() + 10 * 1000 * 1000);  // 10s
  }

  std::atomic<int> runs_{0};
  std::atomic<bool> in_quantum_{false};
  std::atomic<bool> release_{false};
  std::atomic<bool> finish_{false};
};

TEST(MorselSchedulerTest, WakeDuringQuantumIsNotLost) {
  // A structure may wake a unit between the unit's last look at it and
  // the end of its quantum. That wake must requeue the unit as soon as the
  // quantum returns its wait, not be dropped until the timer.
  MorselScheduler scheduler(SmallPool(1));
  auto unit = std::make_shared<GatedUnit>();
  scheduler.Enqueue("q", unit);
  Stopwatch sw;
  while (!unit->in_quantum_.load() && sw.ElapsedMillis() < 5000) {
    SleepForMillis(1);
  }
  ASSERT_TRUE(unit->in_quantum_.load()) << "unit never ran";

  scheduler.Wake(unit.get());  // lands while the unit is running
  sw.Restart();
  unit->release_.store(true);
  while (unit->runs_.load() < 2 && sw.ElapsedMillis() < 5000) {
    SleepForMillis(1);
  }
  EXPECT_EQ(unit->runs_.load(), 2);
  EXPECT_LT(sw.ElapsedMillis(), 100) << "the wake was dropped";

  unit->finish_.store(true);
  scheduler.Wake(unit.get());
  while (scheduler.num_units() != 0 && sw.ElapsedMillis() < 5000) {
    SleepForMillis(1);
  }
  EXPECT_EQ(scheduler.num_units(), 0);
}

TEST(MorselSchedulerTest, RetireIsSafeInEveryState) {
  MorselScheduler scheduler(SmallPool(1));

  // Never enqueued: no-op.
  WaiterUnit stranger(1000);
  scheduler.Retire(&stranger);

  // Deep in a long wait: Retire returns promptly and drops the unit.
  auto sleeper = std::make_shared<WaiterUnit>(60 * 1000 * 1000);
  scheduler.Enqueue("q", sleeper);
  Stopwatch sw;
  while (sleeper->runs_.load() < 1 && sw.ElapsedMillis() < 5000) {
    SleepForMillis(1);
  }
  ASSERT_EQ(sleeper->runs_.load(), 1);
  sw.Restart();
  scheduler.Retire(sleeper.get());
  EXPECT_LT(sw.ElapsedMillis(), 1000) << "Retire blocked on the wait timer";
  EXPECT_EQ(scheduler.num_units(), 0);
  // Retiring again after removal: no-op.
  scheduler.Retire(sleeper.get());

  // Already finished on its own: no-op.
  auto quick = std::make_shared<WaiterUnit>(1000);
  quick->finish_.store(true);
  scheduler.Enqueue("q", quick);
  sw.Restart();
  while (scheduler.num_units() != 0 && sw.ElapsedMillis() < 5000) {
    SleepForMillis(1);
  }
  ASSERT_EQ(scheduler.num_units(), 0);
  scheduler.Retire(quick.get());
}

TEST(MorselSchedulerTest, ClearGroupDropsPinnedWeight) {
  MorselScheduler scheduler(SmallPool(1));
  scheduler.SetGroupWeight("query-7", 2.5);
  EXPECT_EQ(scheduler.num_groups(), 1);
  scheduler.ClearGroup("query-7");
  EXPECT_EQ(scheduler.num_groups(), 0);
}

// --- Admission control through the cluster ---------------------------------

AccordionCluster::Options FastOptions() {
  AccordionCluster::Options options;
  options.num_workers = 2;
  options.num_storage_nodes = 2;
  options.scale_factor = kSf;
  options.engine.cost.scale = 0;
  options.engine.rpc_latency_ms = 0;
  return options;
}

/// Small buffers so an unconsumed streaming query backpressures and
/// stays kRunning, holding its admission slot.
AccordionCluster::Options StreamingOptions() {
  AccordionCluster::Options options = FastOptions();
  options.engine.memory.initial_buffer_bytes = 2 * 1024;
  options.engine.memory.max_buffer_bytes = 8 * 1024;
  return options;
}

PlanNodePtr StreamingScanPlan(const Catalog& catalog) {
  PlanBuilder b(&catalog);
  auto rel = b.Scan("lineitem", {"l_orderkey", "l_extendedprice"});
  return b.Output(rel);
}

TEST(AdmissionTest, GlobalCapRejectsAndReadmitsAfterAbort) {
  AccordionCluster::Options options = StreamingOptions();
  options.engine.max_concurrent_queries = 2;
  AccordionCluster cluster(options);
  SessionOptions session_options;
  session_options.max_concurrent_queries = 0;  // only the global cap acts
  Session session(cluster.coordinator(), session_options);

  // Two unconsumed streaming queries pin both slots.
  auto q1 = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  auto q2 = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();

  auto q3 = session.Execute(StreamingScanPlan(session.catalog()));
  ASSERT_FALSE(q3.ok()) << "third query admitted past the global cap";
  EXPECT_EQ(q3.status().code(), StatusCode::kResourceExhausted)
      << q3.status().ToString();

  // Freeing one slot readmits.
  ASSERT_TRUE((*q1)->Abort().ok());
  Stopwatch sw;
  Result<QueryHandlePtr> q4 = Status::ResourceExhausted("not yet");
  while (sw.ElapsedMillis() < 10000) {
    q4 = session.Execute(StreamingScanPlan(session.catalog()));
    if (q4.ok()) break;
    ASSERT_EQ(q4.status().code(), StatusCode::kResourceExhausted)
        << q4.status().ToString();
    SleepForMillis(5);
  }
  ASSERT_TRUE(q4.ok()) << "aborting a query never freed its admission slot";

  EXPECT_TRUE((*q2)->Abort().ok());
  EXPECT_TRUE((*q4)->Abort().ok());
}

TEST(AdmissionTest, TenantQuotaIsPerTenant) {
  AccordionCluster::Options options = StreamingOptions();
  options.engine.max_queries_per_tenant = 1;
  AccordionCluster cluster(options);

  SessionOptions acme;
  acme.tenant = "acme";
  Session acme_a(cluster.coordinator(), acme);
  Session acme_b(cluster.coordinator(), acme);
  SessionOptions globex;
  globex.tenant = "globex";
  Session globex_a(cluster.coordinator(), globex);

  // Tenant quota spans sessions: acme's second session is rejected
  // while the first holds the tenant's only slot...
  auto q1 = acme_a.Execute(StreamingScanPlan(acme_a.catalog()));
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  auto q2 = acme_b.Execute(StreamingScanPlan(acme_b.catalog()));
  ASSERT_FALSE(q2.ok());
  EXPECT_EQ(q2.status().code(), StatusCode::kResourceExhausted)
      << q2.status().ToString();

  // ...but another tenant is unaffected.
  auto q3 = globex_a.Execute(StreamingScanPlan(globex_a.catalog()));
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();

  // An explicit QueryOptions tenant overrides the session stamp: with
  // acme's slot freed but globex still full, an acme session submitting
  // "as globex" must be rejected on globex's quota.
  EXPECT_TRUE((*q1)->Abort().ok());
  QueryOptions as_globex;
  as_globex.tenant = "globex";
  auto q4 = acme_b.Execute(StreamingScanPlan(acme_b.catalog()), as_globex);
  ASSERT_FALSE(q4.ok()) << "globex already holds its tenant slot";
  EXPECT_EQ(q4.status().code(), StatusCode::kResourceExhausted);

  EXPECT_TRUE((*q3)->Abort().ok());
}

// --- The bounded-thread claim ----------------------------------------------

int ProcessThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      std::istringstream in(line.substr(8));
      int count = 0;
      in >> count;
      return count;
    }
  }
  return -1;
}

TEST(SchedulerThreadsTest, EightSessionsRunOnTheFixedPool) {
  AccordionCluster::Options options = FastOptions();
  options.engine.scheduler_threads = 2;
  AccordionCluster cluster(options);

  int baseline = ProcessThreadCount();
  ASSERT_GT(baseline, 0) << "/proc/self/status not readable";

  // Eight sessions, each running a TPC-H mix off its own client thread.
  // The 8 client threads are the test's; the engine itself must add
  // ZERO threads beyond the already-running pool — that is the whole
  // point of the shared scheduler.
  constexpr int kSessions = 8;
  const int kQueries[] = {1, 3, 6};
  std::atomic<int> failures{0};
  std::atomic<int> max_threads{0};
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&cluster, &kQueries, &failures] {
      Session session(cluster.coordinator());
      for (int q : kQueries) {
        auto query = session.Execute(TpchQueryPlan(q, session.catalog()));
        if (!query.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto result = (*query)->Wait(120000);
        if (!result.ok() || result->empty()) failures.fetch_add(1);
      }
    });
  }

  std::atomic<bool> done{false};
  std::thread sampler([&done, &max_threads] {
    while (!done.load()) {
      int now = ProcessThreadCount();
      int prev = max_threads.load();
      while (now > prev && !max_threads.compare_exchange_weak(prev, now)) {
      }
      SleepForMillis(2);
    }
  });
  for (auto& t : clients) t.join();
  done.store(true);
  sampler.join();

  EXPECT_EQ(failures.load(), 0);
  // baseline already contains the pool and the coordinator monitor; the
  // run adds the 8 client threads + 1 sampler and nothing else. Allow
  // +2 slack for the runtime (e.g. a transient glibc helper thread).
  EXPECT_LE(max_threads.load(), baseline + kSessions + 1 + 2)
      << "execution spawned per-query threads (baseline=" << baseline << ")";
}

// --- Chaos under pool scheduling -------------------------------------------

AccordionCluster::Options TinyPoolChaosOptions(FaultInjector* injector) {
  AccordionCluster::Options options = FastOptions();
  options.engine.scheduler_threads = 2;
  options.engine.fault_injector = injector;
  options.engine.rpc_retry.max_attempts = 10;
  options.engine.rpc_retry.attempt_deadline_ms = 10000;
  return options;
}

TEST(SchedulerChaosTest, TransientFaultsAreInvisibleOnTinyPool) {
  // Retry/recovery must not rely on per-driver threads: with only two
  // pool threads multiplexing everything, injected RPC errors and
  // latency spikes still produce exact results.
  FaultInjector injector(42);
  FaultPolicy transient;
  transient.kind = FaultKind::kTransientError;
  transient.probability = 0.05;
  injector.AddPolicy("rpc.", transient);
  FaultPolicy spike;
  spike.kind = FaultKind::kAddedLatency;
  spike.probability = 0.02;
  spike.latency_ms = 1.0;
  injector.AddPolicy("rpc.", spike);

  AccordionCluster cluster(TinyPoolChaosOptions(&injector));
  Session session(cluster.coordinator());
  Catalog catalog = MakeTpchCatalog(kSf, 2);
  for (int q : {1, 3}) {
    RefRelation expected = ReferenceEvaluate(TpchQueryPlan(q, catalog), kSf);
    auto query = session.Execute(TpchQueryPlan(q, session.catalog()));
    ASSERT_TRUE(query.ok()) << "Q" << q << ": " << query.status().ToString();
    auto result = (*query)->Wait(120000);
    ASSERT_TRUE(result.ok()) << "Q" << q << ": " << result.status().ToString();
    std::string diff = DiffRows(expected, *result);
    EXPECT_TRUE(diff.empty()) << "Q" << q << ": " << diff;
  }
}

TEST(SchedulerChaosTest, WorkerCrashFailsCleanlyOnTinyPool) {
  // A worker crash mid-query with pool-scheduled drivers: the query
  // fails with one contextful kUnavailable well inside the deadline,
  // the pool keeps serving (a follow-up submit is answered, not hung),
  // and teardown does not deadlock on retired units.
  FaultInjector injector(7);
  FaultPolicy crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.trigger_on_nth = 5;
  injector.AddPolicy("rpc.GetPages", crash);

  AccordionCluster cluster(TinyPoolChaosOptions(&injector));
  Session session(cluster.coordinator());
  auto query = session.Execute(TpchQueryPlan(3, session.catalog()));
  if (query.ok()) {
    Stopwatch sw;
    auto result = (*query)->Wait(60000);
    EXPECT_LT(sw.ElapsedMillis(), 30000) << "crashed query hung";
    ASSERT_FALSE(result.ok()) << "query survived a worker crash";
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
        << result.status().ToString();
    EXPECT_TRUE((*query)->Finished());
  } else {
    // The crash beat submission itself — clean failure either way.
    EXPECT_EQ(query.status().code(), StatusCode::kUnavailable)
        << query.status().ToString();
  }

  // The pool is still alive after the failure: a fresh submit gets a
  // prompt answer (success or clean unavailability, never a hang).
  Stopwatch sw;
  auto followup = session.Execute(TpchQueryPlan(6, session.catalog()));
  if (followup.ok()) {
    auto result = (*followup)->Wait(60000);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
          << result.status().ToString();
    }
  } else {
    EXPECT_EQ(followup.status().code(), StatusCode::kUnavailable)
        << followup.status().ToString();
  }
  EXPECT_LT(sw.ElapsedMillis(), 60000);
}

}  // namespace
}  // namespace accordion
