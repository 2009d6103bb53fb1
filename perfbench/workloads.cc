// The four workloads of the benchmark of record and the measurement loop
// they share. Every engine call is made through the layer's public API;
// traced passes wrap each call in a Span (see README.md for the layer map).
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <thread>

#include "api/session.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/random.h"
#include "perfbench.h"
#include "plan/fragment.h"
#include "sql/analyzer.h"
#include "tpch/queries.h"
#include "tpch/tpch.h"
#include "tuner/predictor.h"

namespace perfbench {
namespace {

using namespace accordion;

constexpr int64_t kQueryTimeoutMs = 120000;
constexpr double kShortSf = 0.01;

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ResidentMb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0, resident = 0;
  int fields = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  return fields == 2 ? static_cast<double>(resident) *
                           static_cast<double>(sysconf(_SC_PAGESIZE)) /
                           (1024.0 * 1024.0)
                     : 0;
}

/// CPU time the hypervisor gave to other guests, summed over all CPUs
/// (the "steal" column of /proc/stat); 0 where it is not reported.
double StealSeconds() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  int fields = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                           &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                           &v[7]);
  std::fclose(f);
  return fields == 8 ? static_cast<double>(v[7]) /
                           static_cast<double>(sysconf(_SC_CLK_TCK))
                     : 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

std::string SfKey(double sf) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "@sf%g", sf);
  return buf;
}

std::string TpchKey(int q, double sf) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "tpch.q%02d", q);
  return buf + SfKey(sf);
}

// --- short_queries mix -------------------------------------------------------

struct ShortQuery {
  std::string key;  // digest key (without the SF suffix)
  std::string sql;
};

const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                            "HOUSEHOLD", "MACHINERY"};

ShortQuery MakeShortQuery(int kind, int a, int b) {
  std::string A = std::to_string(a);
  switch (kind) {
    case 0:
      return {"short.nation_point." + A,
              "SELECT n_name, n_regionkey FROM nation WHERE n_nationkey = " + A};
    case 1:
      return {"short.nation_region." + A,
              "SELECT r_name, count(*) AS nations FROM nation, region "
              "WHERE n_regionkey = r_regionkey AND r_regionkey <= " +
                  A + " GROUP BY r_name"};
    case 2:
      return {"short.supplier_count." + A + "." + std::to_string(b),
              "SELECT count(*) AS suppliers FROM supplier WHERE s_nationkey = " +
                  A + " AND s_acctbal > " + std::to_string(b * 2500)};
    default:
      return {"short.customer_segment." + A + "." + std::to_string(b),
              std::string("SELECT count(*) AS customers FROM customer "
                          "WHERE c_mktsegment = '") +
                  kSegments[a] + "' AND c_nationkey = " + std::to_string(b)};
  }
}

/// Parameter domain per kind: (a range, b range), both inclusive from 0.
const int kShortDomain[4][2] = {{24, 0}, {4, 0}, {24, 3}, {4, 24}};

ShortQuery DrawShortQuery(Random* rng) {
  int kind = static_cast<int>(rng->NextInt(0, 3));
  int a = static_cast<int>(rng->NextInt(0, kShortDomain[kind][0]));
  int b = static_cast<int>(rng->NextInt(0, kShortDomain[kind][1]));
  return MakeShortQuery(kind, a, b);
}

std::vector<ShortQuery> AllShortQueries() {
  std::vector<ShortQuery> all;
  for (int kind = 0; kind < 4; ++kind) {
    for (int a = 0; a <= kShortDomain[kind][0]; ++a) {
      for (int b = 0; b <= kShortDomain[kind][1]; ++b) {
        all.push_back(MakeShortQuery(kind, a, b));
      }
    }
  }
  return all;
}

// --- workload shapes -----------------------------------------------------------

struct Shape {
  double sf = 0.1;
  int workers = 2;
  int stage_dop = 2;
  int task_dop = 2;
  int64_t build_budget_bytes = 0;  // memory.query_build_bytes; 0: no spill
  int clients = 1;
  int queries_per_client = 0;      // short_queries pass size
};

Shape ShapeFor(const std::string& workload, bool smoke) {
  Shape s;
  if (workload == "short_queries") {
    s.sf = kShortSf;
    s.stage_dop = 1;
    s.task_dop = 1;
    s.clients = static_cast<int>(
        std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
    // 1000 queries per pass: the per-pass p99 has ten samples beyond it.
    s.queries_per_client = smoke ? 10 : 250;
  } else if (workload == "elastic_switch") {
    s.sf = smoke ? 0.01 : 0.2;
    s.workers = 4;
    s.stage_dop = 2;
    s.task_dop = 1;
  } else if (workload == "spill_join") {
    s.sf = smoke ? 0.01 : 0.1;
    s.build_budget_bytes = smoke ? 16 << 10 : 256 << 10;
  } else {
    s.sf = smoke ? 0.01 : 0.1;
  }
  return s;
}

int SchedulerThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

AccordionCluster::Options ClusterOptions(const Shape& shape,
                                         const std::string& spill_dir) {
  AccordionCluster::Options options;
  options.num_workers = shape.workers;
  options.scale_factor = shape.sf;
  // Real work only: no simulated CPU pacing and no simulated RPC latency.
  options.engine.cost.scale = 0;
  options.engine.rpc_latency_ms = 0;
  options.engine.scheduler_threads = SchedulerThreads();
  options.engine.memory.query_build_bytes = shape.build_budget_bytes;
  options.engine.memory.spill_dir = spill_dir;
  return options;
}

// --- per-run accounting --------------------------------------------------------

/// Counters read at layer boundaries during traced passes.
struct LayerStats {
  int64_t queries = 0;
  int64_t rpc_requests = 0;
  double initial_schedule_ms = 0;
  std::map<std::string, int64_t> scan_rows;  // per table, all traced queries
  int64_t hash_build_us_max = 0;
  int64_t peak_build_bytes = 0;
  int64_t spill_bytes = 0;
  int64_t spill_partitions = 0;
  std::vector<DopSwitchReport> switches;
  std::vector<double> predict_us;
  std::vector<double> predict_error;
};

struct PassTiming {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double steal_s = 0;  // over set-up and pass
  double peak_rss_mb = 0;
  int64_t queries = 0;
  std::vector<double> latencies_ms;
};

/// Other tenants of a shared host only ever add time, and the hypervisor
/// reports the CPU time it gave them as steal. Figures are therefore taken
/// over the passes whose steal share is at most the run's median share:
/// the quieter half, or every pass when steal is flat or not reported.
std::vector<const PassTiming*> QuietPasses(
    const std::vector<PassTiming>& passes) {
  auto share = [](const PassTiming& p) {
    return p.steal_s / ((p.setup_s + p.wall_s) *
                        static_cast<double>(SchedulerThreads()));
  };
  std::vector<double> shares;
  for (const PassTiming& p : passes) shares.push_back(share(p));
  double cut = Median(shares);
  std::vector<const PassTiming*> quiet;
  for (const PassTiming& p : passes) {
    if (share(p) <= cut) quiet.push_back(&p);
  }
  return quiet;
}

class Runner {
 public:
  Runner(const RunConfig& cfg, const Shape& shape)
      : cfg_(cfg),
        shape_(shape),
        spill_dir_(cfg.out_dir + "/spill"),
        tracer_(cfg.trace) {
    std::filesystem::create_directories(spill_dir_);
  }

  Coordinator* coordinator() { return cluster_->coordinator(); }
  const Shape& shape() const { return shape_; }
  Tracer* tracer() { return &tracer_; }
  LayerStats* layers() { return &layers_; }

  SessionOptions MakeSessionOptions() const {
    SessionOptions options;
    options.query_defaults.stage_dop = shape_.stage_dop;
    options.query_defaults.task_dop = shape_.task_dop;
    options.default_timeout_ms = kQueryTimeoutMs;
    return options;
  }

  /// Compares a query's output to its recorded digest; a mismatch or a
  /// missing digest is a failed query.
  void Check(const std::string& key, const Status& status,
             const std::vector<PagePtr>& pages, double latency_ms) {
    attempted_.fetch_add(1);
    bool ok = status.ok();
    if (!ok) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", key.c_str(),
                   status.ToString().c_str());
    } else {
      const Digest* expected = cfg_.digests.Find(key);
      Digest got = DigestPages(pages);
      if (expected == nullptr || !(*expected == got)) {
        ok = false;
        std::fprintf(stderr,
                     "perfbench: %s digest mismatch: got %lld rows/%016llx, "
                     "recorded %s\n",
                     key.c_str(), static_cast<long long>(got.rows),
                     static_cast<unsigned long long>(got.hash),
                     expected == nullptr ? "nothing" : "a different digest");
      }
    }
    if (!ok) failed_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    pass_latencies_ms_.push_back(latency_ms);
  }

  /// Queues a traced query for RecordSnapshot once its pass has ended, so
  /// the snapshot's own GetTaskInfo calls stay out of the RPC count.
  void KeepForSnapshot(const QueryHandlePtr& handle) {
    std::lock_guard<std::mutex> lock(mutex_);
    traced_handles_.push_back(handle);
  }

  /// Records what the engine reports about a finished query (traced
  /// passes only: Snapshot is an extra coordinator call).
  void RecordSnapshot(const QuerySnapshot& snapshot) {
    ++layers_.queries;
    layers_.initial_schedule_ms += snapshot.initial_schedule_ms;
    for (const StageSnapshot& stage : snapshot.stages) {
      if (stage.is_scan) layers_.scan_rows[stage.scan_table] += stage.scan_rows;
      layers_.hash_build_us_max =
          std::max(layers_.hash_build_us_max, stage.hash_build_us_max);
    }
    layers_.peak_build_bytes =
        std::max(layers_.peak_build_bytes, snapshot.peak_build_bytes);
    layers_.spill_bytes += snapshot.spill_bytes_written;
    layers_.spill_partitions += snapshot.spill_partitions;
  }

  /// Runs one pass on a freshly built cluster; `traced` passes record
  /// spans and layer counters. A cluster serves a single pass because the
  /// coordinator keeps every finished query's tasks until it is destroyed,
  /// which makes later queries on a long-lived cluster ever slower.
  PassTiming TimedPass(const std::function<void(int)>& pass, bool traced) {
    cluster_.reset();
    // Hand the previous pass's freed heap back to the kernel, so each
    // pass's resident-set peak starts from the same baseline.
    malloc_trim(0);
    PassTiming timing;
    double steal_before = StealSeconds();
    Stopwatch setup_watch;
    cluster_ = std::make_unique<AccordionCluster>(
        ClusterOptions(shape_, spill_dir_));
    timing.setup_s = setup_watch.ElapsedSeconds();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pass_latencies_ms_.clear();
    }
    int64_t attempted_before = attempted_.load();
    int64_t rpc_before = coordinator()->total_rpc_requests();
    double cpu_before = CpuSeconds();
    // Resident memory is sampled during the pass: the process high-water
    // mark would only grow with the number of passes.
    std::atomic<bool> pass_done{false};
    double peak_rss_mb = ResidentMb();
    std::thread rss_sampler([&] {
      while (!pass_done.load()) {
        peak_rss_mb = std::max(peak_rss_mb, ResidentMb());
        SleepForMillis(5);
      }
    });
    Stopwatch watch;
    {
      Tracer disabled(false);
      ScopedSpan span(traced ? &tracer_ : &disabled, "pass", -1, -1);
      pass(span.id());
    }
    timing.wall_s = watch.ElapsedSeconds();
    timing.cpu_s = CpuSeconds() - cpu_before;
    timing.steal_s = StealSeconds() - steal_before;
    pass_done = true;
    rss_sampler.join();
    timing.peak_rss_mb = peak_rss_mb;
    timing.queries = attempted_.load() - attempted_before;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      timing.latencies_ms = std::move(pass_latencies_ms_);
      pass_latencies_ms_.clear();
    }
    if (traced) {
      layers_.rpc_requests += coordinator()->total_rpc_requests() - rpc_before;
      for (const QueryHandlePtr& handle : traced_handles_) {
        auto snapshot = handle->Snapshot();
        if (snapshot.ok()) RecordSnapshot(*snapshot);
      }
    }
    traced_handles_.clear();
    return timing;
  }

  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }

 private:
  const RunConfig& cfg_;
  Shape shape_;
  std::string spill_dir_;
  Tracer tracer_;
  std::unique_ptr<AccordionCluster> cluster_;
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  std::mutex mutex_;
  std::vector<double> pass_latencies_ms_;
  std::vector<QueryHandlePtr> traced_handles_;
  LayerStats layers_;
};

// --- query execution -------------------------------------------------------------

struct QueryRun {
  Status status;
  std::vector<PagePtr> pages;
  QueryHandlePtr handle;
  PlanNodePtr plan;  // traced runs only
  double latency_ms = 0;
};

/// Drains `cursor` into `run->pages`, timing the first page and the rest
/// as separate spans.
void DrainCursor(ResultCursor* cursor, Tracer* tracer, int parent,
                 int64_t qnum, QueryRun* run) {
  {
    ScopedSpan span(tracer, "api.first_page", parent, qnum);
    auto first = cursor->Next(kQueryTimeoutMs);
    if (!first.ok()) {
      run->status = first.status();
      return;
    }
    if (*first == nullptr) return;
    run->pages.push_back(std::move(*first));
  }
  ScopedSpan span(tracer, "api.drain", parent, qnum);
  auto rest = cursor->Drain(kQueryTimeoutMs);
  if (!rest.ok()) {
    run->status = rest.status();
    return;
  }
  for (auto& page : *rest) run->pages.push_back(std::move(page));
}

/// One SQL query through a Session. Untraced: Session::Execute(sql) then a
/// cursor drain, as a client would. Traced: the same work split at the
/// layer boundaries — ParseSqlQuery, AnalyzeSqlWithReport (which includes
/// the optimizer), Session::Execute(plan), first page, drain.
QueryRun RunSql(Session* session, const std::string& sql, Tracer* tracer,
                int parent, int64_t qnum) {
  QueryRun run;
  Stopwatch watch;
  {
    ScopedSpan query_span(tracer, "query", parent, qnum);
    int q = query_span.id();
    Result<QueryHandlePtr> handle = Status::OK();
    if (!tracer->enabled()) {
      handle = session->Execute(sql);
    } else {
      Result<SqlQuery> parsed = Status::OK();
      {
        ScopedSpan span(tracer, "sql.parse", q, qnum);
        parsed = ParseSqlQuery(sql);
      }
      if (!parsed.ok()) {
        run.status = parsed.status();
        return run;
      }
      Result<AnalyzedPlan> analyzed = Status::OK();
      {
        ScopedSpan span(tracer, "sql.analyze", q, qnum);
        analyzed = AnalyzeSqlWithReport(
            *parsed, session->catalog(),
            session->default_query_options().optimizer);
      }
      if (!analyzed.ok()) {
        run.status = analyzed.status();
        return run;
      }
      run.plan = analyzed->plan;
      ScopedSpan span(tracer, "api.execute", q, qnum);
      handle = session->Execute(run.plan);
    }
    if (!handle.ok()) {
      run.status = handle.status();
      return run;
    }
    run.handle = *handle;
    ResultCursor cursor = run.handle->Cursor();
    DrainCursor(&cursor, tracer, q, qnum, &run);
  }
  run.latency_ms = watch.ElapsedSeconds() * 1e3;
  if (!run.status.ok() && run.handle != nullptr) (void)run.handle->Abort();
  return run;
}

/// Traced-only bookkeeping after a query: the fragmenter timed on the plan
/// the analyzer produced (outside the query span; Coordinator::Submit runs
/// the same call internally), and the handle kept for a snapshot after the
/// pass.
void AfterTracedQuery(Runner* runner, Tracer* tracer, const QueryRun& run,
                      int parent, int64_t qnum) {
  if (!tracer->enabled() || run.handle == nullptr) return;
  if (run.plan != nullptr) {
    ScopedSpan span(tracer, "plan.fragment", parent, qnum);
    std::vector<PlanFragment> fragments = FragmentPlan(run.plan);
    if (fragments.empty()) std::abort();  // every plan has a root stage
  }
  runner->KeepForSnapshot(run.handle);
}

// --- passes ----------------------------------------------------------------------

/// tpch_stream and spill_join: TPC-H SQL texts in order through one Session.
class SqlStream {
 public:
  SqlStream(Runner* runner, std::vector<int> queries)
      : runner_(runner), queries_(std::move(queries)) {}

  void Pass(bool traced, int pass_span) {
    Tracer disabled(false);
    Tracer* tracer = traced ? runner_->tracer() : &disabled;
    Session session(runner_->coordinator(), runner_->MakeSessionOptions());
    for (int q : queries_) {
      int64_t qnum = next_query_++;
      QueryRun run = RunSql(&session, TpchQuerySql(q), tracer, pass_span, qnum);
      AfterTracedQuery(runner_, tracer, run, pass_span, qnum);
      runner_->Check(TpchKey(q, runner_->shape().sf), run.status, run.pages,
                     run.latency_ms);
    }
  }

 private:
  Runner* runner_;
  std::vector<int> queries_;
  int64_t next_query_ = 0;
};

/// short_queries: closed-loop clients, one Session each, drawing the
/// seeded tiny-table mix. A pass is queries_per_client queries per client.
class ShortMix {
 public:
  ShortMix(Runner* runner, uint64_t seed) : runner_(runner) {
    for (int c = 0; c < runner->shape().clients; ++c) {
      rngs_.emplace_back(seed * 1000003ULL + static_cast<uint64_t>(c));
    }
  }

  void Pass(bool traced, int pass_span) {
    Tracer disabled(false);
    Tracer* tracer = traced ? runner_->tracer() : &disabled;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < rngs_.size(); ++c) {
      clients.emplace_back([this, c, tracer, pass_span] {
        Session session(runner_->coordinator(), runner_->MakeSessionOptions());
        Random* rng = &rngs_[c];
        // Seeded start offset so clients do not move in lockstep.
        SleepForMicros(rng->NextInt(0, 2000));
        for (int i = 0; i < runner_->shape().queries_per_client; ++i) {
          ShortQuery query = DrawShortQuery(rng);
          int64_t qnum = next_query_.fetch_add(1);
          QueryRun run =
              RunSql(&session, query.sql, tracer, pass_span, qnum);
          AfterTracedQuery(runner_, tracer, run, pass_span, qnum);
          runner_->Check(query.key + SfKey(kShortSf), run.status, run.pages,
                         run.latency_ms);
        }
      });
    }
    for (auto& client : clients) client.join();
  }

 private:
  Runner* runner_;
  std::vector<Random> rngs_;  // one seeded stream per client, across passes
  std::atomic<int64_t> next_query_{0};
};

/// elastic_switch: TpchQ2JPlan with the join stage started at DOP 1, then
/// switched up and down at fixed lineitem-scan progress points.
class ElasticSwitch {
 public:
  explicit ElasticSwitch(Runner* runner)
      : runner_(runner),
        lineitem_rows_(
            TpchSplitGenerator("lineitem", runner->shape().sf, 0, 1)
                .TotalRows()) {}

  int64_t switches_done() const { return switches_done_; }
  int64_t switches_planned() const { return switches_planned_; }

  void Pass(bool traced, int pass_span) {
    struct Step {
      double at_progress;
      int join_dop;
      int scan_task_dop;  // 0: leave the scan stage's task DOP alone
    };
    const Step kSteps[] = {{0.25, 4, 2}, {0.60, 2, 0}};
    Tracer disabled(false);
    Tracer* tracer = traced ? runner_->tracer() : &disabled;
    int64_t qnum = next_query_++;
    Coordinator* coordinator = runner_->coordinator();
    PlanNodePtr plan = TpchQ2JPlan(coordinator->catalog());
    int join_stage = -1;
    int scan_stage = -1;
    for (const PlanFragment& f : FragmentPlan(plan)) {
      if (f.has_join) join_stage = f.stage_id;
      if (f.scan_table == "lineitem") scan_stage = f.stage_id;
    }
    if (join_stage <= 0 || scan_stage <= 0) {
      runner_->Check(Key(), Status::Internal("Q2J has no join or scan stage"),
                     {}, 0);
      return;
    }
    Session session(coordinator, runner_->MakeSessionOptions());
    Predictor predictor(coordinator);
    QueryOptions options = session.default_query_options();
    options.stage_dop_overrides[join_stage] = 1;

    QueryRun run;
    Stopwatch watch;
    double predicted_s = -1;
    int64_t predicted_at_us = 0;
    {
      ScopedSpan query_span(tracer, "query", pass_span, qnum);
      int q = query_span.id();
      Result<QueryHandlePtr> handle = Status::OK();
      {
        ScopedSpan span(tracer, "api.execute", q, qnum);
        handle = session.Execute(plan, options);
      }
      if (!handle.ok()) {
        runner_->Check(Key(), handle.status(), {}, 0);
        return;
      }
      run.handle = *handle;
      size_t next = 0;
      while (next < std::size(kSteps) && run.status.ok()) {
        auto snapshot = run.handle->Snapshot();
        if (!snapshot.ok()) {
          run.status = snapshot.status();
          break;
        }
        // StageSnapshot::scan_total_rows only counts splits opened so far,
        // so progress is measured against the table's exact row count.
        const StageSnapshot* scan = snapshot->stage(scan_stage);
        if (scan == nullptr || scan->finished ||
            scan->scan_rows >= lineitem_rows_) {
          break;  // the scan ended before the remaining switch points
        }
        double progress = static_cast<double>(scan->scan_rows) /
                          static_cast<double>(lineitem_rows_);
        if (traced) {
          // Keeps the what-if service's consumption-rate window fed.
          ScopedSpan span(tracer, "tuner.estimate", q, qnum);
          (void)predictor.EstimateRemaining(run.handle->id(), join_stage);
        }
        if (progress < kSteps[next].at_progress) {
          SleepForMicros(2000);
          continue;
        }
        const Step& step = kSteps[next++];
        if (traced && next == 1) {
          ScopedSpan span(tracer, "tuner.predict", q, qnum);
          Stopwatch predict_watch;
          auto what_if = predictor.PredictAfterTuning(
              run.handle->id(), join_stage, step.join_dop);
          double us = predict_watch.ElapsedSeconds() * 1e6;
          runner_->layers()->predict_us.push_back(us);
          if (what_if.ok()) {
            predicted_s = what_if->predicted_seconds;
            predicted_at_us = NowMicros();
          }
        }
        DopSwitchReport report;
        Status st;
        {
          ScopedSpan span(tracer, "cluster.switch", q, qnum);
          st = run.handle->SetStageDop(join_stage, step.join_dop, &report);
        }
        if (st.ok()) {
          ++switches_done_;
          if (traced) runner_->layers()->switches.push_back(report);
        } else if (st.code() != StatusCode::kFailedPrecondition) {
          run.status = st;  // anything but "query already finished" fails
        }
        if (step.scan_task_dop > 0 && run.status.ok()) {
          ScopedSpan span(tracer, "cluster.task_dop", q, qnum);
          Status task_st =
              run.handle->SetTaskDop(scan_stage, step.scan_task_dop);
          if (!task_st.ok() &&
              task_st.code() != StatusCode::kFailedPrecondition) {
            run.status = task_st;
          }
        }
      }
      switches_planned_ += static_cast<int64_t>(std::size(kSteps));
      if (run.status.ok()) {
        ResultCursor cursor = run.handle->Cursor();
        DrainCursor(&cursor, tracer, q, qnum, &run);
      }
    }
    run.latency_ms = watch.ElapsedSeconds() * 1e3;
    if (!run.status.ok()) (void)run.handle->Abort();
    // The predictor answers 1e9 s while it has no consumption rate yet.
    if (traced && predicted_s >= 0 && predicted_s < 1e8) {
      double actual_s =
          static_cast<double>(NowMicros() - predicted_at_us) * 1e-6;
      if (actual_s > 0) {
        runner_->layers()->predict_error.push_back(
            std::fabs(predicted_s - actual_s) / actual_s);
      }
    }
    AfterTracedQuery(runner_, tracer, run, pass_span, qnum);
    runner_->Check(Key(), run.status, run.pages, run.latency_ms);
  }

 private:
  std::string Key() const { return "q2j" + SfKey(runner_->shape().sf); }

  Runner* runner_;
  int64_t lineitem_rows_;
  int64_t next_query_ = 0;
  int64_t switches_done_ = 0;
  int64_t switches_planned_ = 0;
};

// --- metrics -------------------------------------------------------------------

void PutLayerMetrics(const Shape& shape,
                     const std::vector<Span>& spans, const LayerStats& layers,
                     int64_t traced_passes, double traced_wall_s,
                     double untraced_wall_s, double untraced_cpu_s,
                     double switch_share, double failed_frac, Metrics* m) {
  std::map<std::string, SpanTotals> totals = SummarizeSpans(spans);
  double queries = static_cast<double>(std::max<int64_t>(1, layers.queries));
  // From outside, every layer span is a leaf, so its duration is its self
  // time; reported as the mean per traced query.
  auto per_query_us = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_us / queries;
  };
  for (const char* name : {"api.execute", "api.first_page", "api.drain",
                           "sql.parse", "sql.analyze", "plan.fragment"}) {
    (*m)[std::string(name) + "_us"] = {per_query_us(name), "us"};
  }
  (*m)["trace.unattributed_us"] = {
      totals.count("query") ? totals["query"].self_us / queries : 0.0, "us"};

  // Coverage: share of each query's wall time inside its layer spans.
  std::map<int, double> child_us;
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_us[s.parent] += static_cast<double>(s.end_us - s.start_us);
    }
  }
  double coverage_min = 1;
  for (const Span& s : spans) {
    if (s.name != "query" || s.end_us <= s.start_us) continue;
    coverage_min = std::min(
        coverage_min,
        child_us[s.id] / static_cast<double>(s.end_us - s.start_us));
  }
  (*m)["trace.coverage_min"] = {coverage_min, "ratio"};
  (*m)["trace.overhead_s"] = {traced_wall_s - untraced_wall_s, "s"};

  (*m)["cluster.rpc_per_query"] = {
      static_cast<double>(layers.rpc_requests) / queries, "count"};
  (*m)["cluster.initial_schedule_ms"] = {layers.initial_schedule_ms / queries,
                                         "ms"};
  double n_switch = static_cast<double>(layers.switches.size());
  double total = 0, shuffle = 0, build = 0;
  for (const DopSwitchReport& r : layers.switches) {
    total += r.total_seconds;
    shuffle += r.shuffle_seconds;
    build += r.build_seconds;
  }
  (*m)["cluster.switch_s"] = {n_switch > 0 ? total / n_switch : 0, "s"};
  (*m)["cluster.switch_shuffle_s"] = {n_switch > 0 ? shuffle / n_switch : 0,
                                      "s"};
  (*m)["cluster.switch_build_s"] = {n_switch > 0 ? build / n_switch : 0, "s"};
  (*m)["cluster.switch_done_frac"] = {switch_share, "ratio"};
  (*m)["tuner.predict_us"] = {Median(layers.predict_us), "us"};
  (*m)["tuner.predict_error"] = {Median(layers.predict_error), "ratio"};

  ProbeResults probes =
      RunProbes(shape.sf, ClusterOptions(shape, "").engine.batch_rows);
  (*m)["storage.gen_mrows_per_s"] = {probes.gen_mrows_per_s["lineitem"],
                                     "Mrows/s"};
  for (const std::string& table : ProbedTables()) {
    if (table == "lineitem") continue;
    (*m)["storage.gen_mrows_per_s." + table] = {probes.gen_mrows_per_s[table],
                                                "Mrows/s"};
  }
  // Share of a pass's CPU that regenerating the scanned rows would take at
  // the single-thread generation rate.
  double passes = static_cast<double>(std::max<int64_t>(1, traced_passes));
  double gen_s = 0;
  int64_t scanned = 0;
  for (const auto& [table, rows] : layers.scan_rows) {
    scanned += rows;
    double rate = probes.gen_mrows_per_s.count(table)
                      ? probes.gen_mrows_per_s[table] * 1e6
                      : 0;
    if (rate > 0) gen_s += static_cast<double>(rows) / passes / rate;
  }
  (*m)["storage.gen_cpu_share"] = {
      untraced_cpu_s > 0 ? gen_s / untraced_cpu_s : 0, "ratio"};
  (*m)["vector.serialize_mb_per_s"] = {probes.serialize_mb_per_s, "MB/s"};
  (*m)["vector.deserialize_mb_per_s"] = {probes.deserialize_mb_per_s, "MB/s"};
  (*m)["exec.hash_agg_mrows_per_s"] = {probes.hash_agg_mrows_per_s, "Mrows/s"};
  (*m)["exec.join_probe_mrows_per_s"] = {probes.join_probe_mrows_per_s,
                                         "Mrows/s"};
  (*m)["exec.scan_rows"] = {static_cast<double>(scanned) / passes, "count"};
  (*m)["exec.hash_build_us_max"] = {
      static_cast<double>(layers.hash_build_us_max), "us"};
  (*m)["exec.peak_build_bytes"] = {
      static_cast<double>(layers.peak_build_bytes), "B"};
  (*m)["exec.spill_bytes_written"] = {
      static_cast<double>(layers.spill_bytes) / queries, "B"};
  (*m)["exec.spill_partitions"] = {
      static_cast<double>(layers.spill_partitions) / queries, "count"};
  (*m)["failed_frac"] = {failed_frac, "ratio"};
}

std::string CpuModel() {
  FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::string s(line);
    if (s.rfind("model name", 0) == 0) {
      size_t colon = s.find(':');
      model = s.substr(colon + 2);
      while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
        model.pop_back();
      }
      break;
    }
  }
  std::fclose(f);
  return model;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "tpch_stream" || name == "short_queries" ||
         name == "elastic_switch" || name == "spill_join";
}

RunOutcome RunWorkload(const RunConfig& cfg) {
  RunOutcome outcome;
  RunOutcome* out = &outcome;
  Shape shape = ShapeFor(cfg.workload, cfg.smoke);
  Runner runner(cfg, shape);

  std::unique_ptr<SqlStream> stream;
  std::unique_ptr<ShortMix> mix;
  std::unique_ptr<ElasticSwitch> elastic;
  if (cfg.workload == "tpch_stream") {
    stream = std::make_unique<SqlStream>(
        &runner, std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  } else if (cfg.workload == "spill_join") {
    stream = std::make_unique<SqlStream>(&runner, std::vector<int>{3, 9, 10});
  } else if (cfg.workload == "short_queries") {
    mix = std::make_unique<ShortMix>(&runner, cfg.seed);
  } else {
    elastic = std::make_unique<ElasticSwitch>(&runner);
  }
  auto run_pass = [&](bool traced) {
    return runner.TimedPass(
        [&](int span) {
          if (stream) stream->Pass(traced, span);
          if (mix) mix->Pass(traced, span);
          if (elastic) elastic->Pass(traced, span);
        },
        traced);
  };

  run_pass(false);  // warm-up: caches, pool threads, lazy set-up

  std::vector<PassTiming> passes, traced;
  int64_t latency_samples = 0;
  double steal_s = 0;
  Stopwatch run_watch;
  bool traced_turn = false;
  while (passes.empty() || (cfg.trace && traced.empty()) ||
         run_watch.ElapsedSeconds() < cfg.seconds) {
    // Traced runs alternate untraced and traced passes, so the overhead is
    // the difference of two figures taken under the same conditions.
    bool is_traced = cfg.trace && traced_turn;
    PassTiming t = run_pass(is_traced);
    steal_s += t.steal_s;
    std::fprintf(stderr,
                 "perfbench: pass %zu%s setup %.4f s wall %.4f s cpu %.4f s "
                 "steal %.2f s\n",
                 passes.size() + traced.size(), is_traced ? " (traced)" : "",
                 t.setup_s, t.wall_s, t.cpu_s, t.steal_s);
    if (!is_traced) {
      latency_samples += static_cast<int64_t>(t.latencies_ms.size());
    }
    (is_traced ? traced : passes).push_back(std::move(t));
    if (cfg.trace) traced_turn = !traced_turn;
  }

  out->attempted = runner.attempted();
  out->failed = runner.failed();
  Metrics& m = out->metrics;
  std::vector<const PassTiming*> quiet = QuietPasses(passes);
  auto figure = [&quiet](const std::function<double(const PassTiming&)>& f) {
    std::vector<double> values;
    for (const PassTiming* pass : quiet) values.push_back(f(*pass));
    return Median(values);
  };
  double wall_s = figure([](const PassTiming& p) { return p.wall_s; });
  double cpu_s = figure([](const PassTiming& p) { return p.cpu_s; });
  if (!cfg.trace) {
    m["setup_s"] = {figure([](const PassTiming& p) { return p.setup_s; }),
                    "s"};
    m["wall_s"] = {wall_s, "s"};
    m["cpu_s"] = {cpu_s, "s"};
    m["latency_p50_ms"] = {figure([](const PassTiming& p) {
                             return Percentile(p.latencies_ms, 50);
                           }),
                           "ms"};
    m["peak_rss_mb"] = {figure([](const PassTiming& p) {
                          return p.peak_rss_mb;
                        }),
                        "MB"};
  } else {
    // Reported without a regression bound: a descheduled virtual CPU
    // doubles the short_queries p99 between otherwise equal runs, and qps
    // is the pass size over wall_s.
    m["client.qps"] = {figure([](const PassTiming& p) {
                         return static_cast<double>(p.queries) / p.wall_s;
                       }),
                       "1/s"};
    m["client.latency_p99_ms"] = {figure([](const PassTiming& p) {
                                    return Percentile(p.latencies_ms, 99);
                                  }),
                                  "ms"};
    out->spans = runner.tracer()->spans();
    double switch_share =
        elastic && elastic->switches_planned() > 0
            ? static_cast<double>(elastic->switches_done()) /
                  static_cast<double>(elastic->switches_planned())
            : 0;
    std::vector<double> traced_walls;
    for (const PassTiming* pass : QuietPasses(traced)) {
      traced_walls.push_back(pass->wall_s);
    }
    PutLayerMetrics(shape, out->spans, *runner.layers(),
                    static_cast<int64_t>(traced.size()), Median(traced_walls),
                    wall_s, cpu_s, switch_share,
                    static_cast<double>(out->failed) /
                        static_cast<double>(std::max<int64_t>(1, out->attempted)),
                    &m);
  }

  char sf[32];
  std::snprintf(sf, sizeof(sf), "%g", shape.sf);
  out->stamp = {
      {"workload", cfg.workload},
      {"mode", "real"},
      {"sf", sf},
      {"workers", std::to_string(shape.workers)},
      {"stage_dop", std::to_string(shape.stage_dop)},
      {"task_dop", std::to_string(shape.task_dop)},
      {"clients", std::to_string(shape.clients)},
      {"build_budget_bytes", std::to_string(shape.build_budget_bytes)},
      {"cpu_model", CpuModel()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"scheduler_threads", std::to_string(SchedulerThreads())},
      {"seed", std::to_string(cfg.seed)},
      {"passes", std::to_string(passes.size())},
      {"quiet_passes", std::to_string(quiet.size())},
      {"traced_passes", std::to_string(traced.size())},
      {"latency_samples", std::to_string(latency_samples)},
      {"cpu_steal_s", std::to_string(steal_s)},
  };
  return outcome;
}

bool RecordDigests(const std::string& out_dir, DigestBook* book,
                   std::string* error) {
  auto record = [&](double sf, int workers,
                    const std::function<void(Session*)>& body) {
    Shape shape;
    shape.sf = sf;
    shape.workers = workers;
    AccordionCluster cluster(ClusterOptions(shape, out_dir + "/spill"));
    SessionOptions options;  // stage/task DOP 1
    options.default_timeout_ms = kQueryTimeoutMs;
    Session session(cluster.coordinator(), options);
    body(&session);
  };
  bool ok = true;
  auto put = [&](const std::string& key, Result<QueryHandlePtr> handle) {
    if (!handle.ok()) {
      *error = key + ": " + handle.status().ToString();
      ok = false;
      return;
    }
    auto pages = (*handle)->Cursor().Drain(kQueryTimeoutMs);
    if (!pages.ok()) {
      *error = key + ": " + pages.status().ToString();
      ok = false;
      return;
    }
    book->Put(key, DigestPages(*pages));
  };
  std::filesystem::create_directories(out_dir + "/spill");
  for (double sf : {0.01, 0.1}) {
    record(sf, 2, [&](Session* session) {
      for (int q = 1; q <= 12; ++q) {
        put(TpchKey(q, sf), session->Execute(TpchQuerySql(q)));
      }
    });
  }
  record(kShortSf, 2, [&](Session* session) {
    for (const ShortQuery& query : AllShortQueries()) {
      put(query.key + SfKey(kShortSf), session->Execute(query.sql));
    }
  });
  for (double sf : {0.01, 0.2}) {
    record(sf, 4, [&](Session* session) {
      put("q2j" + SfKey(sf), session->Execute(TpchQ2JPlan(session->catalog())));
    });
  }
  return ok;
}

}  // namespace perfbench
