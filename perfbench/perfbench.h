// Shared declarations of the benchmark of record (see README.md).
#ifndef ACCORDION_PERFBENCH_PERFBENCH_H_
#define ACCORDION_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "vector/page.h"

namespace perfbench {

using accordion::PagePtr;

// --- tracing -----------------------------------------------------------------

/// One timed call into an engine layer, recorded from the benchmark side.
struct Span {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int id = 0;
  int parent = -1;      // -1: a root span
  int64_t query = -1;   // benchmark-local query number, -1 outside a query
};

/// In-memory span recorder. Disabled tracers record nothing and never read
/// the clock, so untraced runs pay only a branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int Begin(const char* name, int parent, int64_t query);
  void End(int id);
  std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, int64_t query)
      : tracer_(tracer),
        id_(tracer->enabled() ? tracer->Begin(name, parent, query) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Per span name: summed duration and summed self time (duration minus the
/// part of the interval its children cover), in microseconds.
struct SpanTotals {
  double total_us = 0;
  double self_us = 0;
};
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON with `stamp_json` under
/// "metadata". Returns false when the file cannot be written.
bool WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& stamp_json, const std::string& path);

// --- output digests ------------------------------------------------------------

/// Row count plus an order-independent hash of the rows, doubles rounded
/// to six significant digits so summation order does not matter.
struct Digest {
  int64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Digest& o) const {
    return rows == o.rows && hash == o.hash;
  }
};
Digest DigestPages(const std::vector<PagePtr>& pages);

/// Recorded digests, keyed like "tpch.q03@sf0.1". One "key rows hash"
/// line per digest.
class DigestBook {
 public:
  bool Load(const std::string& path, std::string* error);
  const Digest* Find(const std::string& key) const;
  void Put(const std::string& key, const Digest& digest);
  bool Save(const std::string& path) const;

 private:
  std::map<std::string, Digest> digests_;
};

// --- layer probes ------------------------------------------------------------

/// Single-threaded throughput of layer entry points, measured outside any
/// query on generated TPC-H data (all rates in millions per second).
struct ProbeResults {
  std::map<std::string, double> gen_mrows_per_s;  // per table
  double serialize_mb_per_s = 0;
  double deserialize_mb_per_s = 0;
  double hash_agg_mrows_per_s = 0;
  double join_probe_mrows_per_s = 0;
};
ProbeResults RunProbes(double scale_factor, int64_t batch_rows);

/// Tables whose generation rate the probes measure.
const std::vector<std::string>& ProbedTables();

// --- workloads ---------------------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_out";
  DigestBook digests;
};

/// Metric name -> (value, unit); printed as the result line's "metrics".
using Metrics = std::map<std::string, std::pair<double, std::string>>;

struct RunOutcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
  std::map<std::string, std::string> stamp;  // workload-specific stamp fields
  std::vector<Span> spans;
};

bool IsWorkload(const std::string& name);
/// Runs the workload for cfg.seconds after one warm-up pass.
RunOutcome RunWorkload(const RunConfig& cfg);
/// Runs every query of every workload at stage/task DOP 1 and records its
/// digest into `book`.
bool RecordDigests(const std::string& out_dir, DigestBook* book,
                   std::string* error);

}  // namespace perfbench

#endif  // ACCORDION_PERFBENCH_PERFBENCH_H_
