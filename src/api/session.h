#ifndef ACCORDION_API_SESSION_H_
#define ACCORDION_API_SESSION_H_

#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "sql/parser.h"

namespace accordion {

/// The client front door of the engine (paper Fig. 1's "Welcome to
/// Accordion Cloud!" surface): one Session per client, created from a
/// cluster's coordinator. Everything a client does — SQL text, hand-built
/// plans, prepared statements, EXPLAIN, runtime DOP tuning, incremental
/// result consumption — goes through Session and the QueryHandle it
/// returns. The legacy Coordinator::Submit/Wait pair survives underneath
/// as the scheduling/fetch primitives.
///
///   Session session(cluster.coordinator());
///   ACCORDION_ASSIGN_OR_RETURN(QueryHandlePtr q,
///       session.Execute("SELECT ... FROM lineitem ..."));
///   ResultCursor cursor = q->Cursor();
///   while (true) {
///     ACCORDION_ASSIGN_OR_RETURN(PagePtr page, cursor.Next());
///     if (page == nullptr) break;  // end of stream
///     Render(*page);
///   }
///
/// Results stream: pages are pulled off stage 0's output buffer as the
/// client iterates, so peak coordinator-side buffering is bounded by the
/// elastic buffer capacity and a slow client backpressures the query
/// instead of forcing the engine to materialize everything.

class QueryHandle;
using QueryHandlePtr = std::shared_ptr<QueryHandle>;

/// Output shape for Session::Explain.
enum class ExplainFormat {
  kText,  ///< Stable stage-tree rendering (the historical format).
  kJson,  ///< Machine-readable envelope with optimizer report and
          ///< per-node cardinality estimates.
};

/// Knobs for Session::Explain. The option-less overloads behave exactly
/// like a default-constructed ExplainOptions (kText).
struct ExplainOptions {
  ExplainFormat format = ExplainFormat::kText;
};

/// Per-session defaults and limits.
struct SessionOptions {
  /// Applied to Execute() calls that don't pass explicit QueryOptions.
  QueryOptions query_defaults;

  /// Tenant the session's queries are accounted against for the
  /// cluster-global per-tenant admission quota
  /// (EngineConfig::max_queries_per_tenant). Stamped onto submitted
  /// QueryOptions whose own tenant is empty.
  std::string tenant;

  /// Session-local admission cap: Execute() fails with ResourceExhausted
  /// while this many of the session's queries are still running (<= 0:
  /// unlimited). Layered under the cluster-global limits
  /// (EngineConfig::max_concurrent_queries / max_queries_per_tenant),
  /// which the coordinator enforces across all sessions.
  int max_concurrent_queries = 8;

  /// Default deadline for blocking calls (QueryHandle::Wait, cursor
  /// Next with no explicit timeout).
  int64_t default_timeout_ms = 600000;

  /// Pages pulled per fetch round trip.
  int fetch_batch_pages = 16;
};

/// Pull-based stream of result pages for one query. Move-only value
/// type (a copy would duplicate client-side buffered pages), safe to
/// keep after the QueryHandle (or the whole Session) is gone — it only
/// needs the coordinator, which outlives all queries. Concurrent fetches
/// on the same query (two cursors, or cursor + Wait) are serialized by
/// the coordinator and split the stream between them.
class ResultCursor {
 public:
  ResultCursor(ResultCursor&&) = default;
  ResultCursor& operator=(ResultCursor&&) = default;
  ResultCursor(const ResultCursor&) = delete;
  ResultCursor& operator=(const ResultCursor&) = delete;

  /// Returns the next result page, blocking (on the root buffer, not on
  /// a timer) until one is available, the stream completes or the
  /// deadline passes. nullptr signals a cleanly finished stream. A query
  /// abort surfaces as kAborted, a blown deadline as kDeadlineExceeded
  /// (the query keeps running and the cursor stays usable, a background
  /// fetch still in flight included), and a failed query (worker crash,
  /// retry exhaustion) as one contextful kUnavailable — a query fails, it
  /// never hangs.
  Result<PagePtr> Next(int64_t timeout_ms = -1);

  /// Pulls whatever is currently buffered without blocking (empty result
  /// + !Done() means "nothing yet").
  Result<PagesResult> Poll();

  /// Runs the stream to completion, collecting all remaining pages; blocks
  /// like Next, and on kDeadlineExceeded keeps every page for a retry.
  Result<std::vector<PagePtr>> Drain(int64_t timeout_ms = -1);

  /// True once the end of the stream was observed by THIS cursor.
  bool Done() const { return done_; }

  int64_t pages_seen() const { return pages_seen_; }
  int64_t rows_seen() const { return rows_seen_; }

  /// Double-buffering observability: background fetches started, and how
  /// many of them were consumed as the next batch.
  int64_t prefetches_issued() const { return prefetches_issued_; }
  int64_t prefetch_hits() const { return prefetch_hits_; }

 private:
  friend class QueryHandle;
  ResultCursor(Coordinator* coordinator, std::string query_id,
               int batch_pages, int64_t default_timeout_ms)
      : coordinator_(coordinator),
        query_id_(std::move(query_id)),
        batch_pages_(batch_pages),
        default_timeout_ms_(default_timeout_ms) {}

  /// Starts a background fetch of the next batch (double buffering). Only
  /// called once at least half of the current batch is consumed, so a
  /// client that stops reading holds at most one extra batch and the
  /// engine's elastic-buffer backpressure still applies.
  void StartPrefetch();
  /// Next batch: the pending background fetch if one exists (waiting up
  /// to `timeout_ms` for it to land, else leaving it pending and
  /// returning nothing), otherwise a fetch that blocks up to `timeout_ms`.
  Result<PagesResult> TakeFetch(int64_t timeout_ms);

  Coordinator* coordinator_;
  std::string query_id_;
  int batch_pages_;
  int64_t default_timeout_ms_;
  std::vector<PagePtr> buffered_;  // fetched, not yet handed out
  size_t next_buffered_ = 0;
  bool done_ = false;
  int64_t pages_seen_ = 0;
  int64_t rows_seen_ = 0;
  std::future<Result<PagesResult>> prefetch_;  // in-flight background fetch
  int64_t prefetches_issued_ = 0;
  int64_t prefetch_hits_ = 0;
};

/// Owns one query's lifecycle: result consumption, tuning knobs,
/// observability and abort. Created only by Session::Execute.
class QueryHandle {
 public:
  const std::string& id() const { return id_; }

  /// Streaming result consumption; may be called more than once, but
  /// cursors on one query split the page stream between them.
  ResultCursor Cursor() const;

  /// Blocks (on the root buffer, not on a timer) until the query
  /// finishes and returns all pages fetched by this call (don't mix with a
  /// cursor). Timeout -1 = session default; on kDeadlineExceeded the query
  /// is still running and abortable, and the next Wait resumes the stream.
  Result<std::vector<PagePtr>> Wait(int64_t timeout_ms = -1);

  bool Finished() const { return coordinator_->IsFinished(id_); }
  Status Abort() { return coordinator_->Abort(id_); }

  /// Async completion: `callback` runs exactly once when the query
  /// reaches a terminal state (fires immediately if it already has), so
  /// clients need not poll Finished()/Next() to learn a query's fate.
  /// Runs on the thread that completes the query — keep it cheap and do
  /// not call blocking QueryHandle APIs from it.
  Status OnComplete(std::function<void(QueryState)> callback) {
    return coordinator_->NotifyOnCompletion(id_, std::move(callback));
  }

  /// Runtime information tree (paper Fig. 18).
  Result<QuerySnapshot> Snapshot() const { return coordinator_->Snapshot(id_); }

  // Runtime DOP knobs hang off the handle (paper §4.3/§4.4).
  Status SetStageDop(int stage_id, int dop, DopSwitchReport* report = nullptr) {
    return coordinator_->SetStageDop(id_, stage_id, dop, report);
  }
  Status SetTaskDop(int stage_id, int dop) {
    return coordinator_->SetTaskDop(id_, stage_id, dop);
  }

 private:
  friend class Session;
  QueryHandle(Coordinator* coordinator, std::string id,
              const SessionOptions& options)
      : coordinator_(coordinator),
        id_(std::move(id)),
        default_timeout_ms_(options.default_timeout_ms),
        fetch_batch_pages_(options.fetch_batch_pages) {}

  Coordinator* coordinator_;
  std::string id_;
  int64_t default_timeout_ms_;
  int fetch_batch_pages_;
};

/// A parsed `?`-parameterized SQL statement. Bind concrete Values per
/// execution via Session::Execute(statement, params).
class PreparedStatement {
 public:
  const std::string& sql() const { return sql_; }
  int parameter_count() const { return query_.placeholder_count; }

 private:
  friend class Session;
  std::string sql_;
  SqlQuery query_;
};

class Session {
 public:
  explicit Session(Coordinator* coordinator, SessionOptions options = {})
      : coordinator_(coordinator), options_(std::move(options)) {}

  // --- the one front door -------------------------------------------------
  /// SQL text -> distributed plan -> running query.
  Result<QueryHandlePtr> Execute(const std::string& sql);
  Result<QueryHandlePtr> Execute(const std::string& sql,
                                 const QueryOptions& query_options);
  /// Hand-built physical plan (benchmarks, TPC-H plan library).
  Result<QueryHandlePtr> Execute(const PlanNodePtr& plan);
  Result<QueryHandlePtr> Execute(const PlanNodePtr& plan,
                                 const QueryOptions& query_options);
  /// Prepared statement + bound parameter values.
  Result<QueryHandlePtr> Execute(const PreparedStatement& statement,
                                 const std::vector<Value>& params);
  Result<QueryHandlePtr> Execute(const PreparedStatement& statement,
                                 const std::vector<Value>& params,
                                 const QueryOptions& query_options);

  /// Parses and validates a `?`-parameterized statement once; execute it
  /// many times with different bound values.
  Result<PreparedStatement> Prepare(const std::string& sql) const;

  /// Stage-tree rendering of the distributed plan (what would run).
  /// The text format is stable (tooling parses it); kJson adds the
  /// optimizer report and per-node cardinality estimates in a
  /// machine-readable envelope instead.
  Result<std::string> Explain(const std::string& sql) const;
  Result<std::string> Explain(const PlanNodePtr& plan) const;
  Result<std::string> Explain(const std::string& sql,
                              const ExplainOptions& explain_options) const;
  Result<std::string> Explain(const PlanNodePtr& plan,
                              const ExplainOptions& explain_options) const;

  // --- session state ------------------------------------------------------
  /// Mutable per-session defaults applied to option-less Execute calls.
  QueryOptions& default_query_options() { return options_.query_defaults; }
  const SessionOptions& options() const { return options_; }

  /// Queries admitted by this session that are still running.
  int active_queries();

  Coordinator* coordinator() const { return coordinator_; }
  const Catalog& catalog() const { return coordinator_->catalog(); }

 private:
  /// Admission check + submit + handle construction.
  Result<QueryHandlePtr> Submit(const PlanNodePtr& plan,
                                const QueryOptions& query_options);
  /// Unlocked helper: drops finished ids, returns the running count.
  int PruneFinishedLocked();

  Coordinator* coordinator_;
  SessionOptions options_;
  std::mutex mutex_;
  std::vector<std::string> active_ids_;  // queries admitted by this session
  int reserved_ = 0;  // in-flight Submit calls holding an admission slot
};

}  // namespace accordion

#endif  // ACCORDION_API_SESSION_H_
