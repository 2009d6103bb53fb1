#include "api/session.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/clock.h"
#include "plan/fragment.h"
#include "sql/analyzer.h"

namespace accordion {

// --- ResultCursor ----------------------------------------------------------

void ResultCursor::StartPrefetch() {
  Coordinator* coordinator = coordinator_;
  std::string query_id = query_id_;
  int batch_pages = batch_pages_;
  prefetch_ = std::async(std::launch::async,
                         [coordinator, query_id, batch_pages]() {
                           return coordinator->FetchResults(query_id,
                                                            batch_pages);
                         });
  ++prefetches_issued_;
}

Result<PagesResult> ResultCursor::TakeFetch(int64_t timeout_ms) {
  if (!prefetch_.valid()) {
    return coordinator_->FetchResults(query_id_, batch_pages_, timeout_ms);
  }
  // A prefetch still in flight at the deadline stays pending: the next
  // call takes it, so nothing is lost.
  if (prefetch_.wait_for(std::chrono::milliseconds(timeout_ms)) !=
      std::future_status::ready) {
    return PagesResult{};
  }
  ++prefetch_hits_;
  return prefetch_.get();
}

Result<PagePtr> ResultCursor::Next(int64_t timeout_ms) {
  if (timeout_ms < 0) timeout_ms = default_timeout_ms_;
  const int64_t deadline_ms = NowMillis() + timeout_ms;
  while (true) {
    if (next_buffered_ < buffered_.size()) {
      PagePtr page = std::move(buffered_[next_buffered_++]);
      // Double buffering: once half the batch is handed out, fetch the
      // next one in the background so transfer latency overlaps with the
      // client's processing of the remaining pages.
      if (!done_ && !prefetch_.valid() &&
          next_buffered_ * 2 >= buffered_.size()) {
        StartPrefetch();
      }
      if (next_buffered_ == buffered_.size()) {
        buffered_.clear();
        next_buffered_ = 0;
      }
      ++pages_seen_;
      rows_seen_ += page->num_rows();
      return page;
    }
    if (done_) return PagePtr(nullptr);
    auto fetched = TakeFetch(std::max<int64_t>(deadline_ms - NowMillis(), 0));
    ACCORDION_RETURN_NOT_OK(fetched.status());
    if (fetched->complete) done_ = true;
    if (!fetched->pages.empty()) {
      buffered_ = std::move(fetched->pages);
      next_buffered_ = 0;
      continue;
    }
    if (done_) return PagePtr(nullptr);
    if (NowMillis() >= deadline_ms) {
      return Status::DeadlineExceeded("no result page within " +
                                      std::to_string(timeout_ms) +
                                      "ms on query " + query_id_);
    }
  }
}

Result<std::vector<PagePtr>> ResultCursor::Drain(int64_t timeout_ms) {
  if (timeout_ms < 0) timeout_ms = default_timeout_ms_;
  std::vector<PagePtr> pages;
  Stopwatch sw;
  // On ANY deadline (hit at the loop top or surfaced from inside Next),
  // hand the collected pages back to the cursor as un-consumed (and
  // uncount them) so a retrying Drain/Next resumes losslessly.
  auto timed_out = [&]() -> Status {
    if (!pages.empty()) {
      pages_seen_ -= static_cast<int64_t>(pages.size());
      for (const auto& page : pages) rows_seen_ -= page->num_rows();
      for (size_t i = next_buffered_; i < buffered_.size(); ++i) {
        pages.push_back(std::move(buffered_[i]));
      }
      buffered_ = std::move(pages);
      next_buffered_ = 0;
    }
    return Status::DeadlineExceeded("cursor drain of query " + query_id_ +
                                    " exceeded " +
                                    std::to_string(timeout_ms) + "ms");
  };
  while (true) {
    int64_t remaining_ms = timeout_ms - sw.ElapsedMillis();
    if (remaining_ms <= 0) return timed_out();
    auto page = Next(remaining_ms);
    if (!page.ok()) {
      if (page.status().code() == StatusCode::kDeadlineExceeded) {
        return timed_out();
      }
      return page.status();
    }
    if (*page == nullptr) break;
    pages.push_back(std::move(*page));
  }
  return pages;
}

// --- QueryHandle -----------------------------------------------------------

ResultCursor QueryHandle::Cursor() const {
  return ResultCursor(coordinator_, id_, fetch_batch_pages_,
                      default_timeout_ms_);
}

Result<std::vector<PagePtr>> QueryHandle::Wait(int64_t timeout_ms) {
  if (timeout_ms < 0) timeout_ms = default_timeout_ms_;
  return coordinator_->Wait(id_, timeout_ms);
}

// --- Session ---------------------------------------------------------------

int Session::PruneFinishedLocked() {
  int running = 0;
  size_t keep = 0;
  for (size_t i = 0; i < active_ids_.size(); ++i) {
    if (coordinator_->IsFinished(active_ids_[i])) continue;
    active_ids_[keep++] = active_ids_[i];
    ++running;
  }
  active_ids_.resize(keep);
  return running;
}

int Session::active_queries() {
  std::lock_guard<std::mutex> lock(mutex_);
  return PruneFinishedLocked();
}

namespace {
/// Releases a session admission reservation on every exit path exactly
/// once — early error returns between reserve and release cannot wedge
/// the cap.
class ReservationGuard {
 public:
  ReservationGuard(std::mutex* mutex, int* reserved)
      : mutex_(mutex), reserved_(reserved) {}
  ~ReservationGuard() {
    std::lock_guard<std::mutex> lock(*mutex_);
    --*reserved_;
  }
  ReservationGuard(const ReservationGuard&) = delete;
  ReservationGuard& operator=(const ReservationGuard&) = delete;

 private:
  std::mutex* mutex_;
  int* reserved_;
};
}  // namespace

Result<QueryHandlePtr> Session::Submit(const PlanNodePtr& plan,
                                       const QueryOptions& query_options) {
  // Admission check reserves a slot under the lock; the (slow) stage
  // scheduling itself runs unlocked so concurrent Execute/active_queries
  // calls on this session don't serialize behind it.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    int running = PruneFinishedLocked();
    if (options_.max_concurrent_queries > 0 &&
        running + reserved_ >= options_.max_concurrent_queries) {
      return Status::ResourceExhausted(
          "session admission cap reached (" +
          std::to_string(options_.max_concurrent_queries) +
          " concurrent queries); wait for or abort a running query");
    }
    ++reserved_;
  }
  ReservationGuard guard(&mutex_, &reserved_);
  QueryOptions effective = query_options;
  if (effective.tenant.empty()) effective.tenant = options_.tenant;
  auto submitted = coordinator_->Submit(plan, effective);
  ACCORDION_RETURN_NOT_OK(submitted.status());
  std::string id = std::move(*submitted);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_ids_.push_back(id);
  }
  return QueryHandlePtr(
      new QueryHandle(coordinator_, std::move(id), options_));
}

Result<QueryHandlePtr> Session::Execute(const PlanNodePtr& plan) {
  return Submit(plan, options_.query_defaults);
}

Result<QueryHandlePtr> Session::Execute(const PlanNodePtr& plan,
                                        const QueryOptions& query_options) {
  return Submit(plan, query_options);
}

Result<QueryHandlePtr> Session::Execute(const std::string& sql) {
  return Execute(sql, options_.query_defaults);
}

Result<QueryHandlePtr> Session::Execute(const std::string& sql,
                                        const QueryOptions& query_options) {
  ACCORDION_ASSIGN_OR_RETURN(SqlQuery query, ParseSqlQuery(sql));
  if (query.placeholder_count > 0) {
    return Status::InvalidArgument(
        "statement has ? parameters — use Prepare() and bind values");
  }
  ACCORDION_ASSIGN_OR_RETURN(
      PlanNodePtr plan,
      AnalyzeSql(query, coordinator_->catalog(), query_options.optimizer));
  return Submit(plan, query_options);
}

Result<PreparedStatement> Session::Prepare(const std::string& sql) const {
  PreparedStatement statement;
  statement.sql_ = sql;
  ACCORDION_ASSIGN_OR_RETURN(statement.query_, ParseSqlQuery(sql));
  return statement;
}

Result<QueryHandlePtr> Session::Execute(const PreparedStatement& statement,
                                        const std::vector<Value>& params) {
  return Execute(statement, params, options_.query_defaults);
}

Result<QueryHandlePtr> Session::Execute(const PreparedStatement& statement,
                                        const std::vector<Value>& params,
                                        const QueryOptions& query_options) {
  ACCORDION_ASSIGN_OR_RETURN(SqlQuery bound,
                             BindPlaceholders(statement.query_, params));
  ACCORDION_ASSIGN_OR_RETURN(
      PlanNodePtr plan,
      AnalyzeSql(bound, coordinator_->catalog(), query_options.optimizer));
  return Submit(plan, query_options);
}

namespace {

// Minimal JSON string escaping for the EXPLAIN envelope: quotes,
// backslashes and control characters (plan describes can embed both
// via table names and literals).
std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void NodeToJson(const PlanNodePtr& node, std::ostringstream& out) {
  out << "{\"node\":\"" << JsonEscape(node->Describe()) << "\",\"kind\":\""
      << PlanNodeKindName(node->kind()) << "\"";
  if (node->estimated_rows() >= 0) {
    out << ",\"estimated_rows\":" << node->estimated_rows();
  }
  if (!node->children().empty()) {
    out << ",\"children\":[";
    bool first = true;
    for (const auto& child : node->children()) {
      if (!first) out << ",";
      first = false;
      NodeToJson(child, out);
    }
    out << "]";
  }
  out << "}";
}

// The kJson stage array: one entry per plan fragment with its stage
// wiring plus the recursive plan tree (cardinality estimates included
// where the optimizer set them).
std::string StagesToJson(const std::vector<PlanFragment>& fragments) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (const auto& fragment : fragments) {
    if (!first) out << ",";
    first = false;
    out << "{\"stage\":" << fragment.stage_id
        << ",\"parent_stage\":" << fragment.parent_stage_id << ",\"sources\":[";
    bool first_source = true;
    for (int s : fragment.source_stage_ids) {
      if (!first_source) out << ",";
      first_source = false;
      out << s;
    }
    out << "],\"plan\":";
    NodeToJson(fragment.root, out);
    out << "}";
  }
  out << "]";
  return out.str();
}

}  // namespace

Result<std::string> Session::Explain(const PlanNodePtr& plan) const {
  return Explain(plan, ExplainOptions{});
}

Result<std::string> Session::Explain(const PlanNodePtr& plan,
                                     const ExplainOptions& explain_options)
    const {
  std::vector<PlanFragment> fragments = FragmentPlan(plan);
  if (explain_options.format == ExplainFormat::kJson) {
    return "{\"stages\":" + StagesToJson(fragments) + "}";
  }
  std::ostringstream out;
  for (const auto& fragment : fragments) {
    out << fragment.ToString();
    if (!fragment.source_stage_ids.empty()) {
      out << "  sources:";
      for (int s : fragment.source_stage_ids) out << " stage " << s;
      out << "\n";
    }
  }
  return out.str();
}

Result<std::string> Session::Explain(const std::string& sql) const {
  return Explain(sql, ExplainOptions{});
}

Result<std::string> Session::Explain(const std::string& sql,
                                     const ExplainOptions& explain_options)
    const {
  ACCORDION_ASSIGN_OR_RETURN(SqlQuery query, ParseSqlQuery(sql));
  ACCORDION_ASSIGN_OR_RETURN(
      AnalyzedPlan analyzed,
      AnalyzeSqlWithReport(query, coordinator_->catalog(),
                           options_.query_defaults.optimizer));
  if (explain_options.format == ExplainFormat::kJson) {
    std::vector<PlanFragment> fragments = FragmentPlan(analyzed.plan);
    return "{\"stages\":" + StagesToJson(fragments) +
           ",\"optimizer_report\":\"" +
           JsonEscape(analyzed.optimizer_report) + "\"}";
  }
  ACCORDION_ASSIGN_OR_RETURN(std::string rendered, Explain(analyzed.plan));
  if (analyzed.optimizer_report.empty()) return rendered;
  return "-- optimizer --\n" + analyzed.optimizer_report + rendered;
}

}  // namespace accordion
