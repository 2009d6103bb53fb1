#include <algorithm>
#include <cstdio>

#include "common/clock.h"
#include "perfbench.h"

namespace perfbench {

int Tracer::Begin(const char* name, int parent, int64_t query) {
  int64_t now = accordion::NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.start_us = now;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.query = query;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int id) {
  int64_t now = accordion::NowMicros();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end_us = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    double duration = static_cast<double>(s.end_us - s.start_us);
    // Union of the children's intervals clipped to this span: children of
    // one span may overlap when several client threads share a parent.
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t reach = s.start_us;
      for (auto [begin, end] : intervals) {
        begin = std::max(begin, reach);
        end = std::min(end, s.end_us);
        if (end > begin) {
          covered += end - begin;
          reach = end;
        }
      }
    }
    SpanTotals& t = totals[s.name];
    t.total_us += duration;
    t.self_us += duration - static_cast<double>(covered);
  }
  return totals;
}

bool WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& stamp_json, const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_us;
  for (const Span& s : spans) origin = std::min(origin, s.start_us);
  std::fprintf(out, "{\"metadata\": %s,\n\"traceEvents\": [\n",
               stamp_json.c_str());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%lld,\"dur\":%lld,\"args\":{\"id\":%d,"
                 "\"parent\":%d,\"query\":%lld}}%s\n",
                 s.name.c_str(), static_cast<long long>(s.query),
                 static_cast<long long>(s.start_us - origin),
                 static_cast<long long>(s.end_us - s.start_us), s.id, s.parent,
                 static_cast<long long>(s.query),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
