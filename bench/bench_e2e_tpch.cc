// End-to-end TPC-H through the Session front door: all 12 queries run via
// Session::Execute from their TpchQuerySql text (the SQL subset covers
// the whole suite; the hand-built plan library remains the fallback for
// queries without SQL), with results streamed through a ResultCursor.
// Machine-readable timings land in BENCH_e2e.json (override the path
// with ACCORDION_BENCH_JSON).
//
//   $ ./bench_e2e_tpch

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench/bench_util.h"
#include "common/clock.h"
#include "tpch/queries.h"

int main() {
  using namespace accordion;

  bench::PrintHeader(
      "End-to-end TPC-H, 12 queries through Session::Execute "
      "(SQL text where expressible) with cursor-streamed results",
      "Session API acceptance run (SF0.01 + cost model)");

  struct Row {
    int q;
    const char* frontend;
    double seconds;
    int64_t rows;
    int64_t pages;
  };
  std::vector<Row> rows;

  std::printf("%-6s  %-8s  %10s  %8s  %7s\n", "Query", "Frontend",
              "Time (s)", "Rows", "Pages");
  double total = 0;
  for (int q = 1; q <= 12; ++q) {
    auto options = bench::ExperimentOptions(/*cost_scale=*/0.8);
    options.num_workers = 2;
    AccordionCluster cluster(options);
    SessionOptions session_options;
    session_options.query_defaults.stage_dop = 2;
    session_options.query_defaults.task_dop = 2;
    Session session(cluster.coordinator(), session_options);

    std::string sql = TpchQuerySql(q);
    Stopwatch sw;
    auto query = sql.empty()
                     ? session.Execute(TpchQueryPlan(q, session.catalog()))
                     : session.Execute(sql);
    if (!query.ok()) {
      std::fprintf(stderr, "Q%d submit failed: %s\n", q,
                   query.status().ToString().c_str());
      return 1;
    }
    ResultCursor cursor = (*query)->Cursor();
    auto pages = cursor.Drain(900000);
    if (!pages.ok()) {
      std::fprintf(stderr, "Q%d failed: %s\n", q,
                   pages.status().ToString().c_str());
      return 1;
    }
    Row row;
    row.q = q;
    row.frontend = sql.empty() ? "plan" : "sql";
    row.seconds = sw.ElapsedSeconds();
    row.rows = cursor.rows_seen();
    row.pages = cursor.pages_seen();
    rows.push_back(row);
    total += row.seconds;
    std::printf("Q%-5d  %-8s  %10.3f  %8lld  %7lld\n", q, row.frontend,
                row.seconds, static_cast<long long>(row.rows),
                static_cast<long long>(row.pages));
  }
  std::printf("%-6s  %-8s  %10.3f\n", "TOTAL", "", total);

  const char* json_path = std::getenv("ACCORDION_BENCH_JSON");
  std::string out_path = json_path != nullptr ? json_path : "BENCH_e2e.json";
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"e2e_tpch_session\",\n"
                    "  \"queries\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "    {\"query\": %d, \"frontend\": \"%s\", "
                 "\"seconds\": %.6f, \"rows\": %lld, \"pages\": %lld}%s\n",
                 row.q, row.frontend, row.seconds,
                 static_cast<long long>(row.rows),
                 static_cast<long long>(row.pages),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"total_seconds\": %.6f\n}\n", total);
  std::fclose(out);
  std::printf("\nWrote %s\n", out_path.c_str());
  return 0;
}
