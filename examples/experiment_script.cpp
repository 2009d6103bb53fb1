// Driving an experiment with the built-in scripting language (paper §6.1)
// — the mechanism behind every timing figure in the evaluation: query
// initiation and parallelism adjustments at specified times, with accepts
// and rejections recorded. Scripts run through the Session front door, so
// a registered name can hold a hand-built plan or plain SQL text.
//
//   $ ./experiment_script

#include <cstdio>

#include "api/session.h"
#include "cluster/cluster.h"
#include "script/script.h"
#include "tpch/queries.h"

int main() {
  using namespace accordion;
  setvbuf(stdout, nullptr, _IOLBF, 0);

  AccordionCluster::Options options;
  options.num_workers = 4;
  options.num_storage_nodes = 4;
  options.scale_factor = 0.01;
  options.engine.cost.scale = 2.0;
  options.engine.memory.initial_buffer_bytes = 2048;
  options.engine.memory.max_buffer_bytes = 16 * 1024;
  AccordionCluster cluster(options);
  Session session(cluster.coordinator());
  AutoTuner tuner(cluster.coordinator());

  ScriptExecutor executor(&session, &tuner);
  // The two-way join of §4.4, registered once as SQL text...
  executor.RegisterSql("q2j",
                       "SELECT count(l_orderkey) AS cnt FROM lineitem "
                       "INNER JOIN orders ON l_orderkey = o_orderkey");
  // ...and once as the hand-built plan (identical stage tree).
  executor.RegisterPlan("q2j_plan", TpchQ2JPlan(session.catalog()));

  const char* script = R"(
# Fig. 26-style experiment: start the two-way join at stage DOP 2,
# switch the join stage as the lineitem scan progresses, and attempt one
# unreasonable request near the end (the filter should reject it).
option stage_dop 2
option task_dop 1
submit q2j
at_progress 0.2 1 stage_dop 1 4
at_progress 0.5 1 stage_dop 1 6
at_progress 0.95 1 stage_dop 1 8
wait 300
)";
  std::printf("Running experiment script:%s\n", script);

  auto report = executor.Run(script);
  if (!report.ok()) {
    std::printf("script failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", report->ToString().c_str());
  return 0;
}
