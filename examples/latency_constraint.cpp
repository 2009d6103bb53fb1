// Meeting a latency constraint with minimal resources — the paper's
// headline use case (§1, §6.5): "use as few compute resources as possible
// while meeting the query time constraint."
//
// The DOP monitor watches the query's tuning units and applies AP/RP
// actions; we print its decision log and whether the deadline held.
//
//   $ ./latency_constraint

#include <cstdio>

#include "api/session.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "tpch/queries.h"
#include "tuner/auto_tuner.h"

int main() {
  using namespace accordion;
  setvbuf(stdout, nullptr, _IOLBF, 0);

  AccordionCluster::Options options;
  options.num_workers = 4;
  options.num_storage_nodes = 4;
  options.scale_factor = 0.01;
  options.engine.cost.scale = 6.0;
  options.engine.memory.initial_buffer_bytes = 2048;
  options.engine.memory.max_buffer_bytes = 16 * 1024;
  AccordionCluster cluster(options);

  // Session defaults apply to every Execute: this client always starts
  // its queries at stage DOP 2.
  SessionOptions session_options;
  session_options.query_defaults.stage_dop = 2;
  session_options.query_defaults.task_dop = 1;
  Session session(cluster.coordinator(), session_options);
  AutoTuner tuner(cluster.coordinator());

  constexpr double kDeadlineSeconds = 8.0;
  auto query = session.Execute(TpchQ2JPlan(session.catalog()));
  if (!query.ok()) {
    std::printf("execute failed: %s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("Q2J submitted with an %.0fs deadline; the DOP monitor will "
              "keep it on schedule with minimal parallelism.\n",
              kDeadlineSeconds);

  AutoTuner::TuningUnit unit;
  unit.knob_stage = 1;  // the join stage, paced by the lineitem scan
  unit.deadline_seconds = kDeadlineSeconds;
  unit.max_dop = 8;
  if (!tuner.StartMonitor((*query)->id(), {unit}, 500).ok()) return 1;

  (void)(*query)->Wait();
  auto snapshot = (*query)->Snapshot();
  double total = (snapshot->end_ms - snapshot->submit_ms) * 1e-3;

  std::printf("\nMonitor decisions:\n");
  for (const auto& action : tuner.MonitorLog((*query)->id())) {
    std::printf("  %s S%d: %d -> %d at %.2fs%s\n",
                action.to_dop > action.from_dop ? "AP" : "RP", action.stage,
                action.from_dop, action.to_dop, action.at_seconds,
                action.rejected ? " (rejected)" : "");
  }
  tuner.StopMonitor((*query)->id());

  std::printf("\nFinished in %.2fs (deadline %.0fs) -> %s\n", total,
              kDeadlineSeconds,
              total <= kDeadlineSeconds * 1.15 ? "constraint met"
                                               : "constraint missed");
  return 0;
}
