// Manual runtime DOP tuning — the paper's controller-interface workflow
// (Fig. 2): start TPC-H Q3 at minimal parallelism, watch the runtime
// information, locate the bottleneck stage, and widen it mid-query
// through the query handle. The same query is then run untouched for
// comparison.
//
//   $ ./manual_tuning

#include <cstdio>

#include "api/session.h"
#include "cluster/cluster.h"
#include "common/clock.h"
#include "tpch/queries.h"
#include "tuner/auto_tuner.h"

namespace {

using namespace accordion;

AccordionCluster::Options DemoOptions() {
  AccordionCluster::Options options;
  options.num_workers = 4;
  options.num_storage_nodes = 4;
  options.scale_factor = 0.01;
  options.engine.cost.scale = 4.0;
  options.engine.memory.initial_buffer_bytes = 2048;
  options.engine.memory.max_buffer_bytes = 16 * 1024;
  return options;
}

double QuerySeconds(const QueryHandlePtr& query) {
  auto snapshot = query->Snapshot();
  if (!snapshot.ok() || snapshot->end_ms == 0) return -1;
  return (snapshot->end_ms - snapshot->submit_ms) * 1e-3;
}

}  // namespace

int main() {
  setvbuf(stdout, nullptr, _IOLBF, 0);

  // Baseline: Q3 at DOP 1, no intervention.
  double baseline;
  {
    AccordionCluster cluster(DemoOptions());
    Session session(cluster.coordinator());
    auto query = session.Execute(TpchQueryPlan(3, session.catalog()));
    (void)(*query)->Wait();
    baseline = QuerySeconds(*query);
    std::printf("Baseline Q3 at DOP 1: %.2fs\n\n", baseline);
  }

  // Elastic run: observe, localize, tune.
  AccordionCluster cluster(DemoOptions());
  Session session(cluster.coordinator());
  AutoTuner tuner(cluster.coordinator());
  auto query = session.Execute(TpchQueryPlan(3, session.catalog()));
  std::printf("Submitted Q3 as %s at stage/task DOP 1.\n",
              (*query)->id().c_str());

  SleepForMillis(800);
  auto bottlenecks =
      LocateBottlenecks(cluster.coordinator(), (*query)->id(), 500);
  if (bottlenecks.ok()) {
    std::printf("Compute bottlenecks:");
    for (int s : bottlenecks->compute_bottlenecks) std::printf(" S%d", s);
    std::printf("\n");
  }

  // What-if before committing (the paper's "Get Tips" button).
  auto estimate = tuner.predictor()->EstimateRemaining((*query)->id(), 1);
  SleepForMillis(500);
  estimate = tuner.predictor()->EstimateRemaining((*query)->id(), 1);
  if (estimate.ok()) {
    auto what_if = tuner.predictor()->PredictAfterTuning((*query)->id(), 1, 4);
    std::printf("S1: %.1fs remaining at current DOP; predicted %.1fs at "
                "DOP 4.\n",
                estimate->remaining_seconds,
                what_if.ok() ? what_if->predicted_seconds : -1.0);
  }

  // Apply: widen the long-running join stage and the lineitem scan (the
  // orders/customer join S3 completes early at this scale).
  for (auto [stage, dop] : {std::pair{1, 4}, {2, 4}}) {
    DopSwitchReport report;
    Status st = tuner.Tune((*query)->id(), stage, dop, &report);
    std::printf("Tune S%d -> DOP %d: %s", stage, dop,
                st.ok() ? "accepted" : st.ToString().c_str());
    if (st.ok() && report.total_seconds > 0) {
      std::printf(" (state transfer %.2fs)", report.total_seconds);
    }
    std::printf("\n");
  }

  (void)(*query)->Wait();
  double tuned = QuerySeconds(*query);
  std::printf("\nElastic Q3: %.2fs vs baseline %.2fs -> %.1f%% faster "
              "(paper Q3: 58-74%% reductions).\n",
              tuned, baseline, 100.0 * (baseline - tuned) / baseline);
  return 0;
}
