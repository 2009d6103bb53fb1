#include "tuner/predictor.h"

#include <algorithm>

#include "common/clock.h"

namespace accordion {

int Predictor::DrivingScanStage(const QuerySnapshot& snapshot, int stage_id) {
  int current = stage_id;
  for (int hops = 0; hops < 32; ++hops) {
    const StageSnapshot* stage = snapshot.stage(current);
    if (stage == nullptr) return -1;
    if (stage->is_scan) return current;
    if (stage->source_stage_ids.empty()) return -1;
    // Probe side is compiled first, so it is the first source stage.
    current = stage->source_stage_ids[0];
  }
  return -1;
}

Result<Predictor::StageEstimate> Predictor::EstimateRemaining(
    const std::string& query_id, int stage_id) {
  ACCORDION_ASSIGN_OR_RETURN(QuerySnapshot snapshot,
                             coordinator_->Snapshot(query_id));
  const StageSnapshot* stage = snapshot.stage(stage_id);
  if (stage == nullptr) {
    return Status::NotFound("no stage " + std::to_string(stage_id));
  }

  StageEstimate estimate;
  estimate.stage_id = stage_id;
  // T_build: the full state-transfer duration once a switch has been
  // observed; before any switch, the measured in-memory index time is the
  // only signal available.
  estimate.build_seconds =
      stage->has_join
          ? std::max(static_cast<double>(stage->hash_build_us_max) * 1e-6,
                     stage->last_state_transfer_seconds)
          : 0.0;

  int scan_stage_id = DrivingScanStage(snapshot, stage_id);
  estimate.driving_scan_stage = scan_stage_id;
  if (scan_stage_id < 0) {
    return Status::FailedPrecondition(
        "stage has no driving table-scan stage");
  }
  const StageSnapshot* scan = snapshot.stage(scan_stage_id);

  const int64_t total_rows = scan->scan_total_rows;
  estimate.remaining_rows = std::max<int64_t>(0, total_rows - scan->scan_rows);
  estimate.progress =
      total_rows == 0
          ? 1.0
          : std::min(1.0, static_cast<double>(scan->scan_rows) /
                              static_cast<double>(total_rows));

  // Consumption rate over the recent sample window.
  std::string key = query_id + "." + std::to_string(scan_stage_id);
  int64_t now = NowMillis();
  double rate = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& samples = history_[key];
    samples.push_back(RateSample{now, scan->scan_rows});
    // Keep ~10 s of history.
    while (samples.size() > 2 && now - samples.front().at_ms > 10000) {
      samples.erase(samples.begin());
    }
    const RateSample& oldest = samples.front();
    if (now > oldest.at_ms && scan->scan_rows > oldest.scan_rows) {
      rate = static_cast<double>(scan->scan_rows - oldest.scan_rows) /
             (static_cast<double>(now - oldest.at_ms) * 1e-3);
    } else if (now > snapshot.submit_ms && scan->scan_rows > 0) {
      rate = static_cast<double>(scan->scan_rows) /
             (static_cast<double>(now - snapshot.submit_ms) * 1e-3);
    }
  }
  estimate.consume_rate_rows_per_s = rate;
  if (estimate.remaining_rows == 0) {
    estimate.remaining_seconds = 0;
  } else if (rate <= 0) {
    estimate.remaining_seconds = 1e9;  // unknown yet: effectively infinite
  } else {
    estimate.remaining_seconds =
        static_cast<double>(estimate.remaining_rows) / rate;
  }
  return estimate;
}

Result<Predictor::WhatIf> Predictor::PredictAfterTuning(
    const std::string& query_id, int stage_id, int new_dop) {
  ACCORDION_ASSIGN_OR_RETURN(QuerySnapshot snapshot,
                             coordinator_->Snapshot(query_id));
  const StageSnapshot* stage = snapshot.stage(stage_id);
  if (stage == nullptr) {
    return Status::NotFound("no stage " + std::to_string(stage_id));
  }
  ACCORDION_ASSIGN_OR_RETURN(StageEstimate estimate,
                             EstimateRemaining(query_id, stage_id));

  WhatIf what_if;
  what_if.tuning_seconds = estimate.build_seconds;

  int current_dop = std::max(1, stage->dop);
  double requested = static_cast<double>(new_dop) / current_dop;

  // Cap n_f by the upstream (driving scan) nodes' CPU headroom (§5.3).
  // Mean utilization across the stage's nodes: new tasks land on other
  // workers, so the max alone under-estimates available headroom; a 1.5x
  // floor keeps modest scale-ups predictable even near saturation.
  const StageSnapshot* scan = snapshot.stage(estimate.driving_scan_stage);
  double cpu_util = 0;
  if (scan != nullptr && !scan->tasks.empty()) {
    for (const auto& task : scan->tasks) cpu_util += task.cpu_utilization;
    cpu_util /= static_cast<double>(scan->tasks.size());
  }
  double max_factor =
      cpu_util > 1e-3 ? std::max(1.5, 1.0 / cpu_util) : 1024.0;
  what_if.max_factor = max_factor;
  what_if.applied_factor =
      requested >= 1.0 ? std::min(requested, max_factor) : requested;

  double t_remain = estimate.remaining_seconds;
  double t_build = estimate.build_seconds;
  if (t_remain >= 1e9) {
    what_if.predicted_seconds = t_remain;
    return what_if;
  }
  what_if.predicted_seconds =
      std::max(0.0, t_remain - t_build) / what_if.applied_factor + t_build;
  return what_if;
}

Result<std::vector<Predictor::DopTime>> Predictor::DopTimeList(
    const std::string& query_id, int stage_id, int max_dop) {
  std::vector<DopTime> list;
  for (int dop = 1; dop <= max_dop; ++dop) {
    ACCORDION_ASSIGN_OR_RETURN(WhatIf what_if,
                               PredictAfterTuning(query_id, stage_id, dop));
    list.push_back(DopTime{dop, what_if.predicted_seconds});
  }
  return list;
}

}  // namespace accordion
