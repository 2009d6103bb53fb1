#include "tuner/auto_tuner.h"

#include <algorithm>
#include <cmath>

#include "common/clock.h"
#include "common/logging.h"

namespace accordion {

Status RequestFilter::Check(const std::string& query_id, int stage_id,
                            int requested_dop) {
  if (requested_dop < 1) {
    return Status::InvalidArgument("requested DOP must be >= 1");
  }
  if (coordinator_->IsFinished(query_id)) {
    return Status::FailedPrecondition("query " + query_id +
                                      " already finished");
  }
  ACCORDION_ASSIGN_OR_RETURN(QuerySnapshot snapshot,
                             coordinator_->Snapshot(query_id));
  const StageSnapshot* stage = snapshot.stage(stage_id);
  if (stage == nullptr) {
    return Status::NotFound("no stage " + std::to_string(stage_id));
  }
  if (stage->finished) {
    return Status::FailedPrecondition("stage " + std::to_string(stage_id) +
                                      " already finished");
  }
  if (stage->has_final_stateful) {
    return Status::FailedPrecondition(
        "stage contains stateful final operators; DOP pinned to 1");
  }
  if (stage->has_unmatched_build_join) {
    return Status::Unimplemented(kUnmatchedBuildSwitchMessage);
  }
  if (requested_dop == stage->dop) {
    return Status::InvalidArgument("stage already runs at DOP " +
                                   std::to_string(requested_dop));
  }
  if (stage->has_join) {
    // Rebuilding the hash table must pay off: reject when the remaining
    // execution time is below the reconstruction time (§5.2).
    auto estimate = predictor_->EstimateRemaining(query_id, stage_id);
    if (estimate.ok() && estimate->build_seconds > 0 &&
        estimate->remaining_seconds < estimate->build_seconds) {
      return Status::FailedPrecondition(
          "remaining time " + std::to_string(estimate->remaining_seconds) +
          "s is below the hash-table rebuild time " +
          std::to_string(estimate->build_seconds) + "s");
    }
  }
  return Status::OK();
}

Result<BottleneckReport> LocateBottlenecks(Coordinator* coordinator,
                                           const std::string& query_id,
                                           int64_t window_ms) {
  ACCORDION_ASSIGN_OR_RETURN(QuerySnapshot before,
                             coordinator->Snapshot(query_id));
  SleepForMillis(window_ms);
  ACCORDION_ASSIGN_OR_RETURN(QuerySnapshot after,
                             coordinator->Snapshot(query_id));

  BottleneckReport report;
  for (const auto& stage : after.stages) {
    if (stage.finished || stage.is_scan) continue;
    const StageSnapshot* prev = before.stage(stage.stage_id);
    if (prev == nullptr) continue;
    bool made_progress = stage.output_rows > prev->output_rows ||
                         stage.tasks.empty() == false;
    // §5.1: the turn-up counter of a compute-bound stage stays flat — its
    // exchange buffers are never found empty.
    if (made_progress && stage.turn_ups == prev->turn_ups) {
      report.compute_bottlenecks.push_back(stage.stage_id);
    }
    if (stage.nic_util_max > 0.9) {
      report.network_bottlenecks.push_back(stage.stage_id);
    }
  }
  return report;
}

AutoTuner::AutoTuner(Coordinator* coordinator)
    : coordinator_(coordinator),
      predictor_(coordinator),
      filter_(coordinator, &predictor_) {}

AutoTuner::~AutoTuner() {
  std::vector<std::string> active;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, state] : monitors_) active.push_back(id);
  }
  for (const auto& id : active) StopMonitor(id);
}

Status AutoTuner::Tune(const std::string& query_id, int stage_id, int dop,
                       DopSwitchReport* report) {
  ACCORDION_RETURN_NOT_OK(filter_.Check(query_id, stage_id, dop));
  return coordinator_->SetStageDop(query_id, stage_id, dop, report);
}

Result<int> AutoTuner::OneTimeTune(const std::string& query_id, int stage_id,
                                   double latency_constraint_s, int max_dop) {
  ACCORDION_ASSIGN_OR_RETURN(
      std::vector<Predictor::DopTime> list,
      predictor_.DopTimeList(query_id, stage_id, max_dop));
  // Pick the smallest DOP whose prediction meets the constraint; if none
  // does, the fastest configuration.
  int chosen = list.back().dop;
  double best = list.back().predicted_seconds;
  for (const auto& entry : list) {
    if (entry.predicted_seconds <= latency_constraint_s) {
      chosen = entry.dop;
      best = entry.predicted_seconds;
      break;
    }
    if (entry.predicted_seconds < best) {
      chosen = entry.dop;
      best = entry.predicted_seconds;
    }
  }
  Status st = Tune(query_id, stage_id, chosen);
  if (!st.ok() && st.code() != StatusCode::kInvalidArgument) return st;
  return chosen;
}

Status AutoTuner::StartMonitor(const std::string& query_id,
                               std::vector<TuningUnit> units,
                               int64_t period_ms) {
  auto state = std::make_unique<MonitorState>();
  state->units = std::move(units);
  state->start_ms = NowMillis();
  state->period_ms = period_ms;
  MonitorState* raw = state.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (monitors_.count(query_id) > 0) {
      return Status::AlreadyExists("monitor already running for " + query_id);
    }
    monitors_[query_id] = std::move(state);
  }
  raw->thread = std::thread([this, query_id, raw] {
    MonitorLoop(query_id, raw);
  });
  return Status::OK();
}

Status AutoTuner::UpdateConstraint(const std::string& query_id,
                                   int knob_stage, double seconds_from_now) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = monitors_.find(query_id);
  if (it == monitors_.end()) {
    return Status::NotFound("no monitor for " + query_id);
  }
  MonitorState* state = it->second.get();
  std::lock_guard<std::mutex> unit_lock(state->mutex);
  for (auto& unit : state->units) {
    if (unit.knob_stage == knob_stage) {
      double elapsed =
          static_cast<double>(NowMillis() - state->start_ms) * 1e-3;
      unit.deadline_seconds = elapsed + seconds_from_now;
      return Status::OK();
    }
  }
  return Status::NotFound("no tuning unit for stage " +
                          std::to_string(knob_stage));
}

void AutoTuner::StopMonitor(const std::string& query_id) {
  std::unique_ptr<MonitorState> state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = monitors_.find(query_id);
    if (it == monitors_.end()) return;
    state = std::move(it->second);
    monitors_.erase(it);
  }
  state->stop = true;
  if (state->thread.joinable()) state->thread.join();
}

std::vector<AutoTuner::MonitorAction> AutoTuner::MonitorLog(
    const std::string& query_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = monitors_.find(query_id);
  if (it == monitors_.end()) return {};
  std::lock_guard<std::mutex> unit_lock(it->second->mutex);
  return it->second->log;
}

void AutoTuner::MonitorLoop(const std::string& query_id,
                            MonitorState* state) {
  while (!state->stop.load() && !coordinator_->IsFinished(query_id)) {
    SleepForMillis(state->period_ms);
    std::vector<TuningUnit> units;
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      units = state->units;
    }
    double elapsed = static_cast<double>(NowMillis() - state->start_ms) * 1e-3;

    for (const auto& unit : units) {
      auto snapshot = coordinator_->Snapshot(query_id);
      if (!snapshot.ok()) return;
      const StageSnapshot* stage = snapshot->stage(unit.knob_stage);
      if (stage == nullptr || stage->finished) continue;

      auto estimate = predictor_.EstimateRemaining(query_id, unit.knob_stage);
      if (!estimate.ok() || estimate->remaining_seconds >= 1e9) continue;

      double budget = unit.deadline_seconds - elapsed;
      if (budget <= 0.05) budget = 0.05;
      double t_remain = estimate->remaining_seconds;
      int current = std::max(1, stage->dop);
      int target = current;
      if (t_remain > budget * 1.15) {
        // Behind schedule: scale up just enough (AP actions).
        double factor = t_remain / budget;
        target = std::min(unit.max_dop,
                          static_cast<int>(std::ceil(current * factor)));
      } else if (t_remain < budget * 0.6 && current > 1) {
        // Comfortably ahead: release resources (RP actions).
        double factor = std::max(0.25, t_remain / (budget * 0.85));
        target = std::max(1, static_cast<int>(std::ceil(current * factor)));
        target = std::min(target, current - 1);
      }
      if (target == current) continue;

      Status st = Tune(query_id, unit.knob_stage, target);
      MonitorAction action;
      action.at_seconds = elapsed;
      action.stage = unit.knob_stage;
      action.from_dop = current;
      action.to_dop = target;
      action.rejected = !st.ok();
      std::lock_guard<std::mutex> lock(state->mutex);
      state->log.push_back(action);
    }
  }
}

}  // namespace accordion
