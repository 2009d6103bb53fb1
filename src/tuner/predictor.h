#ifndef ACCORDION_TUNER_PREDICTOR_H_
#define ACCORDION_TUNER_PREDICTOR_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/coordinator.h"

namespace accordion {

/// The what-if service (paper §5.2–§5.3). Estimates a stage's remaining
/// execution time from the scanning progress of its driving table-scan
/// stage:
///
///   T_remain    = V_remain / R_consume
///   T_predicted = (T_remain - T_build) / n_f + T_build
///
/// where V_remain is the unscanned data volume, R_consume the recent scan
/// consumption rate, T_build the hash-table reconstruction time (0 for
/// join-free stages) and n_f the parallelism factor capped by the
/// upstream nodes' CPU headroom.
class Predictor {
 public:
  explicit Predictor(Coordinator* coordinator) : coordinator_(coordinator) {}

  struct StageEstimate {
    int stage_id = 0;
    int driving_scan_stage = -1;
    int64_t remaining_rows = 0;           // V_remain (rows)
    double consume_rate_rows_per_s = 0;   // R_consume
    double remaining_seconds = 0;         // T_remain
    double build_seconds = 0;             // T_build (0 if no join)
    double progress = 0;                  // scanned fraction in [0,1]
  };

  /// Remaining-time estimate for `stage_id` at its current DOP. Refreshes
  /// the internal rate tracker; call periodically for stable rates.
  Result<StageEstimate> EstimateRemaining(const std::string& query_id,
                                          int stage_id);

  struct WhatIf {
    double predicted_seconds = 0;
    double tuning_seconds = 0;
    /// The parallelism factor actually credited (may be below the request
    /// when the upstream is near CPU saturation, §5.3).
    double applied_factor = 1;
    double max_factor = 1;
  };

  /// Predicted remaining time if the stage's DOP becomes `new_dop`.
  Result<WhatIf> PredictAfterTuning(const std::string& query_id, int stage_id,
                                    int new_dop);

  /// The §5.4 DOP-time list: predicted remaining seconds per DOP in
  /// [1, max_dop].
  struct DopTime {
    int dop = 1;
    double predicted_seconds = 0;
  };
  Result<std::vector<DopTime>> DopTimeList(const std::string& query_id,
                                           int stage_id, int max_dop);

 private:
  struct RateSample {
    int64_t at_ms = 0;
    int64_t scan_rows = 0;
  };

  /// Walks probe-side children to the driving scan stage (§5.2).
  static int DrivingScanStage(const QuerySnapshot& snapshot, int stage_id);

  Coordinator* coordinator_;
  std::mutex mutex_;
  std::map<std::string, std::vector<RateSample>> history_;  // query.stage
};

}  // namespace accordion

#endif  // ACCORDION_TUNER_PREDICTOR_H_
