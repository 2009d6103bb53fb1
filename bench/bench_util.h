#ifndef ACCORDION_BENCH_BENCH_UTIL_H_
#define ACCORDION_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "tuner/predictor.h"

namespace accordion {
namespace bench {

/// Default experiment cluster: the paper uses 10 compute + 10 storage
/// nodes; we default to a compressed 4+4 with a time-scaled cost model so
/// the full suite completes offline (documented substitution).
inline AccordionCluster::Options ExperimentOptions(double cost_scale,
                                                   double scale_factor = 0.01,
                                                   int workers = 4,
                                                   int storage = 4) {
  AccordionCluster::Options options;
  options.num_workers = workers;
  options.num_storage_nodes = storage;
  options.scale_factor = scale_factor;
  options.engine.cost.scale = cost_scale;
  options.engine.rpc_latency_ms = 1.0;
  // The cost model makes each row far more expensive than its bytes, so
  // buffers must be small in byte terms for backpressure to keep scan
  // progress aligned with consumer pace (the §5.2 streaming premise).
  options.engine.memory.initial_buffer_bytes = 2 * 1024;
  options.engine.memory.max_buffer_bytes = 16 * 1024;
  return options;
}

/// Periodically samples per-stage cumulative output rows; used to print
/// the paper's stage-throughput time series.
class StageSampler {
 public:
  struct Sample {
    double at_seconds;
    std::map<int, int64_t> output_rows;     // per stage (cumulative)
    std::map<int, int64_t> processed_rows;  // live work proxy (cumulative)
    std::map<int, int> stage_dop;
    std::map<int, int> task_dop;
  };

  StageSampler(Coordinator* coordinator, std::string query_id,
               int64_t period_ms = 250)
      : coordinator_(coordinator),
        query_id_(std::move(query_id)),
        period_ms_(period_ms) {
    start_s_ = NowSeconds();
    thread_ = std::thread([this] { Loop(); });
  }

  ~StageSampler() { Stop(); }

  void Stop() {
    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true)) return;
    if (thread_.joinable()) thread_.join();
  }

  std::vector<Sample> samples() {
    Stop();
    return samples_;
  }

  /// Prints "time_s stage<id>_tput(tuples/ms)..." rows for the stages in
  /// `stage_ids` — the series the paper plots in Figs. 23–26/28/30.
  void PrintThroughputSeries(const std::vector<int>& stage_ids) {
    Stop();
    std::printf("# t(s)");
    for (int s : stage_ids) std::printf("\tS%d(tuples/ms)\tS%d_dop", s, s);
    std::printf("\n");
    for (size_t i = 1; i < samples_.size(); ++i) {
      const Sample& prev = samples_[i - 1];
      const Sample& cur = samples_[i];
      double dt_ms = (cur.at_seconds - prev.at_seconds) * 1000.0;
      if (dt_ms <= 0) continue;
      std::printf("%7.2f", cur.at_seconds);
      for (int s : stage_ids) {
        int64_t delta = 0;
        auto pit = prev.processed_rows.find(s);
        auto cit = cur.processed_rows.find(s);
        if (pit != prev.processed_rows.end() &&
            cit != cur.processed_rows.end()) {
          delta = cit->second - pit->second;
        }
        int dop = 0;
        auto dit = cur.stage_dop.find(s);
        if (dit != cur.stage_dop.end()) dop = dit->second;
        std::printf("\t%10.2f\t%d", static_cast<double>(delta) / dt_ms, dop);
      }
      std::printf("\n");
    }
  }

 private:
  void Loop() {
    while (!stopped_.load()) {
      auto snapshot = coordinator_->Snapshot(query_id_);
      if (snapshot.ok()) {
        Sample sample;
        sample.at_seconds = NowSeconds() - start_s_;
        for (const auto& stage : snapshot->stages) {
          sample.output_rows[stage.stage_id] = stage.output_rows;
          sample.processed_rows[stage.stage_id] = stage.processed_rows;
          sample.stage_dop[stage.stage_id] = stage.dop;
          sample.task_dop[stage.stage_id] = stage.task_dop;
        }
        samples_.push_back(std::move(sample));
        if (snapshot->state != QueryState::kRunning) break;
      }
      SleepForMillis(period_ms_);
    }
  }

  Coordinator* coordinator_;
  std::string query_id_;
  int64_t period_ms_;
  double start_s_;
  std::thread thread_;
  std::atomic<bool> stopped_{false};
  std::vector<Sample> samples_;
};

/// Runs a submitted query to completion; returns wall seconds.
inline double WaitSeconds(Coordinator* coordinator,
                          const std::string& query_id,
                          int64_t timeout_ms = 900000) {
  Stopwatch sw;
  auto result = coordinator->Wait(query_id, timeout_ms);
  if (!result.ok()) {
    std::fprintf(stderr, "query %s failed: %s\n", query_id.c_str(),
                 result.status().ToString().c_str());
  }
  return sw.ElapsedSeconds();
}

/// Blocks until the driving scan of `stage_id` passes `target` progress
/// (fraction in [0,1]) or the query finishes. Returns the last progress.
inline double WaitForProgress(Coordinator* coordinator, Predictor* predictor,
                              const std::string& query_id, int stage_id,
                              double target, double timeout_s = 600) {
  Stopwatch sw;
  double progress = 0;
  while (sw.ElapsedSeconds() < timeout_s &&
         !coordinator->IsFinished(query_id)) {
    auto estimate = predictor->EstimateRemaining(query_id, stage_id);
    if (estimate.ok()) {
      progress = estimate->progress;
      if (progress >= target) break;
    }
    SleepForMillis(150);
  }
  return progress;
}

/// Submit-to-finish wall seconds as recorded by the coordinator.
inline double QuerySeconds(Coordinator* coordinator,
                           const std::string& query_id) {
  auto snapshot = coordinator->Snapshot(query_id);
  if (!snapshot.ok() || snapshot->end_ms == 0) return -1;
  return static_cast<double>(snapshot->end_ms - snapshot->submit_ms) * 1e-3;
}

inline void PrintHeader(const char* what, const char* paper_ref) {
  setvbuf(stdout, nullptr, _IOLBF, 0);  // line-buffered even when piped
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace accordion

#endif  // ACCORDION_BENCH_BENCH_UTIL_H_
