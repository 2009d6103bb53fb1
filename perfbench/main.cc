// Benchmark of record for the Accordion engine: real work only (no
// simulated CPU pacing, no simulated RPC latency), layer by layer.
//
//   perfbench --workload <tpch_stream|short_queries|elastic_switch|spill_join>
//             --seed <n> --seconds <s> --trace <0|1> --digests <file>
//             [--out-dir <dir>] [--commit <id>] [--smoke]
//   perfbench --record-digests <file> [--out-dir <dir>]
//
// Prints a stamp line, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics. perfbench/run.py builds and
// drives it; README.md documents the workloads and metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--digests FILE [--out-dir DIR] [--commit ID] [--smoke]\n"
               "       %s --record-digests FILE [--out-dir DIR]\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string digests_path;
  std::string record_path;
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && cfg.seconds > 0 && cfg.seconds <= 600;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      cfg.trace = value == "1";
    } else if (arg == "--digests") {
      digests_path = value;
    } else if (arg == "--out-dir") {
      cfg.out_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--record-digests") {
      record_path = value;
    } else {
      return Usage(argv[0]);
    }
  }

  std::string error;
  if (!record_path.empty()) {
    DigestBook book;
    if (!RecordDigests(cfg.out_dir, &book, &error) || !book.Save(record_path)) {
      std::fprintf(stderr, "perfbench: recording digests failed: %s\n",
                   error.c_str());
      return 1;
    }
    return 0;
  }
  if (!IsWorkload(cfg.workload) || !have_seed || !have_seconds ||
      !have_trace || digests_path.empty()) {
    return Usage(argv[0]);
  }
  if (!cfg.digests.Load(digests_path, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }

  RunOutcome outcome = RunWorkload(cfg);

  outcome.stamp["commit"] = commit;
  outcome.stamp["smoke"] = cfg.smoke ? "1" : "0";
  outcome.stamp["trace"] = cfg.trace ? "1" : "0";
  std::string stamp = "{";
  for (const auto& [key, value] : outcome.stamp) {
    if (stamp.size() > 1) stamp += ", ";
    stamp += JsonString(key) + ": " + JsonString(value);
  }
  stamp += "}";
  std::printf("{\"stamp\": %s}\n", stamp.c_str());

  if (cfg.trace) {
    std::string path = cfg.out_dir + "/trace-" + cfg.workload + "-" +
                       std::to_string(cfg.seed) + ".json";
    if (!WriteChromeTrace(outcome.spans, stamp, path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                 outcome.spans.size(), path.c_str());
  }

  std::string metrics;
  for (const auto& [name, value_unit] : outcome.metrics) {
    double value = value_unit.first;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   name.c_str());
      return 1;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + buf +
               ", \"unit\": " + JsonString(value_unit.second) + "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      outcome.failed == 0 ? "true" : "false",
      static_cast<long long>(outcome.attempted),
      static_cast<long long>(outcome.failed), metrics.c_str());
  return 0;
}
