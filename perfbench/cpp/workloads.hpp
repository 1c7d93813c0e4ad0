// The workloads. Each renders its inputs from the seed, sets the program
// up several times (setup_s is the median), measures for the requested
// time and checks every answer against the in-process oracle.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// The serving fleet of gate_http and of the traced runs' HTTP probe
/// (printed as provenance).
struct FleetShape {
  int replicas = 2;
  unsigned replica_workers = 1;
  unsigned http_workers = 1;
  std::int64_t max_batch = 16;
  std::int64_t queue_capacity = 64;
  int window_us = 2000;          // BatcherConfig::max_latency
  std::int64_t watermark = 48;   // HttpServerConfig::shed_watermark
};
inline constexpr FleetShape kFleet{};

/// gate_http.
void run_http_workload(const Options& opt, Report& report);
/// crowd_batch and crowd_residual. Returns the median batch-32 call in us
/// (the untraced figure a traced run compares its engine spans with).
double run_crowd_workload(const Options& opt, Report& report);
/// The net and serve layer metrics of a traced crowd run, which bypasses
/// both: a short probe of gate_http's traffic.
void http_layer_probe(std::uint64_t seed, double seconds, Report& report);

}  // namespace perfbench
