// The traced run's engine layers: core, xnor, tensor, parallel, obs and
// deploy, measured with spans in the benchmark around each module's
// public calls plus the program's own exported StageProfiler series.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Median traced classify_batch calls, for the tracing-overhead line.
struct EngineSummary {
  double b32_call_us = 0, m3b32_call_us = 0;
};

/// Profile n-CNV at batch 1 and 32 and the M = 3 ReBNet n-CNV at batch 32
/// on the crowd tiles, time every n-CNV layer alone, and report the
/// per-layer metrics with the decomposition checks. `seconds` is the time
/// budget of the whole suite.
EngineSummary engine_layers(std::uint64_t seed, const Tiles& tiles,
                            double seconds, Report& report);

}  // namespace perfbench
