// perfbench: the repository benchmark program.
//
//   perfbench --workload <crowd_batch|crowd_residual|gate_http>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics, the decomposition checks and the layer table. The
// last line of stdout is the JSON result; the exit code is 0 only when
// every answer and every check was correct.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "layers.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      opt.trace = std::atoi(val) != 0;
    } else {
      return false;
    }
  }
  const bool known = opt.workload == "crowd_batch" ||
                     opt.workload == "crowd_residual" ||
                     opt.workload == "gate_http";
  return argc % 2 == 1 && have_workload && known && opt.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload crowd_batch|crowd_residual|"
                 "gate_http --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  std::printf(
      "provenance {\"git_sha\": \"%s\", \"kernel_tier\": \"%s\", "
      "\"nproc\": %d, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"runs\": 1, \"fleet\": "
      "{\"replicas\": %d, \"replica_workers\": %u, \"http_workers\": %u, "
      "\"max_batch\": %lld, \"queue_capacity\": %lld, \"window_us\": %d, "
      "\"shed_watermark\": %lld}}\n",
      PERFBENCH_GIT_SHA,
      bcop::tensor::kernels::kernel_level_name(
          bcop::tensor::kernels::active_level()),
      nproc(), opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, kFleet.replicas, kFleet.replica_workers,
      kFleet.http_workers, static_cast<long long>(kFleet.max_batch),
      static_cast<long long>(kFleet.queue_capacity), kFleet.window_us,
      static_cast<long long>(kFleet.watermark));
  std::fflush(stdout);

  Report report;
  try {
    const bool http = opt.workload == "gate_http";
    double untraced_b32_us = 0;
    if (http)
      run_http_workload(opt, report);
    else
      untraced_b32_us = run_crowd_workload(opt, report);
    if (opt.trace) {
      if (!http) http_layer_probe(opt.seed, opt.seconds / 4, report);
      const std::unique_ptr<bcop::core::Predictor> oracle = build_ncnv(opt.seed);
      const Tiles tiles = render_tiles(2, opt.seed, *oracle);
      const EngineSummary traced =
          engine_layers(opt.seed, tiles, opt.seconds / 2, report);
      if (!http) {
        const double t = opt.workload == "crowd_residual" ? traced.m3b32_call_us
                                                           : traced.b32_call_us;
        report.line(format("tracing overhead: traced - untraced median b32 "
                           "call = %.1f us (%.1f vs %.1f)",
                           t - untraced_b32_us, t, untraced_b32_us));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
  report.print();
  return report.correct() ? 0 : 1;
}
