// crowd_batch and crowd_residual: the paper's crowd mode in-process.
#include "workloads.hpp"
#include "xnor/plan.hpp"

namespace perfbench {

namespace {

using bcop::core::Predictor;
using bcop::tensor::Tensor;

constexpr std::size_t kBatches = 16;  // distinct 32-tile batches, cycled
constexpr int kSetups = 15;

/// A predictor with its serving buffers (the BatchingServer worker form
/// of classify_batch).
struct Engine {
  std::unique_ptr<Predictor> predictor;
  bcop::xnor::Workspace ws;
  Tensor logits;
  std::vector<Predictor::Result> results;

  /// Classify `batch` and count answers that differ from labels[0..n).
  std::uint64_t classify(const Tensor& batch, const int* labels) {
    predictor->classify_batch(batch, ws, logits, results);
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < results.size(); ++i)
      wrong += static_cast<int>(results[i].label) != labels[i];
    return wrong;
  }
};

/// Build + fold, then warm both serving shapes (b32 and b1) until the
/// first answers are correct.
Engine start_engine(std::uint64_t seed, std::int64_t levels, const Tiles& t,
                    Report& report) {
  Engine e;
  e.predictor = build_ncnv(seed, levels);
  Tensor one;
  t.copy_tile(0, one);
  if (e.classify(t.batch32.front(), t.label.data()) +
      e.classify(one, t.label.data()))
    report.fail("setup: warm-up answer wrong");
  return e;
}

/// What a timed phase measured: each call's wall time and the CPU time
/// all threads of the process spent over the phase.
struct Phase {
  Samples call_us;
  double cpu_s = 0;
};

/// Batch-32 calls for `seconds`, cycling batches.
Phase run_b32(Engine& e, const Tiles& t, double seconds, Report& report) {
  Phase ph;
  std::uint64_t wrong = 0;
  std::size_t next = 0;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  while (since(t0) < seconds) {
    const std::size_t b = next++ % t.batch32.size();
    const Clock::time_point a = Clock::now();
    wrong += e.classify(t.batch32[b], t.label.data() + b * 32);
    ph.call_us.add(since(a) * 1e6);
  }
  ph.cpu_s = process_cpu_s() - cpu0;
  report.count(ph.call_us.count() * 32, wrong);
  return ph;
}

/// Batch-1 calls for `seconds`, cycling tiles. Each tile is copied into
/// the batch before its call's clock starts.
Phase run_b1(Engine& e, const Tiles& t, double seconds, Report& report) {
  Phase ph;
  std::uint64_t wrong = 0;
  Tensor one;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; since(t0) < seconds; i = (i + 1) % t.size()) {
    t.copy_tile(i, one);
    const Clock::time_point a = Clock::now();
    wrong += e.classify(one, t.label.data() + i);
    ph.call_us.add(since(a) * 1e6);
  }
  ph.cpu_s = process_cpu_s() - cpu0;
  report.count(ph.call_us.count(), wrong);
  return ph;
}

}  // namespace

double run_crowd_workload(const Options& opt, Report& report) {
  const std::int64_t levels = opt.workload == "crowd_residual" ? 3 : 1;
  Tiles tiles;
  {
    const std::unique_ptr<Predictor> oracle = build_ncnv(opt.seed, levels);
    tiles = render_tiles(kBatches, opt.seed, *oracle);
    const std::size_t mismatches =
        float_graph_mismatches(*oracle, tiles.batch32.front());
    report.check(mismatches == 0,
                 format("float graph logits == folded logits on a 32-tile "
                        "sample (%zu mismatches)",
                        mismatches));
  }

  if (opt.trace) {
    // The untraced b32 phase, for the tracing-overhead comparison with the
    // traced engine layers that follow.
    Engine e = start_engine(opt.seed, levels, tiles, report);
    return run_b32(e, tiles, opt.seconds / 4, report).call_us.median();
  }

  Samples setup_cpu_s, setup_wall_s;
  Engine e;
  for (int i = 0; i < kSetups; ++i) {
    e = Engine{};
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    e = start_engine(opt.seed, levels, tiles, report);
    setup_wall_s.add(since(t0));
    setup_cpu_s.add(process_cpu_s() - cpu0);
  }
  reset_peak_rss();  // rss_mb covers the measured phases only
  const Phase b32 = run_b32(e, tiles, opt.seconds / 2, report);
  const Phase b1 = run_b1(e, tiles, opt.seconds / 2, report);
  const auto b32_images = static_cast<double>(32 * b32.call_us.count());
  const auto b1_calls = static_cast<double>(b1.call_us.count());

  report.json({"setup_s", "s", setup_cpu_s.median(), setup_cpu_s.count(),
               "median CPU time: build + fold + warm-up of b32 and b1 plans"});
  report.json({"images_per_cpu_s", "img/cpu-s", b32_images / b32.cpu_s,
               b32.call_us.count(),
               "batch-32 images / CPU seconds of all threads"});
  report.json({"cpu_us_per_image_b1", "us", b1.cpu_s * 1e6 / b1_calls,
               b1.call_us.count(),
               "CPU time of all threads per batch-1 call"});
  report.json({"rss_mb", "MiB", peak_rss_mib(), 1,
               "peak resident set of the measured phases"});
  report.info({"setup_wall_s", "s", setup_wall_s.median(),
               setup_wall_s.count(), "median wall time of the same set-ups"});
  report.info({"images_per_s", "img/s", 32e6 / b32.call_us.median(),
               b32.call_us.count(), "32 / median batch-32 call (wall)"});
  report.info({"image_latency_p1_us", "us", b1.call_us.quantile(0.01),
               b1.call_us.count(), "p1 batch-1 call (wall)"});
  report.info({"image_latency_p50_us", "us", b1.call_us.median(),
               b1.call_us.count(), "p50 batch-1 call (wall)"});
  report.info({"image_latency_p99_us", "us", b1.call_us.quantile(0.99),
               b1.call_us.count(), "p99 batch-1 call (wall)"});
  report.info({"error_frac", "ratio",
               static_cast<double>(report.failed()) /
                   static_cast<double>(std::max<std::uint64_t>(report.attempted(), 1)),
               report.attempted(), "wrong labels / images classified"});
  for (const char* name :
       {"latency_p50_ms", "latency_p99_ms", "slo_met_frac", "goodput_rps",
        "shed_frac"})
    report.not_applicable(name, "HTTP workloads only (no requests are sent)");
  return b32.call_us.median();
}

}  // namespace perfbench
