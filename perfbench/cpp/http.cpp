// gate_http: open-loop HTTP load on a Router fleet.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "loadgen.hpp"
#include "net/client.hpp"
#include "net/http_parser.hpp"
#include "net/http_server.hpp"
#include "serve/router.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using bcop::core::Predictor;

// gate_http: independent gate cameras, Poisson arrivals at one absolute
// rate, a tenth of the measured saturation of kFleet on a 4-vCPU AVX-512
// x86 host (about 11k req/s goodput for n-CNV), so batches stay at 1-2
// images and net and serve dominate latency.
constexpr double kRateRps = 1000;
constexpr std::size_t kMaxFaces = 4096;  // distinct faces, cycled beyond
constexpr int kWarmMaxBatch = 2;  // warm-up covers batch shapes 1..this
// slo_met_frac latency limit: about 3x the whole-run p99 of quiet runs
// (6-8 ms), so a tail regression moves the share.
constexpr double kSloMs = 20;

constexpr int kSetups = 9;
constexpr double kDrainS = 5.0;
constexpr double kMaxSendLagMs = 25.0;  // generator p99 lateness, validity

/// One serving stack: prototype, Router fleet and HTTP front-end.
/// Members destroy in reverse: server, then fleet, then prototype. Move
/// assignment would replace them in the wrong order, so a Fleet is only
/// ever move-constructed or destroyed.
struct Fleet {
  std::unique_ptr<Predictor> proto;
  std::unique_ptr<bcop::serve::Router> router;
  std::unique_ptr<bcop::net::HttpServer> http;
};

/// Build, fold, start the fleet and the server, then warm up over HTTP:
/// bursts of 2k pipelined requests for k = 1..kWarmMaxBatch (least-loaded
/// placement deals k to each replica), so the batch shapes the run uses
/// have compiled plans. Every warm-up answer must be the oracle's.
Fleet start_fleet(std::uint64_t seed, const Faces& faces, Report& report) {
  Fleet f;
  f.proto = build_ncnv(seed);
  bcop::serve::RouterConfig rc;
  rc.replicas = kFleet.replicas;
  rc.batcher.max_batch = kFleet.max_batch;
  rc.batcher.queue_capacity = kFleet.queue_capacity;
  rc.batcher.max_latency = std::chrono::microseconds(kFleet.window_us);
  rc.batcher.workers = kFleet.replica_workers;
  f.router = std::make_unique<bcop::serve::Router>(*f.proto, rc);
  bcop::net::HttpServerConfig hc;
  hc.workers = kFleet.http_workers;
  hc.shed_watermark = kFleet.watermark;
  f.http = std::make_unique<bcop::net::HttpServer>(*f.router, hc);

  bcop::net::BlockingClient client;
  if (!client.connect("127.0.0.1", f.http->port())) {
    report.fail("setup: cannot connect to the HTTP server");
    return f;
  }
  std::size_t next = 0;
  for (int k = 1; k <= kWarmMaxBatch; ++k) {
    std::string burst;
    const std::size_t first = next;
    for (int j = 0; j < 2 * k; ++j) burst += faces.request[next++ % faces.size()];
    client.send_raw(burst);
    for (std::size_t i = first; i < next; ++i) {
      bcop::net::HttpResponse resp;
      if (!client.read_response(resp) || resp.status != 200 ||
          class_of(resp.body) != faces.label[i % faces.size()]) {
        report.fail("setup: warm-up answer missing or wrong");
        return f;
      }
    }
  }
  return f;
}

/// Set up kSetups times, timing each; the last fleet is kept for the run.
/// setup_s is the median CPU time of all threads (the crowd workloads'
/// definition); the wall time is printed beside it.
Fleet timed_setups(std::uint64_t seed, const Faces& faces, Report& report) {
  Samples cpu_s, wall_s;
  std::optional<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    fleet.emplace(start_fleet(seed, faces, report));
    wall_s.add(since(t0));
    cpu_s.add(process_cpu_s() - cpu0);
  }
  report.json({"setup_s", "s", cpu_s.median(), cpu_s.count(),
               "median CPU time: build + fold + fleet + server + warm-up"});
  report.info({"setup_wall_s", "s", wall_s.median(), wall_s.count(),
               "median wall time of the same set-ups"});
  return std::move(*fleet);
}

/// The ledger checks every HTTP phase must pass.
void settle(const LoadResult& r, const char* phase, Report& report) {
  report.count(r.sent, r.failed());
  report.check(r.conserved(),
               format("%s: sent %llu == 2xx %llu + 503 %llu + errors %llu + "
                      "lost %llu + timed out %llu",
                      phase, static_cast<unsigned long long>(r.sent),
                      static_cast<unsigned long long>(r.ok + r.wrong),
                      static_cast<unsigned long long>(r.shed),
                      static_cast<unsigned long long>(r.error_status),
                      static_cast<unsigned long long>(r.lost),
                      static_cast<unsigned long long>(r.timed_out)));
  if (r.wrong) report.fail(format("%s: %llu answers with a wrong label", phase,
                                  static_cast<unsigned long long>(r.wrong)));
}

/// A generator that fell behind its schedule offered a different load than
/// the workload names: the run is invalid, not slow.
void check_generator(const LatencySummary& s, const char* phase,
                     Report& report) {
  const double lag = s.send_lag_ms.quantile(0.99);
  report.check(lag <= kMaxSendLagMs,
               format("%s: generator p99 send lag %.3f ms <= %.0f ms", phase,
                      lag, kMaxSendLagMs));
}

/// The faces of a schedule, labelled by a seeded n-CNV oracle.
Faces render_inputs(std::uint64_t seed, const Schedule& schedule) {
  const std::unique_ptr<Predictor> oracle = build_ncnv(seed);
  return render_faces(std::min(schedule.due.size(), kMaxFaces), seed, *oracle);
}

/// serve.* from a stats() delta over one phase.
void report_stats(const bcop::serve::Router& router,
                  const std::vector<bcop::serve::ServerStats>& before,
                  Report& report) {
  std::int64_t requests = 0, batches = 0, coalesced = 0, most = 0;
  for (int i = 0; i < router.size(); ++i) {
    const bcop::serve::ServerStats s = router.replica(i).stats();
    const auto& b = before[static_cast<std::size_t>(i)];
    requests += s.requests - b.requests;
    batches += s.batches - b.batches;
    coalesced += s.coalesced - b.coalesced;
    most = std::max(most, s.requests - b.requests);
  }
  const auto n = static_cast<std::size_t>(std::max<std::int64_t>(batches, 0));
  report.json({"serve.batch_mean", "img/batch",
               batches ? static_cast<double>(requests) / static_cast<double>(batches) : 0,
               n, "Router::stats() delta"});
  report.json({"serve.coalesced_frac", "ratio",
               requests ? static_cast<double>(coalesced) / static_cast<double>(requests) : 0,
               static_cast<std::size_t>(requests), "Router::stats() delta"});
  const double mean =
      static_cast<double>(requests) / static_cast<double>(router.size());
  report.json({"serve.replica_skew", "ratio",
               mean > 0 ? static_cast<double>(most) / mean : 0,
               static_cast<std::size_t>(router.size()),
               "max / mean requests accepted per replica"});
}

std::vector<bcop::serve::ServerStats> stats_of(const bcop::serve::Router& r) {
  std::vector<bcop::serve::ServerStats> out;
  for (int i = 0; i < r.size(); ++i) out.push_back(r.replica(i).stats());
  return out;
}

/// The traced phases over one fleet: the HTTP run (Router::stats() read
/// around it), the same schedule and images replayed straight into
/// Router::try_submit, and the parser over the exact request bytes.
/// Returns the traced HTTP p50 in ms.
double http_layers(Fleet& fleet, const Faces& faces, const Schedule& schedule,
                   const char* note, Report& report) {
  const int conns = std::min(nproc(), 4);
  const auto before = stats_of(*fleet.router);
  const LoadResult http =
      run_http(fleet.http->port(), schedule, faces, conns, kDrainS);
  report_stats(*fleet.router, before, report);
  settle(http, "traced http", report);
  const LatencySummary hs = summarize(http, kSloMs);
  check_generator(hs, "traced http", report);

  ReplaySpans spans;
  const LoadResult replay = run_replay(*fleet.router, kFleet.watermark,
                                       schedule, faces, kDrainS, spans);
  settle(replay, "router replay", report);
  const LatencySummary rs = summarize(replay, kSloMs);

  report.json({"net.overhead_p50_ms", "ms",
               hs.latency_ms.median() - rs.latency_ms.median(),
               hs.latency_ms.count(),
               format("HTTP p50 %.3f - Router replay p50 %.3f%s",
                      hs.latency_ms.median(), rs.latency_ms.median(), note)});
  report.json({"net.send_lag_p99_ms", "ms", hs.send_lag_ms.quantile(0.99),
               hs.send_lag_ms.count(), "generator lateness (run validity)"});
  report.json({"serve.admit_ns", "ns", spans.admit_ns.median(),
               spans.admit_ns.count(), "median Router::try_submit call"});
  report.json({"serve.result_wait_p50_ms", "ms",
               spans.result_wait_ms.median(), spans.result_wait_ms.count(),
               "try_submit return -> future ready"});
  report.json({"serve.result_wait_p99_ms", "ms",
               spans.result_wait_ms.quantile(0.99),
               spans.result_wait_ms.count(), "try_submit return -> future ready"});

  // The parser over the workload's request bytes.
  bcop::net::ParserLimits limits;
  limits.max_body = 32 * 32 * 3 * sizeof(float);
  std::uint64_t parsed = 0, bad = 0;
  const Clock::time_point t0 = Clock::now();
  while (since(t0) < 0.2 || parsed < faces.size()) {
    for (const std::string& req : faces.request) {
      bcop::net::ParsedRequest out;
      bad += bcop::net::parse_request(req.data(), req.size(), limits, out) !=
             bcop::net::ParseStatus::kOk;
    }
    parsed += faces.size();
  }
  report.json({"net.parse_ns", "ns", since(t0) * 1e9 / static_cast<double>(parsed),
               parsed, "mean net::parse_request over the request bytes"});
  if (bad) report.fail("net: a workload request did not parse");
  return hs.latency_ms.median();
}

}  // namespace

void run_http_workload(const Options& opt, Report& report) {
  const int conns = std::min(nproc(), 4);
  if (!opt.trace) {
    const Schedule schedule = poisson_schedule(kRateRps, opt.seconds, opt.seed);
    const Faces faces = render_inputs(opt.seed, schedule);
    Fleet fleet = timed_setups(opt.seed, faces, report);
    reset_peak_rss();  // rss_mb covers the measured phase only
    const LoadResult r =
        run_http(fleet.http->port(), schedule, faces, conns, kDrainS);
    settle(r, "http", report);
    const LatencySummary s = summarize(r, kSloMs);
    check_generator(s, "http", report);
    const double sent = static_cast<double>(std::max<std::uint64_t>(r.sent, 1));
    report.json({"latency_p50_ms", "ms", s.latency_ms.median(),
                 s.latency_ms.count(), "scheduled send -> correct 2xx"});
    report.json({"latency_p99_ms", "ms", s.latency_ms.quantile(0.99),
                 s.latency_ms.count(), "scheduled send -> correct 2xx"});
    report.json({"goodput_rps", "req/s",
                 static_cast<double>(r.ok) / r.schedule_s, r.ok,
                 "correct 2xx per second of schedule"});
    report.json({"slo_met_frac", "ratio",
                 static_cast<double>(s.slo_met) / sent, r.sent,
                 format("correct 2xx within %.0f ms / sent", kSloMs)});
    report.json({"rss_mb", "MiB", peak_rss_mib(), 1,
                 "peak resident set of the measured phase"});
    report.info({"shed_frac", "ratio", static_cast<double>(r.shed) / sent,
                 r.sent, "503 / sent"});
    report.info({"error_frac", "ratio", static_cast<double>(r.failed()) / sent,
                 r.sent, "4xx + non-503 5xx + lost + timed out + wrong label"});
    report.info({"net.send_lag_p99_ms", "ms", s.send_lag_ms.quantile(0.99),
                 s.send_lag_ms.count(), "generator lateness (run validity)"});
    for (const char* name :
         {"images_per_cpu_s", "cpu_us_per_image_b1", "images_per_s",
          "image_latency_p50_us"})
      report.not_applicable(name, "in-process engine calls; crowd workloads");
    return;
  }

  // Traced: one setup, then the same schedule untraced (HTTP only) and
  // traced (HTTP with stats, then the Router replay). The engine layers
  // follow in main, once the fleet is gone.
  const Schedule schedule = poisson_schedule(kRateRps, opt.seconds / 4, opt.seed);
  const Faces faces = render_inputs(opt.seed, schedule);
  Fleet fleet = start_fleet(opt.seed, faces, report);
  const LoadResult plain =
      run_http(fleet.http->port(), schedule, faces, conns, kDrainS);
  settle(plain, "untraced http", report);
  const double untraced = summarize(plain, kSloMs).latency_ms.median();
  const double traced = http_layers(fleet, faces, schedule, "", report);
  report.line(format("tracing overhead: traced - untraced HTTP p50 = %.3f ms "
                     "(%.3f vs %.3f)",
                     traced - untraced, traced, untraced));
}

void http_layer_probe(std::uint64_t seed, double seconds, Report& report) {
  const Schedule schedule = poisson_schedule(kRateRps, seconds, seed);
  const Faces faces = render_inputs(seed, schedule);
  Fleet fleet = start_fleet(seed, faces, report);
  http_layers(fleet, faces, schedule, " (gate_http probe)", report);
}

}  // namespace perfbench
