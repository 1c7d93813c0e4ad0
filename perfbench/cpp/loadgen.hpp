// Open-loop load for the HTTP workloads, with one record per request.
//
// net::run_loadgen reports aggregates only, so the benchmark drives the
// wire itself from the program's public pieces (net::format_request,
// net::parse_response, net::Fd): one generator thread injects every
// request at its scheduled instant over a few keep-alive connections,
// whether or not earlier answers have arrived, and records when each
// request was due, sent and answered, its status and its label. Latency
// is charged from the *due* time, so queueing the server causes is never
// hidden by a generator that waited for it.
//
// The same schedule and images can be replayed straight into
// serve::Router::try_submit (no HTTP), which is how the traced run splits
// the front-end's share of latency from the serving stack's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/router.hpp"

namespace perfbench {

/// Arrival times in seconds from the start of the schedule, ascending.
struct Schedule {
  std::vector<double> due;
  double seconds = 0;  // length of the schedule
};

/// Poisson arrivals at `rate` per second for `seconds`.
Schedule poisson_schedule(double rate, double seconds, std::uint64_t seed);

/// What happened to one request. Times are seconds from the schedule
/// start: `queued` when the generator handled it, `sent` when its last
/// byte reached the socket (later under TCP backpressure), `done` when
/// the answer arrived (< 0: none). `label` is the class of a 2xx answer
/// (-1 otherwise).
struct RequestRecord {
  double due = 0, queued = -1, sent = -1, done = -1;
  int status = 0;
  int label = -1;
  bool ok = false;  // answered 2xx with the oracle's label
};

enum class Outcome { kOk, kWrongLabel, kShed, kErrorStatus, kLost, kTimedOut };

/// The ledger of one load phase.
struct LoadResult {
  std::vector<RequestRecord> records;
  std::uint64_t sent = 0, ok = 0, wrong = 0, shed = 0, error_status = 0,
                lost = 0, timed_out = 0;
  double schedule_s = 0;  // Schedule::seconds

  /// sent == 2xx + 503 + error statuses + lost + timed out.
  bool conserved() const {
    return sent == ok + wrong + shed + error_status + lost + timed_out;
  }
  /// Failures in the error_frac sense (everything but 2xx-correct and 503).
  std::uint64_t failed() const {
    return wrong + error_status + lost + timed_out;
  }
  void tally(RequestRecord& r, Outcome o);
};

/// The "class" field of a classify answer body, or -1.
int class_of(const std::string& body);

/// Drive `schedule` against 127.0.0.1:`port` over `connections` keep-alive
/// connections. Request i carries face i % faces.size() and must come back
/// with that face's oracle label. Waits up to `drain_s` after the schedule
/// ends for stragglers (then counts them timed out).
LoadResult run_http(std::uint16_t port, const Schedule& schedule,
                    const Faces& faces, int connections, double drain_s);

/// Per-request serve spans of a direct replay.
struct ReplaySpans {
  Samples admit_ns;        // one Router::try_submit call
  Samples result_wait_ms;  // try_submit return -> future ready
};

/// Replay `schedule` straight into `router.try_submit(image, watermark)`,
/// decoding each u8 face into the tensor the HTTP front-end would build.
/// A shed admission counts as a 503.
LoadResult run_replay(bcop::serve::Router& router, std::int64_t watermark,
                      const Schedule& schedule, const Faces& faces,
                      double drain_s, ReplaySpans& spans);

/// Spans and end-to-end figures of one load phase, over the whole run.
struct LatencySummary {
  Samples latency_ms;         // done - due, correct 2xx answers
  Samples send_lag_ms;        // queued - due: how late the generator ran
  std::uint64_t slo_met = 0;  // correct 2xx within slo_ms
};
LatencySummary summarize(const LoadResult& r, double slo_ms);

}  // namespace perfbench
