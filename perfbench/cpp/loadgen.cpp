#include "loadgen.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <future>
#include <thread>

#include "net/client.hpp"
#include "net/socket.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace net = bcop::net;

Schedule poisson_schedule(double rate, double seconds, std::uint64_t seed) {
  bcop::util::Rng rng(seed * 0x2545f4914f6cdd1dull + 3);
  Schedule s;
  s.seconds = seconds;
  s.due.reserve(static_cast<std::size_t>(rate * seconds) + 16);
  for (double t = -std::log(1.0 - rng.uniform()) / rate; t < seconds;
       t += -std::log(1.0 - rng.uniform()) / rate)
    s.due.push_back(t);
  return s;
}

void LoadResult::tally(RequestRecord& r, Outcome o) {
  switch (o) {
    case Outcome::kOk: r.ok = true; ++ok; break;
    case Outcome::kWrongLabel: ++wrong; break;
    case Outcome::kShed: ++shed; break;
    case Outcome::kErrorStatus: ++error_status; break;
    case Outcome::kLost: r.done = -1; ++lost; break;
    case Outcome::kTimedOut: r.done = -1; ++timed_out; break;
  }
}

int class_of(const std::string& body) {
  const std::size_t at = body.find("\"class\":");
  if (at == std::string::npos) return -1;
  return std::atoi(body.c_str() + at + 8);
}

namespace {

struct Conn {
  net::Fd fd;
  std::string out;  // bytes queued for the socket
  std::size_t out_off = 0;
  std::deque<std::pair<std::size_t, std::size_t>> unsent;  // (request, end)
  std::deque<std::size_t> pending;  // fully sent, awaiting the answer
  std::string in;
};

class HttpLoad {
 public:
  HttpLoad(std::uint16_t port, const Schedule& schedule, const Faces& faces,
             int connections)
      : port_(port), schedule_(schedule.due), faces_(faces),
        conns_(static_cast<std::size_t>(connections)) {
    result_.records.resize(schedule_.size());
    for (std::size_t i = 0; i < schedule_.size(); ++i)
      result_.records[i].due = schedule_[i];
    result_.schedule_s = schedule.seconds;
  }

  LoadResult run(double drain_s) {
    for (Conn& c : conns_) connect(c);
    t0_ = Clock::now();
    const double deadline = result_.schedule_s + drain_s;
    std::size_t next = 0;
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
      const double now = since(t0_);
      while (next < schedule_.size() && schedule_[next] <= now) {
        Conn& c = conns_[next % conns_.size()];
        if (!c.fd.valid()) connect(c);
        result_.records[next].queued = since(t0_);
        c.out.append(faces_.request[next % faces_.size()]);
        c.unsent.emplace_back(next, c.out.size());
        ++result_.sent;
        ++next;
      }
      std::size_t outstanding = 0;
      for (Conn& c : conns_) {
        if (c.fd.valid()) flush(c);
        if (c.fd.valid()) receive(c);
        if (!c.fd.valid()) drop(c, Outcome::kLost);
        outstanding += c.unsent.size() + c.pending.size();
      }
      if (next == schedule_.size() && outstanding == 0) break;
      if (since(t0_) > deadline) {
        for (Conn& c : conns_) drop(c, Outcome::kTimedOut);
        break;
      }
      // Sleep until a socket is actionable or the next request is due.
      double wait = 1e-3;
      if (next < schedule_.size())
        wait = std::clamp(schedule_[next] - since(t0_), 0.0, wait);
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        fds[i].fd = conns_[i].fd.valid() ? conns_[i].fd.get() : -1;
        fds[i].events = static_cast<short>(
            POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
        fds[i].revents = 0;
      }
      const timespec ts{0, static_cast<long>(wait * 1e9)};
      ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    }
    return std::move(result_);
  }

 private:
  void connect(Conn& c) {
    c.fd = net::connect_tcp("127.0.0.1", port_);
    if (!c.fd.valid()) return;
    net::set_nodelay(c.fd.get());
    net::set_nonblocking(c.fd.get(), true);
  }

  /// Close `c` and settle everything it still owed with outcome `o`.
  void drop(Conn& c, Outcome o) {
    for (const auto& [idx, end] : c.unsent) result_.tally(result_.records[idx], o);
    for (const std::size_t idx : c.pending) result_.tally(result_.records[idx], o);
    c.unsent.clear();
    c.pending.clear();
    c.out.clear();
    c.out_off = 0;
    c.in.clear();
    c.fd.reset();
  }

  void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd.get(), c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
        break;
      c.fd.reset();
      return;
    }
    const double now = since(t0_);
    while (!c.unsent.empty() && c.unsent.front().second <= c.out_off) {
      result_.records[c.unsent.front().first].sent = now;
      c.pending.push_back(c.unsent.front().first);
      c.unsent.pop_front();
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  void receive(Conn& c) {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd.get(), chunk, sizeof(chunk), 0);
      if (n > 0) {
        c.in.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 ||
          !(errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
        c.fd.reset();
      break;
    }
    std::size_t off = 0;
    for (;;) {
      net::HttpResponse resp;
      std::size_t consumed = 0;
      const net::ParseStatus st = net::parse_response(
          c.in.data() + off, c.in.size() - off, resp, consumed);
      if (st == net::ParseStatus::kNeedMore) break;
      if (st != net::ParseStatus::kOk || c.pending.empty()) {
        c.fd.reset();  // not HTTP, or an answer nobody asked for
        break;
      }
      off += consumed;
      if (resp.status == 100) continue;
      const std::size_t idx = c.pending.front();
      c.pending.pop_front();
      RequestRecord& r = result_.records[idx];
      r.done = since(t0_);
      r.status = resp.status;
      if (resp.status / 100 == 2) {
        r.label = class_of(resp.body);
        result_.tally(r, r.label == faces_.label[idx % faces_.size()]
                             ? Outcome::kOk
                             : Outcome::kWrongLabel);
      } else {
        result_.tally(r, resp.status == 503 ? Outcome::kShed
                                            : Outcome::kErrorStatus);
      }
      if (!resp.keep_alive) {
        c.fd.reset();
        break;
      }
    }
    c.in.erase(0, off);
  }

  const std::uint16_t port_;
  const std::vector<double>& schedule_;
  const Faces& faces_;
  std::vector<Conn> conns_;
  LoadResult result_;
  Clock::time_point t0_;
};

}  // namespace

LoadResult run_http(std::uint16_t port, const Schedule& schedule,
                    const Faces& faces, int connections, double drain_s) {
  return HttpLoad(port, schedule, faces, connections).run(drain_s);
}

LoadResult run_replay(bcop::serve::Router& router, std::int64_t watermark,
                      const Schedule& plan, const Faces& faces,
                      double drain_s, ReplaySpans& spans) {
  const std::vector<double>& schedule = plan.due;
  struct Waiting {
    std::size_t idx;
    Clock::time_point admitted;
    std::future<bcop::core::Predictor::Result> future;
  };
  LoadResult result;
  result.records.resize(schedule.size());
  result.schedule_s = plan.seconds;
  spans.admit_ns.reserve(schedule.size());
  spans.result_wait_ms.reserve(schedule.size());
  std::vector<Waiting> waiting;
  const Clock::time_point t0 = Clock::now();
  const double deadline = result.schedule_s + drain_s;
  std::size_t next = 0;
  for (;;) {
    while (next < schedule.size() && schedule[next] <= since(t0)) {
      RequestRecord& r = result.records[next];
      r.due = schedule[next];
      r.queued = since(t0);
      bcop::tensor::Tensor image = decode_u8(faces.u8(next % faces.size()));
      const Clock::time_point a = Clock::now();
      auto future = router.try_submit(std::move(image), watermark);
      const Clock::time_point b = Clock::now();
      spans.admit_ns.add(std::chrono::duration<double, std::nano>(b - a).count());
      r.sent = std::chrono::duration<double>(a - t0).count();
      ++result.sent;
      if (future) {
        waiting.push_back({next, b, std::move(*future)});
      } else {
        r.status = 503;
        r.done = std::chrono::duration<double>(b - t0).count();
        result.tally(r, Outcome::kShed);
      }
      ++next;
    }
    for (std::size_t i = 0; i < waiting.size();) {
      Waiting& w = waiting[i];
      if (w.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const Clock::time_point ready = Clock::now();
      RequestRecord& r = result.records[w.idx];
      r.done = std::chrono::duration<double>(ready - t0).count();
      r.status = 200;
      spans.result_wait_ms.add(
          std::chrono::duration<double, std::milli>(ready - w.admitted).count());
      r.label = static_cast<int>(w.future.get().label);
      result.tally(r, r.label == faces.label[w.idx % faces.size()]
                          ? Outcome::kOk
                          : Outcome::kWrongLabel);
      w = std::move(waiting.back());
      waiting.pop_back();
    }
    if (next == schedule.size() && waiting.empty()) break;
    if (since(t0) > deadline) {
      for (Waiting& w : waiting)
        result.tally(result.records[w.idx], Outcome::kTimedOut);
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return result;
}

LatencySummary summarize(const LoadResult& r, double slo_ms) {
  LatencySummary s;
  s.latency_ms.reserve(r.records.size());
  s.send_lag_ms.reserve(r.records.size());
  for (const RequestRecord& rec : r.records) {
    if (rec.queued >= 0) s.send_lag_ms.add((rec.queued - rec.due) * 1e3);
    if (!rec.ok) continue;
    const double ms = (rec.done - rec.due) * 1e3;
    s.latency_ms.add(ms);
    s.slo_met += ms <= slo_ms;
  }
  return s;
}

}  // namespace perfbench
