#include "serve/batcher.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "parallel/affinity.hpp"
#include "util/check.hpp"

namespace bcop::serve {

using core::Predictor;
using tensor::Shape;
using tensor::Tensor;
using util::MutexLock;
using util::UniqueLock;

namespace {

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

/// Server telemetry (naming scheme in docs/observability.md). The global
/// bcop_serve_* family is registered once on first server construction; a
/// Router replica additionally owns a bcop_serve_replica<N>_* family.
/// Recording is lock-free either way -- a handful of relaxed atomics.
struct BatchingServer::Metrics {
  obs::Counter& submitted;
  obs::Counter& rejected;
  obs::Counter& batches;
  obs::Gauge& queue_depth;
  obs::LatencyHistogram& batch_size;
  obs::LatencyHistogram& coalesce_wait_ns;
  obs::LatencyHistogram& e2e_latency_ns;

  static Metrics make(const std::string& prefix) {
    auto& reg = obs::Registry::global();
    return Metrics{reg.counter(prefix + "_submitted_total"),
                   reg.counter(prefix + "_rejected_total"),
                   reg.counter(prefix + "_batches_total"),
                   reg.gauge(prefix + "_queue_depth"),
                   reg.histogram(prefix + "_batch_size"),
                   reg.histogram(prefix + "_coalesce_wait_ns"),
                   reg.histogram(prefix + "_e2e_latency_ns")};
  }

  static Metrics& global() {
    static Metrics m = make("bcop_serve");
    return m;
  }
};

template <typename Fn>
void BatchingServer::each_metrics(Fn&& fn) const {
  fn(Metrics::global());
  if (replica_metrics_) fn(*replica_metrics_);
}

BatchingServer::BatchingServer(const Predictor& predictor,
                               BatcherConfig config)
    : predictor_(predictor), config_(config), pool_(config.workers) {
  BCOP_CHECK(config_.max_batch >= 1, "max_batch %lld must be >= 1",
             static_cast<long long>(config_.max_batch));
  BCOP_CHECK(config_.queue_capacity >= 1, "queue_capacity %lld must be >= 1",
             static_cast<long long>(config_.queue_capacity));
  BCOP_CHECK(config_.workers >= 1, "workers %u must be >= 1", config_.workers);
  const Shape want = predictor_.network().expected_input_shape();
  if (want.rank() == 3) image_shape_ = want;
  Metrics::global();  // register before traffic so exports always list them
  if (config_.replica_id >= 0)
    replica_metrics_ = std::make_unique<Metrics>(Metrics::make(
        "bcop_serve_replica" + std::to_string(config_.replica_id)));
  for (unsigned i = 0; i < config_.workers; ++i)
    pool_.submit([this] { worker_loop(); });
}

BatchingServer::~BatchingServer() { shutdown(); }

void BatchingServer::shutdown() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  // Workers drain the queue before exiting, so every accepted request is
  // answered even when the server is shut down mid-burst. Idempotent: a
  // second call finds the pool already idle and returns immediately.
  pool_.wait_idle();
}

Tensor BatchingServer::normalize_rank(Tensor image) const {
  const Shape s = image.shape();
  if (s.rank() == 4 && s[0] == 1)
    return image.reshaped(Shape{s[1], s[2], s[3]});
  if (s.rank() != 3) {
    each_metrics([](Metrics& m) { m.rejected.add(1); });
    throw std::invalid_argument("BatchingServer::try_submit: image must be "
                                "[S, S, C] or [1, S, S, C], got " + s.str());
  }
  return image;
}

std::optional<std::future<Predictor::Result>> BatchingServer::try_submit(
    Tensor image, std::int64_t max_depth) {
  image = normalize_rank(std::move(image));
  const Shape s = image.shape();
  std::future<Predictor::Result> future;
  {
    MutexLock lock(mutex_);
    if (image_shape_.rank() == 0) image_shape_ = s;
    if (s != image_shape_) {
      each_metrics([](Metrics& m) { m.rejected.add(1); });
      throw std::invalid_argument(
          "BatchingServer::try_submit: image " + s.str() +
          " does not match the served model input " + image_shape_.str());
    }
    // Shutdown is load the caller cannot fix by retrying elsewhere, but a
    // network front-end must still answer 503 rather than crash: report it
    // as a rejection instead of throwing.
    if (stopping_) {
      each_metrics([](Metrics& m) { m.rejected.add(1); });
      return std::nullopt;
    }
    std::int64_t limit = config_.queue_capacity;
    if (max_depth >= 0) limit = std::min(limit, max_depth);
    if (static_cast<std::int64_t>(queue_.size()) >= limit) {
      each_metrics([](Metrics& m) { m.rejected.add(1); });
      return std::nullopt;
    }
    Request request;
    request.image = std::move(image);
    request.enqueued = std::chrono::steady_clock::now();
    future = request.promise.get_future();
    queue_.push_back(std::move(request));
    ++stats_.requests;
    // Gauge moves with the queue mutation it mirrors, inside the critical
    // section (recording is lock-free, so this costs one relaxed fetch_add
    // under the lock): a snapshot never observes a pushed request with an
    // un-bumped depth, nor a transiently negative depth.
    each_metrics([](Metrics& m) { m.queue_depth.add(1); });
  }
  each_metrics([](Metrics& m) { m.submitted.add(1); });
  cv_work_.notify_one();
  return future;
}

std::int64_t BatchingServer::queue_depth() const {
  MutexLock lock(mutex_);
  return static_cast<std::int64_t>(queue_.size());
}

ServerStats BatchingServer::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void BatchingServer::worker_loop() {
  // Replica workers pin to the core set the Router dealt this replica
  // (parallel::partition_cpus); a failed pin just leaves the worker
  // floating -- affinity is a performance hint, never a requirement.
  if (!config_.pin_cpus.empty()) parallel::pin_current_thread(config_.pin_cpus);
  WorkerState state;  // lives as long as the worker: arena grows, then holds
  for (;;) {
    std::deque<Request> batch;
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_work_.wait(lock.native());
      // Only a stopping server wakes to an empty queue: it is drained.
      if (queue_.empty()) return;
      // Work-conserving: take whatever is waiting, up to max_batch, and
      // run it now. Under load the next batch forms from the requests
      // that arrive while this one runs.
      const auto take = std::min<std::int64_t>(
          static_cast<std::int64_t>(queue_.size()), config_.max_batch);
      for (std::int64_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      each_metrics([take](Metrics& m) { m.queue_depth.add(-take); });
    }
    run_batch(std::move(batch), state);
  }
}

void BatchingServer::run_batch(std::deque<Request>&& batch,
                               WorkerState& state) {
  const auto b = static_cast<std::int64_t>(batch.size());
  // How long the oldest member waited in the queue before a worker took
  // it: the backlog behind earlier batches plus wake-up latency.
  const std::uint64_t wait_ns = ns_since(batch.front().enqueued);
  each_metrics([b, wait_ns](Metrics& m) {
    m.batches.add(1);
    m.batch_size.record(static_cast<std::uint64_t>(b));
    m.coalesce_wait_ns.record(wait_ns);
  });
  const Shape& s = batch.front().image.shape();
  const Shape batch_shape{b, s[0], s[1], s[2]};
  // Reuse the worker's batch input buffer; it only reallocates when the
  // batch size changes (steady traffic at a fixed size is allocation-free).
  if (state.input.shape() != batch_shape) state.input = Tensor(batch_shape);
  const std::int64_t stride = s.numel();
  for (std::int64_t i = 0; i < b; ++i)
    std::memcpy(state.input.data() + i * stride,
                batch[static_cast<std::size_t>(i)].image.data(),
                static_cast<std::size_t>(stride) * sizeof(float));
  {
    // Record the batch before fulfilling any promise: a client whose
    // future.get() returned must observe its own batch in stats().
    MutexLock lock(mutex_);
    ++stats_.batches;
    stats_.max_batch_seen = std::max(stats_.max_batch_seen, b);
    if (b > 1) stats_.coalesced += b;
  }
  try {
    predictor_.classify_batch(state.input, state.ws, state.logits,
                              state.results);
    for (std::int64_t i = 0; i < b; ++i) {
      Request& request = batch[static_cast<std::size_t>(i)];
      // Histogram before promise, like stats_ above: a client whose get()
      // returned must find its own request in e2e_latency_ns.
      const std::uint64_t e2e_ns = ns_since(request.enqueued);
      each_metrics([e2e_ns](Metrics& m) { m.e2e_latency_ns.record(e2e_ns); });
      request.promise.set_value(state.results[static_cast<std::size_t>(i)]);
    }
  } catch (...) {
    for (auto& request : batch)
      request.promise.set_exception(std::current_exception());
  }
}

}  // namespace bcop::serve
