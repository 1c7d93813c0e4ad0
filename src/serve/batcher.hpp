// Request-batching inference server: the software analogue of the
// paper's streaming accelerator pipeline.
//
// The FINN-style FPGA design reaches its ~6400 FPS (n-CNV, Table II) by
// keeping every stage of the pipeline busy on a stream of frames; the CPU
// equivalent is batching -- one bit-packed XNOR-popcount GEMM per layer
// over many images amortizes packing, dispatch and weight traffic. This
// module turns independent single-image requests into such batches:
//
//   try_submit() --> bounded request queue --> worker pool --> classify_batch
//
// Batching is work-conserving: a worker that finds requests waiting takes
// up to `max_batch` of them at once and runs them; it never holds a
// request back to wait for company. Batches still form under load, from
// the requests that arrive while earlier batches run. The queue is
// bounded: try_submit sheds (returns std::nullopt) once `queue_capacity`
// requests are pending, instead of growing memory under overload.
//
// Concurrency is built strictly from parallel::ThreadPool (repo rule R2:
// no raw threads outside src/parallel/): each worker is one
// long-running task on a dedicated pool, and the batched network forward
// itself fans out over ThreadPool::global().
//
// The server exports telemetry into the process-wide obs::Registry
// (docs/observability.md): bcop_serve_{submitted,rejected,batches}_total
// counters, a bcop_serve_queue_depth gauge, and batch_size /
// coalesce_wait_ns / e2e_latency_ns histograms. Recording is lock-free
// and rides the existing request path; stats() remains the in-process
// aggregate view.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/predictor.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_annotations.hpp"
#include "xnor/plan.hpp"

namespace bcop::serve {

struct BatcherConfig {
  /// Largest batch a worker takes from the queue at once.
  std::int64_t max_batch = 16;
  /// Bounded queue depth; try_submit sheds while this many requests wait.
  std::int64_t queue_capacity = 64;
  /// Unread; kept only because perfbench/cpp/http.cpp assigns it.
  std::chrono::microseconds max_latency{2000};
  /// Worker tasks; must be >= 1.
  unsigned workers = 2;
  /// CPUs the worker tasks pin themselves to (parallel::pin_current_thread
  /// at loop entry; empty = unpinned). serve::Router hands each replica a
  /// disjoint set from parallel::partition_cpus so replicas do not migrate
  /// onto each other's caches. Pinning is a hint: an unpinnable host just
  /// runs unpinned.
  std::vector<int> pin_cpus;
  /// >= 0: this server is replica N of a serve::Router, and every metric
  /// it records lands in a bcop_serve_replica<N>_* family *in addition to*
  /// the process-wide bcop_serve_* family (so fleet-level dashboards and
  /// the 503<->rejected ledger keep working unchanged). -1: standalone
  /// server, global family only.
  int replica_id = -1;
};

struct ServerStats {
  std::int64_t requests = 0;      // total accepted
  std::int64_t batches = 0;       // classify_batch invocations
  std::int64_t coalesced = 0;     // requests that shared a batch (size > 1)
  std::int64_t max_batch_seen = 0;
};

class BatchingServer {
 public:
  /// The predictor must outlive the server; classification is const and
  /// safe to share across workers.
  BatchingServer(const core::Predictor& predictor, BatcherConfig config);
  /// Drains the queue (pending requests are still answered), then joins.
  ~BatchingServer();

  BatchingServer(const BatchingServer&) = delete;
  BatchingServer& operator=(const BatchingServer&) = delete;

  /// Begin shutdown and wait for the workers: every already-accepted
  /// request is still answered (the queue drains), then the worker tasks
  /// exit. Idempotent; the destructor calls it. After shutdown,
  /// try_submit() returns std::nullopt -- serve::Replica uses this as the
  /// graceful-drain primitive.
  void shutdown() BCOP_EXCLUDES(mutex_);

  /// The one admission call: enqueue one [S, S, 3] image (or
  /// [1, S, S, 3]) without ever waiting. The future resolves once a worker
  /// runs the batch containing this request. Returns std::nullopt -- and
  /// counts bcop_serve_rejected_total -- when the queue already holds
  /// min(queue_capacity, max_depth) requests (max_depth < 0 means
  /// "queue_capacity alone"; max_depth == 0 sheds everything) or when
  /// shutdown began. Shape validation throws std::invalid_argument: a
  /// malformed image is a caller bug, not load.
  std::optional<std::future<core::Predictor::Result>> try_submit(
      tensor::Tensor image, std::int64_t max_depth = -1) BCOP_EXCLUDES(mutex_);

  /// Requests currently waiting in the queue (excludes in-flight batches).
  /// The shedding watermark in net::HttpServer and /healthz read this.
  std::int64_t queue_depth() const BCOP_EXCLUDES(mutex_);

  ServerStats stats() const BCOP_EXCLUDES(mutex_);
  const BatcherConfig& config() const { return config_; }
  /// The served model (outlives the server per the constructor contract);
  /// front-ends read its expected input shape to size request payloads.
  const core::Predictor& predictor() const { return predictor_; }

 private:
  struct Request {
    tensor::Tensor image;  // [S, S, 3]
    std::promise<core::Predictor::Result> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Per-worker serving state, owned by the worker for its lifetime: the
  /// grow-only plan arena plus the batched input, logits and result
  /// buffers. Once the worker has seen a batch size, shipping that size
  /// again touches no allocator -- the whole inference is arena + reuse.
  struct WorkerState {
    xnor::Workspace ws;
    tensor::Tensor input;
    tensor::Tensor logits;
    std::vector<core::Predictor::Result> results;
  };

  /// The obs series this server records (global bcop_serve_* family plus,
  /// for Router replicas, the per-replica bcop_serve_replica<N>_* family).
  /// Defined in batcher.cpp; recording is lock-free either way.
  struct Metrics;

  void worker_loop() BCOP_EXCLUDES(mutex_);
  void run_batch(std::deque<Request>&& batch, WorkerState& state)
      BCOP_EXCLUDES(mutex_);

  /// Apply `fn` to the global metrics family and, when this server is a
  /// replica, to its per-replica family too (defined in batcher.cpp).
  template <typename Fn>
  void each_metrics(Fn&& fn) const;

  /// Flatten [1, S, S, C] to [S, S, C]; throws std::invalid_argument
  /// (counting the rejection) on any other rank.
  tensor::Tensor normalize_rank(tensor::Tensor image) const;

  const core::Predictor& predictor_;
  const BatcherConfig config_;
  /// Per-replica metric family (bcop_serve_replica<N>_*); null unless
  /// config_.replica_id >= 0. The pointees are registry-owned and
  /// reference-stable; recording is relaxed atomics only.
  std::unique_ptr<Metrics> replica_metrics_;

  mutable util::Mutex mutex_;
  std::condition_variable cv_work_;  // queue became non-empty / stopping
  std::deque<Request> queue_ BCOP_GUARDED_BY(mutex_);
  bool stopping_ BCOP_GUARDED_BY(mutex_) = false;
  ServerStats stats_ BCOP_GUARDED_BY(mutex_);
  /// Locked-in [S, S, C] request shape: the folded network's expected
  /// input when inferable, otherwise the first submitted image's shape.
  tensor::Shape image_shape_ BCOP_GUARDED_BY(mutex_);

  // Declared last: destroyed first would deadlock, so ~BatchingServer sets
  // stopping_ and waits for the workers before members go away.
  parallel::ThreadPool pool_;
};

}  // namespace bcop::serve
