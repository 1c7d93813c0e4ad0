// One serving replica: a BatchingServer generation with a lifecycle.
//
// Scale-out serving (docs/serving.md) splits the old monolithic server
// into dispatcher and replica roles. A Replica owns everything one copy
// of the engine needs -- its own folded network clone (fresh plan cache,
// via core::Predictor::replicate), its own BatchingServer (bounded queue,
// workspace-pooled workers, optionally pinned to a disjoint core set from
// parallel::partition_cpus) -- plus the lifecycle that makes hot-swapping
// a model version a zero-downtime operation:
//
//   kStarting --> kServing --> kDraining --> kStopped
//                    ^                           |
//                    +------- swap_model --------+
//
// drain() stops admitting (the Router observes the state change and
// routes around this replica), lets the in-flight queue empty -- every
// already-accepted future still resolves -- and joins the workers.
// swap_model() is drain() plus a restart on a freshly replicated model:
// requests keep flowing through the other replicas the whole time.
//
// Admission (try_submit) is tri-state so the Router can tell "this
// replica is full" (kShed: terminal, the 503 ledger already counted it)
// from "this replica is mid-swap" (kUnavailable: nothing counted, the
// image is untouched, try the next replica). Admission never parks: a
// state check that fails fast once a drain or swap begins, then a mutex
// that is only ever held for brief critical sections.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>

#include "core/predictor.hpp"
#include "serve/batcher.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_annotations.hpp"

namespace bcop::serve {

enum class ReplicaState : int {
  kStarting = 0,  // constructed, server not yet accepting
  kServing = 1,   // admitting requests
  kDraining = 2,  // no new admissions; in-flight queue emptying
  kStopped = 3,   // drained and joined; swap_model() restarts
};

/// Lower-case state name for /healthz and logs ("serving", "draining", ...).
const char* to_string(ReplicaState state);

class Replica {
 public:
  /// How the Router classifies one admission attempt.
  enum class Admission {
    kAccepted,     // future returned; bcop_serve*_submitted_total counted
    kShed,         // over watermark/capacity; rejection counted -- terminal,
                   // the fleet is uniformly loaded so retrying elsewhere
                   // would just double-count the 503 ledger
    kUnavailable,  // not serving (draining/swap); nothing counted, image
                   // untouched: retry on another replica
  };

  struct Admitted {
    Admission admission = Admission::kUnavailable;
    std::optional<std::future<core::Predictor::Result>> future;
  };

  /// Clone `prototype` (fresh plan cache; see Predictor::replicate) and
  /// start serving. `config.replica_id` is forced to `id` so this
  /// replica's traffic lands in the bcop_serve_replica<id>_* family.
  /// The prototype is only read during the call; it need not outlive the
  /// replica.
  Replica(const core::Predictor& prototype, BatcherConfig config, int id);
  /// Drains (every accepted future resolves) and joins.
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Non-blocking tri-state admission. Takes the image by reference and
  /// moves from it ONLY when the attempt reaches the inner server
  /// (kAccepted or kShed); on kUnavailable the image is intact so the
  /// Router can offer it to another replica. Shape validation still
  /// throws std::invalid_argument exactly like BatchingServer.
  Admitted try_submit(tensor::Tensor& image, std::int64_t max_depth)
      BCOP_EXCLUDES(mutex_, admin_mutex_);

  /// Stop admitting, let the queue empty (every already-accepted future
  /// resolves), join the workers: kServing -> kDraining -> kStopped.
  /// Blocks until drained. Idempotent; concurrent drain/swap calls
  /// serialize on an admin mutex.
  void drain() BCOP_EXCLUDES(mutex_, admin_mutex_);

  /// Zero-downtime model replacement: drain(), replicate `prototype`
  /// into a fresh plan-cache clone, start a new BatchingServer generation
  /// and resume serving. The Router keeps routing around this replica
  /// until the new generation reports kServing.
  void swap_model(const core::Predictor& prototype)
      BCOP_EXCLUDES(mutex_, admin_mutex_);

  ReplicaState state() const {
    return state_.load(std::memory_order_acquire);
  }
  int id() const { return id_; }
  /// BatchingServer generations started (1 after construction; +1 per
  /// swap_model). Lets tests assert a hot swap actually replaced the
  /// engine.
  std::int64_t generation() const BCOP_EXCLUDES(mutex_);
  /// Live queue depth; 0 while draining/stopped (nothing is admitted).
  std::int64_t queue_depth() const BCOP_EXCLUDES(mutex_);
  /// Stats accumulated across ALL generations: drained generations'
  /// totals plus the live server's. Survives swap_model.
  ServerStats stats() const BCOP_EXCLUDES(mutex_);
  const BatcherConfig& config() const { return config_; }

 private:
  /// Drain with the admin mutex already held (shared by drain/swap/dtor).
  void drain_admin() BCOP_REQUIRES(admin_mutex_) BCOP_EXCLUDES(mutex_);

  const int id_;
  const BatcherConfig config_;  // replica_id == id_; template for restarts
  std::atomic<ReplicaState> state_{ReplicaState::kStarting};

  /// Serializes lifecycle operations (drain/swap_model/destruction) so
  /// two administrators cannot interleave a teardown with a restart.
  /// Ordering: admin_mutex_ is taken before mutex_, never the reverse.
  util::Mutex admin_mutex_ BCOP_ACQUIRED_BEFORE(mutex_);  // bcop-lint: allow(R8): serializes the drain/swap lifecycle region, guards no data member
  /// Guards the live generation. Held only for admissions, pointer moves
  /// and stat reads -- the slow parts of a swap (queue drain, worker join,
  /// model replication) happen outside it, so admission and depth probes
  /// wait microseconds at most.
  mutable util::Mutex mutex_;
  /// This replica's replicated clone; heap-held so a swap can reseat it
  /// while the BatchingServer reference contract ("the predictor must
  /// outlive the server") stays per-generation.
  std::unique_ptr<core::Predictor> model_ BCOP_GUARDED_BY(mutex_);
  std::unique_ptr<BatchingServer> server_ BCOP_GUARDED_BY(mutex_);
  /// Totals from generations already drained (see stats()).
  ServerStats drained_stats_ BCOP_GUARDED_BY(mutex_);
  std::int64_t generation_ BCOP_GUARDED_BY(mutex_) = 0;
};

}  // namespace bcop::serve
