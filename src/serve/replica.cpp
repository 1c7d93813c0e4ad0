#include "serve/replica.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace bcop::serve {

using core::Predictor;
using util::MutexLock;

const char* to_string(ReplicaState state) {
  switch (state) {
    case ReplicaState::kStarting: return "starting";
    case ReplicaState::kServing: return "serving";
    case ReplicaState::kDraining: return "draining";
    case ReplicaState::kStopped: return "stopped";
  }
  return "unknown";
}

Replica::Replica(const Predictor& prototype, BatcherConfig config, int id)
    : id_(id), config_([&] {
        config.replica_id = id;
        return config;
      }()) {
  BCOP_CHECK(id >= 0, "Replica id %d must be >= 0", id);
  {
    MutexLock lock(mutex_);
    model_ = std::make_unique<Predictor>(prototype.replicate());
    server_ = std::make_unique<BatchingServer>(*model_, config_);
    generation_ = 1;
  }
  // Publish only after the generation is fully wired: a Router scanning
  // states never observes kServing with a null server.
  state_.store(ReplicaState::kServing, std::memory_order_release);
}

Replica::~Replica() {
  MutexLock admin(admin_mutex_);
  drain_admin();
}

Replica::Admitted Replica::try_submit(tensor::Tensor& image,
                                      std::int64_t max_depth) {
  Admitted out;
  // Fast reject without touching the lock: a draining replica answers
  // kUnavailable from one atomic load, so the Router's retry scan costs
  // nothing on the replicas that are mid-swap.
  if (state_.load(std::memory_order_acquire) != ReplicaState::kServing)
    return out;
  // Every holder of mutex_ is brief (pointer moves, depth and stat reads,
  // other admissions), so waiting for it is not parking -- and contention
  // with a Router depth scan or a concurrent admission is not a swap.
  MutexLock lock(mutex_);
  if (!server_ ||
      state_.load(std::memory_order_relaxed) != ReplicaState::kServing)
    return out;
  auto future = server_->try_submit(std::move(image), max_depth);
  if (!future) {
    out.admission = Admission::kShed;  // rejection counted by the server
    return out;
  }
  out.admission = Admission::kAccepted;
  out.future = std::move(future);
  return out;
}

void Replica::drain() {
  MutexLock admin(admin_mutex_);
  drain_admin();
}

void Replica::drain_admin() {
  // Stop admissions before waiting on the queue: try_submit's state check
  // turns away new work while the workers finish what was accepted.
  ReplicaState expected = ReplicaState::kServing;
  if (!state_.compare_exchange_strong(expected, ReplicaState::kDraining,
                                      std::memory_order_acq_rel)) {
    if (expected == ReplicaState::kStopped) return;  // idempotent
  }
  std::unique_ptr<BatchingServer> dying;
  {
    MutexLock lock(mutex_);
    dying = std::move(server_);
  }
  if (dying) {
    // The slow part -- queue drain and worker join -- runs outside
    // mutex_, so queue_depth()/stats() probes keep answering while the
    // replica empties. Every future accepted before the state flip
    // resolves here.
    dying->shutdown();
    const ServerStats finished = dying->stats();
    MutexLock lock(mutex_);
    drained_stats_.requests += finished.requests;
    drained_stats_.batches += finished.batches;
    drained_stats_.coalesced += finished.coalesced;
    drained_stats_.max_batch_seen =
        std::max(drained_stats_.max_batch_seen, finished.max_batch_seen);
  }
  state_.store(ReplicaState::kStopped, std::memory_order_release);
}

void Replica::swap_model(const Predictor& prototype) {
  MutexLock admin(admin_mutex_);
  drain_admin();
  // The next generation is built outside mutex_, which only ever guards
  // brief critical sections. The old generation is fully gone
  // (drain_admin joined it), so reseating the model is safe; the old
  // model is freed when `model` leaves scope, outside the lock too.
  auto model = std::make_unique<Predictor>(prototype.replicate());
  auto server = std::make_unique<BatchingServer>(*model, config_);
  {
    MutexLock lock(mutex_);
    model_.swap(model);
    server_ = std::move(server);
    ++generation_;
  }
  state_.store(ReplicaState::kServing, std::memory_order_release);
}

std::int64_t Replica::generation() const {
  MutexLock lock(mutex_);
  return generation_;
}

std::int64_t Replica::queue_depth() const {
  MutexLock lock(mutex_);
  return server_ ? server_->queue_depth() : 0;
}

ServerStats Replica::stats() const {
  MutexLock lock(mutex_);
  ServerStats total = drained_stats_;
  if (server_) {
    const ServerStats live = server_->stats();
    total.requests += live.requests;
    total.batches += live.batches;
    total.coalesced += live.coalesced;
    total.max_batch_seen = std::max(total.max_batch_seen, live.max_batch_seen);
  }
  return total;
}

}  // namespace bcop::serve
