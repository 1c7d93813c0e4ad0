// Confidence-tiered serving over residual-binarized models.
//
// A ReBNet-style network trained at M = 3 (docs/residual-binarization.md)
// can serve at any truncated depth: M = 1 costs one third of the GEMM
// passes but is less accurate on hard inputs. The TieredRouter exploits
// the fact that most gate traffic is EASY -- the M = 1 classifier answers
// with a wide softmax margin -- and only pays for depth where it matters:
//
//   try_submit --> low tier (M = 1 Router fleet) --> margin >= threshold?
//                        |                               |yes: answer
//                        |no (torn between two classes)  |
//                        +--> high tier (full-M fleet) --+--> answer
//
// Both tiers are ordinary serve::Router fleets built from replicate()d
// clones of ONE prototype -- the low tier's clones carry
// Predictor::set_serve_levels(low_levels), the high tier's the full
// trained depth -- so a hot-swap of the prototype upgrades both tiers
// with the existing per-replica drain/swap machinery.
//
// Degradation, not failure: when the high tier sheds an escalation (its
// queues are at the watermark), the request is answered with the already
// computed low-tier result instead of a 503. Only a low-tier admission
// shed is client-visible.
//
// Telemetry (docs/observability.md naming):
//   bcop_serve_tiered_submitted_total       accepted into the low tier
//   bcop_serve_tiered_resolved_low_total    answered by M = 1 alone
//   bcop_serve_tiered_escalated_total       re-served at the high depth
//   bcop_serve_tiered_escalation_shed_total escalations the high tier
//                                           shed (answered low instead)
// Ledger note: a shed escalation still bumps bcop_serve_rejected_total
// inside the high-tier replica even though the client receives a 200
// (the low answer). Fleet reconciliation for a tiered deployment is
// therefore: rejected_total == client 503s + escalation_shed_total.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <optional>

#include "core/predictor.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/router.hpp"
#include "tensor/tensor.hpp"

namespace bcop::serve {

struct TieredConfig {
  /// Fleet shape of the M = 1 fast tier (replica count, batcher, pinning).
  RouterConfig low;
  /// Fleet shape of the escalation tier. Typically fewer replicas: only
  /// the low-margin fraction of traffic lands here.
  RouterConfig high;
  /// Escalate when the low-tier softmax margin (top1 - top2, in [0, 1])
  /// is BELOW this. 0 never escalates; anything > 1 always escalates.
  float margin_threshold = 0.25f;
  /// Residual level cap for the fast tier (Predictor::set_serve_levels).
  std::int64_t low_levels = 1;
  /// Level cap for the escalation tier; 0 = every trained level.
  std::int64_t high_levels = 0;
  /// Watermark handed to the high tier's try_submit during escalation
  /// (-1 = queue capacity alone; 0 sheds every escalation, which makes
  /// the degrade-to-low path deterministic in tests).
  std::int64_t high_max_depth = -1;
  /// Worker tasks that chain low-tier completions into escalations. 0 =
  /// resolve inline on the submitting thread: try_submit blocks until the
  /// request's chain has resolved (deterministic, for tests).
  unsigned escalation_workers = 1;
};

class TieredRouter {
 public:
  /// Clones `prototype` once per tier (the clones, and each tier's
  /// per-replica clones of them, carry the tier's level cap). The
  /// prototype is only read during construction and hot swaps.
  TieredRouter(const core::Predictor& prototype, TieredConfig config);
  /// Waits for in-flight escalation chains, then tears the tiers down
  /// (each Router drains its replicas; accepted futures resolve).
  ~TieredRouter();

  TieredRouter(const TieredRouter&) = delete;
  TieredRouter& operator=(const TieredRouter&) = delete;

  /// Non-blocking admission into the low tier. nullopt = low-tier shed
  /// (client 503; the rejection ledger was kept by the low fleet). An
  /// accepted future resolves with either the low result (wide margin, or
  /// high tier shed the escalation) or the high-depth result. `max_depth`
  /// is the low tier's per-replica watermark.
  std::optional<std::future<core::Predictor::Result>> try_submit(
      tensor::Tensor image, std::int64_t max_depth = -1);

  Router& low() { return *low_; }
  Router& high() { return *high_; }
  const Router& low() const { return *low_; }
  const Router& high() const { return *high_; }
  const TieredConfig& config() const { return config_; }

 private:
  struct Metrics;
  /// One in-flight request's state, shared between the submit call and
  /// the escalation task (std::function requires copyable callables, so
  /// the move-only promise/future live behind a shared_ptr).
  struct Escalation;

  const TieredConfig config_;
  /// Tier prototypes: replicate()d from the caller's model with the
  /// tier's serve-level cap applied; each Router replicates them again
  /// per replica. Declared before the Routers, which hold references.
  core::Predictor low_proto_;
  core::Predictor high_proto_;
  std::unique_ptr<Router> low_;
  std::unique_ptr<Router> high_;
  /// Chains low-tier futures into margin checks and escalations (repo
  /// rule R2: all concurrency via parallel::ThreadPool). Declared last:
  /// destroyed first, after ~TieredRouter has waited it idle.
  parallel::ThreadPool escalators_;
};

}  // namespace bcop::serve
