// Plan interpreter. ALLOCATION-FREE ZONE: this file must not construct
// Tensor/BitMatrix/std::vector or call new/malloc -- every buffer is a
// Workspace arena slice at a plan-frozen offset, scratch lives in
// fixed-size stack tiles, and parallel fan-out uses ThreadPool::for_chunks
// (function pointer + context). Enforced by lint rule R6 and measured by
// tests/test_zero_alloc.cpp.
#include "xnor/exec.hpp"

#include "parallel/thread_pool.hpp"
#include "tensor/bit_span.hpp"
#include "tensor/kernels/kernel_api.hpp"
#include "util/check.hpp"
#include "xnor/exec_residual.hpp"

#if BCOP_OBS
// Telemetry is allowed in this file because recording is atomics-only:
// obs::LatencyHistogram::record and obs::now_ns never lock or allocate
// (rule R7 lints the record-path header for exactly that).
#include "obs/metrics.hpp"
#include "obs/stage_profiler.hpp"
#endif

namespace bcop::xnor::detail {

using parallel::ThreadPool;
using tensor::BitSpan;
using tensor::ConstBitSpan;

namespace {

// ---- Plan-frozen kernel replay (GEMM / thresholds / im2row). ----
//
// The kernel bodies live in src/tensor/kernels/ (scalar + SIMD tiers);
// compile() froze one tier's chunk pointers and a fan-out width into
// every step. Replay is a ctx fill plus a pool fan-out capped at that
// width (1 runs inline) -- no tier branch, no dispatch lookup.

void run_gemm(const PlanStep& st, ConstBitSpan a, const std::uint64_t* bt,
              std::int32_t* acc) {
  tensor::kernels::GemmCtx ctx{a, bt, st.co, acc};
  ThreadPool::global().for_chunks(0, a.rows, st.gemm_fn, &ctx, st.width);
}

void fire_thresholds(const PlanStep& st, const std::int32_t* acc,
                     const PreparedThresholds& prep, BitSpan out) {
  tensor::kernels::ThreshCtx ctx{acc, prep.thr.data(), prep.inv.data(), out};
  ThreadPool::global().for_chunks(0, out.rows, st.thresh_fn, &ctx, st.width);
}

void run_im2row(const PlanStep& st, ConstBitSpan pixels, BitSpan rows) {
  // Geometry was validated when the plan was compiled, so the frozen chunk
  // function is driven directly (the tensor::bit_im2row wrapper would
  // re-check and re-resolve the dispatch tier on every replay).
  tensor::kernels::Im2RowCtx ctx{pixels, rows, st.h,  st.w,
                                 st.c,   st.k, st.ho, st.wo};
  ThreadPool::global().for_chunks(0, rows.rows, st.im2row_fn, &ctx, st.width);
}

}  // namespace

void execute(const ExecutionPlan& plan, const float* input, Workspace& ws,
             float* out) {
  BCOP_CHECK(ws.capacity() >= plan.arena_bytes(),
             "workspace holds %zu bytes but the plan needs %zu -- call "
             "Workspace::prepare(plan) first",
             ws.capacity(), plan.arena_bytes());
  std::byte* base = ws.base();
  std::uint64_t* half[2] = {
      reinterpret_cast<std::uint64_t*>(base + plan.half_offset(0)),
      reinterpret_cast<std::uint64_t*>(base + plan.half_offset(1))};
  std::uint64_t* patch =
      reinterpret_cast<std::uint64_t*>(base + plan.patch_offset());
  std::int32_t* acc = reinterpret_cast<std::int32_t*>(base + plan.acc_offset());
  std::int32_t* acc2 =
      reinterpret_cast<std::int32_t*>(base + plan.acc2_offset());
  std::int16_t* codes =
      reinterpret_cast<std::int16_t*>(base + plan.codes_offset());

#if BCOP_OBS
  // One flag read per replay; when recording, each step adds two clock
  // reads and one relaxed fetch_add -- measured at < 1% of the replay
  // (docs/observability.md), far below the coarse step kernels it brackets.
  const obs::StageSlots* slots = plan.obs_slots();
  const bool profile = slots != nullptr && obs::StageProfiler::global().enabled();
  const std::uint64_t t_exec = profile ? obs::now_ns() : 0;
  if (profile) slots->replays->add(1);
#endif

  for (const PlanStep& st : plan.steps()) {
    const ConstBitSpan src =
        st.src_half >= 0
            ? ConstBitSpan{half[st.src_half], st.in_rows, st.in_cols, st.in_wpr}
            : ConstBitSpan{};
    const BitSpan dst =
        st.dst_half >= 0
            ? BitSpan{half[st.dst_half], st.out_rows, st.out_cols, st.out_wpr}
            : BitSpan{};
#if BCOP_OBS
    const std::uint64_t t_step = profile ? obs::now_ns() : 0;
#endif
    switch (st.kind) {
      case StepKind::kFirstConv: {
        // Integer pixel codes (pixel_code: the one quantizer the pipeline
        // shares), then the tier's conv kernel fires every threshold bank
        // in registers straight into the output planes.
        const std::int64_t numel = st.n * st.h * st.w * st.c;
        for (std::int64_t j = 0; j < numel; ++j)
          codes[j] = pixel_code(input[j]);
        for (std::int64_t j = 0; j < tensor::kernels::kFirstConvCodeSlack; ++j)
          codes[numel + j] = 0;
        tensor::kernels::FirstConvCtx ctx{};
        ctx.codes = codes;
        ctx.wts = plan.first_conv_weights();
        bind_banks(plan, st, ctx.thr, ctx.inv);
        ctx.dst = half[st.dst_half];
        ctx.h = st.h;
        ctx.w = st.w;
        ctx.c = st.c;
        ctx.k = st.k;
        ctx.co = st.co;
        ctx.ho = st.ho;
        ctx.wo = st.wo;
        ctx.wpr = st.out_wpr;
        ctx.plane_words = st.out_rows * st.out_wpr;
        ctx.levels = st.levels_out;
        ThreadPool::global().for_chunks(0, st.out_rows, st.first_conv_fn, &ctx,
                                        st.width);
        break;
      }
      case StepKind::kPackInput:
        tensor::pack_rows(input, st.out_rows, st.out_cols, dst);
        break;
      case StepKind::kBinConv: {
        if (st.levels_in > 1 || st.in_scaled || st.levels_out > 1) {
          // Residual stream on either side: multi-pass scaled GEMM and/or
          // pattern-bank firing (exec_residual.cpp). The classic path
          // below stays untouched for single-plane unscaled streams.
          residual_gemm(plan, st, half[st.src_half], patch, acc, acc2);
          if (st.levels_out == 1)
            fire_thresholds(st, acc, plan.prep(st.prep), dst);
          else
            residual_fire(plan, st, acc, half[st.dst_half]);
          break;
        }
        const BitSpan rows{patch, st.patch_rows, st.patch_cols, st.patch_wpr};
#if BCOP_OBS
        // Sub-phase split of the conv step: where does a binary conv
        // spend its time -- patch gather, XNOR GEMM, or threshold firing.
        const std::uint64_t ta = profile ? obs::now_ns() : 0;
        run_im2row(st, src, rows);
        const std::uint64_t tb = profile ? obs::now_ns() : 0;
        run_gemm(st, rows, plan.wmat(st.wmat), acc);
        const std::uint64_t tc = profile ? obs::now_ns() : 0;
        fire_thresholds(st, acc, plan.prep(st.prep), dst);
        if (profile) {
          const std::uint64_t td = obs::now_ns();
          slots->slot_ns[kObsSlotIm2row]->record(tb - ta);
          slots->slot_ns[kObsSlotGemm]->record(tc - tb);
          slots->slot_ns[kObsSlotThresholds]->record(td - tc);
        }
#else
        run_im2row(st, src, rows);
        run_gemm(st, rows, plan.wmat(st.wmat), acc);
        fire_thresholds(st, acc, plan.prep(st.prep), dst);
#endif
        break;
      }
      case StepKind::kPool:
        if (st.levels_in == 1)
          tensor::pool2_bits(src, st.n, st.h, st.w, dst, st.width);
        else
          residual_pool(st, half[st.src_half], half[st.dst_half]);
        break;
      case StepKind::kFlatten:
        // Flatten is a per-plane bit permutation, so the residual case is
        // the classic kernel replayed once per plane at shifted bases.
        for (std::int64_t m = 0; m < st.levels_in; ++m) {
          const ConstBitSpan s{half[st.src_half] + m * st.in_rows * st.in_wpr,
                               st.in_rows, st.in_cols, st.in_wpr};
          const BitSpan d{half[st.dst_half] + m * st.out_rows * st.out_wpr,
                          st.out_rows, st.out_cols, st.out_wpr};
          tensor::flatten_pixels(s, st.n, st.h * st.w, st.c, d, st.width);
        }
        break;
      case StepKind::kBinDense:
        if (st.levels_in > 1 || st.in_scaled || st.levels_out > 1) {
          residual_gemm(plan, st, half[st.src_half], nullptr, acc, acc2);
          if (st.levels_out == 1)
            fire_thresholds(st, acc, plan.prep(st.prep), dst);
          else
            residual_fire(plan, st, acc, half[st.dst_half]);
          break;
        }
        run_gemm(st, src, plan.wmat(st.wmat), acc);
        fire_thresholds(st, acc, plan.prep(st.prep), dst);
        break;
      case StepKind::kLogits:
        if (st.levels_in > 1 || st.in_scaled) {
          // A = 256 * y for scaled inputs; out_scale (1/256) undoes it
          // exactly -- every logit is a multiple of 2^-8 far below 2^24.
          residual_gemm(plan, st, half[st.src_half], nullptr, acc, acc2);
          for (std::int64_t j = 0; j < st.acc_len; ++j)
            out[j] = static_cast<float>(acc[j]) * st.out_scale;
          break;
        }
        run_gemm(st, src, plan.wmat(st.wmat), acc);
        for (std::int64_t j = 0; j < st.acc_len; ++j)
          out[j] = static_cast<float>(acc[j]);
        break;
      case StepKind::kUnpack:
        if (st.levels_in == 1 && !st.in_scaled) {
          for (std::int64_t r = 0; r < st.in_rows; ++r) {
            const std::uint64_t* row = src.row(r);
            float* o = out + r * st.in_cols;
            for (std::int64_t j = 0; j < st.in_cols; ++j)
              o[j] = ((row[j >> 6] >> (j & 63)) & 1ull) ? 1.f : -1.f;
          }
        } else {
          // Residual reconstruction: sum of signed per-plane values
          // g_m/256 (exact dyadic floats, any summation order).
          for (std::int64_t r = 0; r < st.in_rows; ++r) {
            float* o = out + r * st.in_cols;
            for (std::int64_t j = 0; j < st.in_cols; ++j) o[j] = 0.f;
            for (std::int64_t m = 0; m < st.levels_in; ++m) {
              const std::uint64_t* row = half[st.src_half] +
                                         m * st.in_rows * st.in_wpr +
                                         r * st.in_wpr;
              const float q =
                  static_cast<float>(st.in_scale_bits[m]) * (1.f / 256.f);
              for (std::int64_t j = 0; j < st.in_cols; ++j)
                o[j] += ((row[j >> 6] >> (j & 63)) & 1ull) ? q : -q;
            }
          }
        }
        break;
    }
#if BCOP_OBS
    if (profile)
      slots->slot_ns[static_cast<int>(st.kind)]->record(obs::now_ns() -
                                                        t_step);
#endif
  }
#if BCOP_OBS
  if (profile)
    slots->slot_ns[kObsSlotExecute]->record(obs::now_ns() - t_exec);
#endif
}

}  // namespace bcop::xnor::detail
