// Residual-binarization interpreter steps. ALLOCATION-FREE ZONE: same
// contract as exec.cpp -- no Tensor/BitMatrix/std::vector construction, no
// new/malloc; buffers are Workspace arena slices at plan-frozen offsets,
// scratch is fixed-size stack tiles, fan-out is ThreadPool::for_chunks
// capped at the step's plan-frozen width.
// Enforced by lint rule R6 and scripts/audit_hot_path.py, measured by
// tests/test_zero_alloc.cpp (M > 1 plans included).
#include "xnor/exec_residual.hpp"

#include <algorithm>
#include <cstdint>

#include "parallel/thread_pool.hpp"
#include "tensor/bit_span.hpp"
#include "tensor/kernels/kernel_api.hpp"
#include "util/check.hpp"

namespace bcop::xnor::detail {

using parallel::ThreadPool;
using tensor::BitSpan;
using tensor::ConstBitSpan;

namespace {

// ---- Scaled accumulate: acc (+)= g * acc2, chunked over the int32
// accumulator length. `first` overwrites so the arena needs no zeroing. ----

struct ScaleAccCtx {
  std::int32_t* acc;
  const std::int32_t* acc2;
  std::int32_t g;
  std::int32_t first;
};

void scale_acc_chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const ScaleAccCtx& t = *static_cast<const ScaleAccCtx*>(raw);
  std::int32_t* acc = t.acc;
  const std::int32_t* acc2 = t.acc2;
  const std::int32_t g = t.g;
  if (t.first) {
#pragma omp simd
    for (std::int64_t i = lo; i < hi; ++i) acc[i] = g * acc2[i];
  } else {
#pragma omp simd
    for (std::int64_t i = lo; i < hi; ++i) acc[i] += g * acc2[i];
  }
}

// ---- Pattern-bank threshold firing: int32 accumulators -> levels_out
// packed planes. Chunks range over output rows. ----

struct ResidualFireCtx {
  const std::int32_t* acc;
  const std::int32_t* thr[7];  // bank b = (1 << m) - 1 + pattern
  const std::int32_t* inv[7];
  std::uint64_t* dst;  // plane-0 base
  std::int64_t cols, wpr, plane_words, levels;
};

void residual_fire_chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const ResidualFireCtx& t = *static_cast<const ResidualFireCtx*>(raw);
  const std::int64_t cols = t.cols, wpr = t.wpr, levels = t.levels;
  for (std::int64_t r = lo; r < hi; ++r) {
    const std::int32_t* arow = t.acc + r * cols;
    for (std::int64_t wd = 0; wd < wpr; ++wd) {
      const std::int64_t nb = std::min<std::int64_t>(64, cols - wd * 64);
      std::uint64_t bits[3] = {0, 0, 0};
      for (std::int64_t i = 0; i < nb; ++i) {
        const std::int64_t ch = wd * 64 + i;
        const std::int32_t a = arow[ch];
        std::uint32_t pat = 0;
        for (std::int64_t m = 0; m < levels; ++m) {
          const std::int64_t bank = (std::int64_t{1} << m) - 1 + pat;
          const std::uint32_t b =
              static_cast<std::uint32_t>(a >= t.thr[bank][ch]) ^
              static_cast<std::uint32_t>(t.inv[bank][ch]);
          bits[m] |= static_cast<std::uint64_t>(b) << i;
          pat |= b << m;
        }
      }
      // Full-word stores: slack bits beyond `cols` come out zero, keeping
      // the trailing-bits invariant on reused arena rows.
      for (std::int64_t m = 0; m < levels; ++m)
        t.dst[m * t.plane_words + r * wpr + wd] = bits[m];
    }
  }
}

// ---- Lexicographic masked-OR pool. Chunks range over output pixel rows
// (same geometry as tensor::pool2_bits). ----

struct ResidualPoolCtx {
  const std::uint64_t* src;  // plane-0 base
  std::uint64_t* dst;        // plane-0 base
  std::int64_t h, w, ho, wo, wpr, in_plane, out_plane, levels;
};

void residual_pool_chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const ResidualPoolCtx& t = *static_cast<const ResidualPoolCtx*>(raw);
  const std::int64_t w = t.w, ho = t.ho, wo = t.wo, wpr = t.wpr;
  for (std::int64_t r = lo; r < hi; ++r) {
    const std::int64_t img = r / (ho * wo);
    const std::int64_t rem = r - img * ho * wo;
    const std::int64_t yy = rem / wo, xx = rem - yy * wo;
    const std::int64_t base = (((img * t.h) + 2 * yy) * w + 2 * xx) * wpr;
    const std::uint64_t* pa = t.src + base;
    const std::uint64_t* pb = pa + wpr;
    const std::uint64_t* pc = pa + w * wpr;
    const std::uint64_t* pd = pc + wpr;
    std::uint64_t* out = t.dst + r * wpr;
    for (std::int64_t wd = 0; wd < wpr; ++wd) {
      // Plane 0: the max of {-1,+1} values is the boolean OR, exactly the
      // classic pool. Deeper planes only matter where candidates tie.
      const std::uint64_t a0 = pa[wd], b0 = pb[wd], c0 = pc[wd], d0 = pd[wd];
      std::uint64_t o = a0 | b0 | c0 | d0;
      out[wd] = o;
      // A candidate stays "maximal so far" while its bit matches the
      // output bit on every level seen; dominance of the dyadic scale
      // grid (g_m > sum of deeper scales) makes lexicographic order the
      // value order. Slack bits are zero in every candidate, so the
      // output slack stays zero through every level.
      std::uint64_t ma = ~(a0 ^ o), mb = ~(b0 ^ o);
      std::uint64_t mc = ~(c0 ^ o), md = ~(d0 ^ o);
      for (std::int64_t m = 1; m < t.levels; ++m) {
        const std::int64_t off = m * t.in_plane + wd;
        const std::uint64_t am = pa[off], bm = pb[off];
        const std::uint64_t cm = pc[off], dm = pd[off];
        o = (am & ma) | (bm & mb) | (cm & mc) | (dm & md);
        t.dst[m * t.out_plane + r * wpr + wd] = o;
        ma &= ~(am ^ o);
        mb &= ~(bm ^ o);
        mc &= ~(cm ^ o);
        md &= ~(dm ^ o);
      }
    }
  }
}

}  // namespace

void residual_gemm(const ExecutionPlan& plan, const PlanStep& st,
                   const std::uint64_t* src, std::uint64_t* patch,
                   std::int32_t* acc, std::int32_t* acc2) {
  const bool conv = st.kind == StepKind::kBinConv;
  const std::uint64_t* bt = plan.wmat(st.wmat);
  const std::int64_t plane_words = st.in_rows * st.in_wpr;
  const std::int64_t passes = st.in_scaled ? st.levels_in : 1;
  std::int32_t* target = st.in_scaled ? acc2 : acc;
  for (std::int64_t m = 0; m < passes; ++m) {
    ConstBitSpan a{src + m * plane_words, st.in_rows, st.in_cols, st.in_wpr};
    if (conv) {
      BitSpan rows{patch, st.patch_rows, st.patch_cols, st.patch_wpr};
      tensor::kernels::Im2RowCtx ictx{a,    rows, st.h,  st.w,
                                      st.c, st.k, st.ho, st.wo};
      ThreadPool::global().for_chunks(0, rows.rows, st.im2row_fn, &ictx,
                                      st.width);
      a = ConstBitSpan{patch, st.patch_rows, st.patch_cols, st.patch_wpr};
    }
    tensor::kernels::GemmCtx gctx{a, bt, st.co, target};
    ThreadPool::global().for_chunks(0, a.rows, st.gemm_fn, &gctx, st.width);
    if (st.in_scaled) {
      ScaleAccCtx sctx{acc, acc2, st.in_scale_bits[m], m == 0 ? 1 : 0};
      ThreadPool::global().for_chunks(0, st.acc_len, &scale_acc_chunk, &sctx,
                                      st.width);
    }
  }
}

void bind_banks(const ExecutionPlan& plan, const PlanStep& st,
                const std::int32_t* (&thr)[7], const std::int32_t* (&inv)[7]) {
  BCOP_CHECK(st.levels_out >= 1 && st.levels_out <= 3,
             "plan step: levels_out %lld out of [1, 3]",
             static_cast<long long>(st.levels_out));
  const std::int64_t banks = (std::int64_t{1} << st.levels_out) - 1;
  for (std::int64_t b = 0; b < banks; ++b) {
    const PreparedThresholds& p = plan.prep(st.prep + b);
    thr[b] = p.thr.data();
    inv[b] = p.inv.data();
  }
  for (std::int64_t b = banks; b < 7; ++b) thr[b] = inv[b] = nullptr;
}

void residual_fire(const ExecutionPlan& plan, const PlanStep& st,
                   const std::int32_t* acc, std::uint64_t* dst) {
  ResidualFireCtx ctx;
  ctx.acc = acc;
  bind_banks(plan, st, ctx.thr, ctx.inv);
  ctx.dst = dst;
  ctx.cols = st.out_cols;
  ctx.wpr = st.out_wpr;
  ctx.plane_words = st.out_rows * st.out_wpr;
  ctx.levels = st.levels_out;
  ThreadPool::global().for_chunks(0, st.out_rows, &residual_fire_chunk, &ctx,
                                  st.width);
}

void residual_pool(const PlanStep& st, const std::uint64_t* src,
                   std::uint64_t* dst) {
  ResidualPoolCtx ctx{src,
                      dst,
                      st.h,
                      st.w,
                      st.ho,
                      st.wo,
                      st.in_wpr,
                      st.in_rows * st.in_wpr,
                      st.out_rows * st.out_wpr,
                      st.levels_in};
  ThreadPool::global().for_chunks(0, st.out_rows, &residual_pool_chunk, &ctx,
                                  st.width);
}

}  // namespace bcop::xnor::detail
