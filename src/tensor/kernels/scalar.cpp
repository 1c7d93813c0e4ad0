// Scalar reference kernels. ALLOCATION-FREE ZONE: like every kernel tier,
// this TU must not allocate, lock or throw -- scratch lives in fixed-size
// stack tiles and contract failures abort through BCOP_CHECK. Enforced by
// lint rules R6/R9 and the binary-level audit (scripts/audit_hot_path.py).
#include "tensor/kernels/scalar.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "tensor/bit_tensor.hpp"

namespace bcop::tensor::kernels {

namespace {

void gemm_chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const GemmCtx& g = *static_cast<const GemmCtx*>(raw);
  const std::int64_t N = g.n, K = g.a.cols;
  const std::int64_t words = g.a.wpr, pad = g.a.pad();
  // Popcount accumulators live in a fixed stack tile: the weight-row
  // dimension is walked kTile lanes at a time, each sweep streaming every
  // activation word once. 256 lanes keep the tile inside L1 while leaving
  // the inner loop wide enough to vectorize (see binary_gemm for the
  // word-major layout rationale).
  constexpr std::int64_t kTile = 256;
  std::int64_t pop[kTile];
  for (std::int64_t i = lo; i < hi; ++i) {
    const std::uint64_t* ai = g.a.row(i);
    std::int32_t* ci = g.c + i * N;
    for (std::int64_t j0 = 0; j0 < N; j0 += kTile) {
      const std::int64_t jn = std::min(kTile, N - j0);
#pragma omp simd
      for (std::int64_t j = 0; j < jn; ++j) pop[j] = 0;
      for (std::int64_t w = 0; w < words; ++w) {
        const std::uint64_t av = ai[w];
        const std::uint64_t* btw = g.bt + w * N + j0;
#pragma omp simd
        for (std::int64_t j = 0; j < jn; ++j)
          pop[j] += std::popcount(~(av ^ btw[j]));
      }
#pragma omp simd
      for (std::int64_t j = 0; j < jn; ++j)
        ci[j0 + j] = static_cast<std::int32_t>(2 * (pop[j] - pad) - K);
    }
  }
}

void thresh_chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const ThreshCtx& t = *static_cast<const ThreshCtx*>(raw);
  const std::int64_t C = t.out.cols, wpr = t.out.wpr;
  for (std::int64_t r = lo; r < hi; ++r) {
    const std::int32_t* a = t.acc + r * C;
    std::uint64_t* w = t.out.row(r);
    // Branch-free compare mask per 64-channel word (see
    // PreparedThresholds); per-channel fire() branches cost more than the
    // XNOR GEMM itself.
    for (std::int64_t word = 0; word < wpr; ++word) {
      const std::int64_t base = word * 64;
      const std::int64_t nb = std::min<std::int64_t>(64, C - base);
      const std::int32_t* ab = a + base;
      const std::int32_t* tp = t.thr + base;
      const std::int32_t* ip = t.inv + base;
      std::uint64_t bits = 0;
#pragma omp simd reduction(| : bits)
      for (std::int64_t i = 0; i < nb; ++i)
        bits |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                    (ab[i] >= tp[i]) ^ ip[i]))
                << i;
      w[word] = bits;
    }
  }
}

void im2row_chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const Im2RowCtx& t = *static_cast<const Im2RowCtx*>(raw);
  const std::int64_t h = t.h, w = t.w, c = t.c, k = t.k;
  const std::int64_t ho = t.ho, wo = t.wo;
  const std::int64_t wpp = t.pixels.wpr;
  const bool aligned = (c % 64) == 0;
  for (std::int64_t r = lo; r < hi; ++r) {
    const std::int64_t img = r / (ho * wo);
    const std::int64_t rem = r - img * ho * wo;
    const std::int64_t y = rem / wo, x = rem - y * wo;
    std::uint64_t* dst = t.rows.row(r);
    // The OR-based paths rely on zero destination bits; arena rows carry
    // stale state, so clear the whole row first (aligned rows are fully
    // overwritten by the memcpy below and skip this).
    if (!aligned)
      std::memset(dst, 0, static_cast<std::size_t>(t.rows.wpr) *
                              sizeof(std::uint64_t));
    for (std::int64_t ky = 0; ky < k; ++ky) {
      // The k pixels of one kernel row are adjacent along x, so their
      // packed fields are consecutive rows of `pixels`.
      const std::int64_t p = ((img * h) + y + ky) * w + x;
      if (aligned) {
        std::memcpy(dst + (ky * k * c) / 64, t.pixels.row(p),
                    static_cast<std::size_t>(k * wpp) * sizeof(std::uint64_t));
      } else if (c < 64) {
        // Single-word fields: inline the append (the call + multi-word
        // generality of append_bits costs more than the OR itself).
        const std::uint64_t* src = t.pixels.row(p);
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::uint64_t v = src[kx * wpp];
          const std::int64_t off = (ky * k + kx) * c;
          const std::int64_t sh = off & 63;
          std::uint64_t* d = dst + (off >> 6);
          d[0] |= v << sh;
          if (sh + c > 64) d[1] |= v >> (64 - sh);
        }
      } else {
        for (std::int64_t kx = 0; kx < k; ++kx)
          append_bits(dst, (ky * k + kx) * c, t.pixels.row(p + kx), c);
      }
    }
  }
}

void first_conv_chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const FirstConvCtx& t = *static_cast<const FirstConvCtx*>(raw);
  const std::int64_t w = t.w, c = t.c, k = t.k, co = t.co;
  const std::int64_t ho = t.ho, wo = t.wo, kc = k * c;
  const std::int64_t pairs = first_conv_pairs(k, c);
  const std::int64_t co_pad = first_conv_co_pad(co);
  // One 64-channel output word at a time: its accumulators live in a
  // fixed stack tile, whatever co is.
  std::int32_t acc[64];
  for (std::int64_t r = lo; r < hi; ++r) {
    const std::int64_t img = r / (ho * wo);
    const std::int64_t rem = r - img * ho * wo;
    const std::int64_t y = rem / wo, x = rem - y * wo;
    for (std::int64_t wd = 0; wd < t.wpr; ++wd) {
      const std::int64_t j0 = wd * 64;
      const std::int64_t nb = std::min<std::int64_t>(64, co - j0);
      for (std::int64_t j = 0; j < nb; ++j) acc[j] = 0;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int16_t* a = t.codes + ((img * t.h + y + ky) * w + x) * c;
        const std::int16_t* wk = t.wts + (ky * pairs * co_pad + j0) * 2;
        for (std::int64_t q = 0; q < pairs; ++q) {
          // Tap pair (2q, 2q+1); an odd row's last pair has one tap.
          const std::int32_t a0 = a[2 * q];
          const std::int32_t a1 = 2 * q + 1 < kc ? a[2 * q + 1] : 0;
          const std::int16_t* wq = wk + q * co_pad * 2;
#pragma omp simd
          for (std::int64_t j = 0; j < nb; ++j)
            acc[j] += a0 * wq[2 * j] + a1 * wq[2 * j + 1];
        }
      }
      // The pattern-bank walk of residual firing; levels == 1 is the
      // classic (acc >= thr) ^ inv compare against bank 0.
      std::uint64_t bits[3] = {0, 0, 0};
      for (std::int64_t i = 0; i < nb; ++i) {
        const std::int64_t ch = j0 + i;
        std::uint32_t pat = 0;
        for (std::int64_t m = 0; m < t.levels; ++m) {
          const std::int64_t bank = (std::int64_t{1} << m) - 1 + pat;
          const std::uint32_t b =
              static_cast<std::uint32_t>(acc[i] >= t.thr[bank][ch]) ^
              static_cast<std::uint32_t>(t.inv[bank][ch]);
          bits[m] |= static_cast<std::uint64_t>(b) << i;
          pat |= b << m;
        }
      }
      for (std::int64_t m = 0; m < t.levels; ++m)
        t.dst[m * t.plane_words + r * t.wpr + wd] = bits[m];
    }
  }
}

constexpr KernelTable kScalarTable{KernelLevel::kScalar, &gemm_chunk,
                                   &thresh_chunk, &im2row_chunk,
                                   &first_conv_chunk};

}  // namespace

const KernelTable& scalar_table() { return kScalarTable; }

}  // namespace bcop::tensor::kernels
