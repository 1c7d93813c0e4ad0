// The integer first conv (FirstConvCtx) for the SIMD tiers: one
// skeleton, instantiated by each tier with a block type V that holds 16
// output channels in its registers:
//   V::Acc, V::W, V::Bank      accumulators, one tap pair's weights, and
//                              one threshold bank, as register images
//   V::zero()                  cleared accumulators
//   V::load_w(w)               32 packed int16 weights (16 channels x 2)
//   V::madd(acc, pair, w)      acc += code pair . weight pair, per lane
//   V::load_bank(thr, inv)     16 channels of one bank
//   V::fire<L>(acc, banks, lanes, out)
//                              the residual_fire bank walk: out[m] holds
//                              level m's 16 fired bits, masked to `lanes`
//
// Four horizontally adjacent output pixels share every weight load:
// their patches are the same code span shifted by c. Accumulators never
// leave registers; each pixel fires straight into its packed planes.
//
// Every function here is a template on V, so the AVX2 and AVX-512 TUs,
// compiled with different ISA flags, never share an out-of-line body.
// ALLOCATION-FREE, like the tiers that include it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "tensor/kernels/kernel_api.hpp"

namespace bcop::tensor::kernels::first_conv_simd {

/// The thresholds of the last, partial 16-channel block, copied to
/// zero-padded rows so every bank load reads whole vectors without
/// running past a bank. j0 is the block's first channel (co if none).
struct TailBanks {
  std::int64_t j0;
  alignas(64) std::int32_t thr[7][16];
  alignas(64) std::int32_t inv[7][16];
};

/// NP pixels' accumulators for channels [j0, j0 + 16). K = C = 0 reads k
/// and c at run time.
template <class V, int K, int C, int NP>
inline void conv_block(const FirstConvCtx& t, const std::int16_t* base,
                       std::int64_t j0, std::int64_t co_pad,
                       typename V::Acc (&acc)[NP]) {
  const std::int64_t k = K ? K : t.k, c = C ? C : t.c;
  const std::int64_t pairs = first_conv_pairs(k, c);
  for (int p = 0; p < NP; ++p) acc[p] = V::zero();
  const std::int64_t row = t.w * c;
  for (std::int64_t ky = 0; ky < k; ++ky) {
    const std::int16_t* a = base + ky * row;
    const std::int16_t* wk = t.wts + (ky * pairs * co_pad + j0) * 2;
    for (std::int64_t q = 0; q < pairs; ++q) {
      const typename V::W w = V::load_w(wk + q * co_pad * 2);
      for (int p = 0; p < NP; ++p) {
        std::int32_t pair;
        std::memcpy(&pair, a + 2 * q + p * c, sizeof(pair));
        V::madd(acc[p], pair, w);
      }
    }
  }
}

/// Output rows r .. r + NP - 1 (one image row), every word and plane.
template <class V, int K, int C, int NP, int L>
inline void conv_pixels(const FirstConvCtx& t, const TailBanks& tail,
                        const std::int16_t* base, std::int64_t r,
                        std::int64_t co_pad) {
  const std::int64_t co = t.co;
  for (std::int64_t wd = 0; wd < t.wpr; ++wd) {
    std::uint64_t bits[NP][L] = {};
    const std::int64_t jend = std::min<std::int64_t>(co, wd * 64 + 64);
    for (std::int64_t j0 = wd * 64; j0 < jend; j0 += 16) {
      typename V::Acc acc[NP];
      conv_block<V, K, C, NP>(t, base, j0, co_pad, acc);
      const bool partial = j0 == tail.j0;
      typename V::Bank banks[7];
      for (int b = 0; b < (1 << L) - 1; ++b)
        banks[b] = V::load_bank(partial ? tail.thr[b] : t.thr[b] + j0,
                                partial ? tail.inv[b] : t.inv[b] + j0);
      const std::uint32_t lanes = partial ? (1u << (co - j0)) - 1 : 0xffffu;
      for (int p = 0; p < NP; ++p) {
        std::uint32_t out[L];
        V::template fire<L>(acc[p], banks, lanes, out);
        for (int m = 0; m < L; ++m)
          bits[p][m] |= static_cast<std::uint64_t>(out[m]) << (j0 - wd * 64);
      }
    }
    // Full-word stores: slack bits beyond co stay zero.
    for (int p = 0; p < NP; ++p)
      for (int m = 0; m < L; ++m)
        t.dst[m * t.plane_words + (r + p) * t.wpr + wd] = bits[p][m];
  }
}

template <class V, int K, int C, int L>
void rows(const FirstConvCtx& t, std::int64_t lo, std::int64_t hi) {
  const std::int64_t co_pad = first_conv_co_pad(t.co);
  TailBanks tail;
  tail.j0 = t.co % 16 != 0 ? t.co - t.co % 16 : t.co;
  for (int b = 0; b < (1 << L) - 1; ++b)
    for (std::int64_t i = 0; i < 16; ++i) {
      const bool live = tail.j0 + i < t.co;
      tail.thr[b][i] = live ? t.thr[b][tail.j0 + i] : 0;
      tail.inv[b][i] = live ? t.inv[b][tail.j0 + i] : 0;
    }
  // One division at the chunk start; after that the (image, y, x)
  // cursor advances with the pixel groups, which never cross an output
  // row (their patches must stay one contiguous code span).
  const std::int64_t ho = t.ho, wo = t.wo;
  std::int64_t img = lo / (ho * wo);
  std::int64_t y = (lo - img * ho * wo) / wo;
  std::int64_t x = lo - (img * ho + y) * wo;
  for (std::int64_t r = lo; r < hi;) {
    const std::int16_t* base = t.codes + ((img * t.h + y) * t.w + x) * t.c;
    std::int64_t step = 1;
    if (std::min(wo - x, hi - r) >= 4) {
      conv_pixels<V, K, C, 4, L>(t, tail, base, r, co_pad);
      step = 4;
    } else {
      conv_pixels<V, K, C, 1, L>(t, tail, base, r, co_pad);
    }
    r += step;
    x += step;
    if (x == wo) {
      x = 0;
      if (++y == ho) {
        y = 0;
        ++img;
      }
    }
  }
}

template <class V, int K, int C>
void levels(const FirstConvCtx& t, std::int64_t lo, std::int64_t hi) {
  switch (t.levels) {
    case 1: rows<V, K, C, 1>(t, lo, hi); break;
    case 2: rows<V, K, C, 2>(t, lo, hi); break;
    default: rows<V, K, C, 3>(t, lo, hi); break;
  }
}

/// The tier's KernelTable::first_conv. RGB 3x3 -- every BinaryCoP
/// prototype's first layer -- gets compile-time tap-loop bounds.
template <class V>
void chunk(void* raw, std::int64_t lo, std::int64_t hi) {
  const FirstConvCtx& t = *static_cast<const FirstConvCtx*>(raw);
  if (t.k == 3 && t.c == 3)
    levels<V, 3, 3>(t, lo, hi);
  else
    levels<V, 0, 0>(t, lo, hi);
}

}  // namespace bcop::tensor::kernels::first_conv_simd
