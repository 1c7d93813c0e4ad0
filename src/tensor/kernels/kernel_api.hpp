// Kernel dispatch vocabulary for the bit-domain hot path.
//
// The kernels the plan interpreter spends its cycles in -- popcount GEMM,
// packed threshold firing, bit-im2row and the integer first conv -- exist
// in per-ISA tiers
// (scalar reference, AVX2, AVX-512 VPOPCNTDQ). Each tier exports one
// KernelTable of chunk functions; runtime CPUID detection picks the best
// table once (src/tensor/kernels/dispatch.cpp) and ExecutionPlan::compile
// freezes the chosen function pointers into every plan step, so the
// interpreter replay stays branch-free: it calls whatever pointer the plan
// recorded, never re-detects, never switches.
//
// Every chunk function in every tier is allocation-free, lock-free and
// throw-free by contract -- the tiers are audited at the object level by
// scripts/audit_hot_path.py exactly like the interpreter TU, and rules
// R6/R9 lint the sources. Chunk functions share the ThreadPool::ChunkFn
// shape (void* context + [lo, hi) range) so ThreadPool::for_chunks can fan
// them out with no adapter.
//
// All tiers compute bit-identical results: the arithmetic is integral
// (popcounts, int16 x int16 -> int32 products, compares, shifts), so the
// differential suite
// (tests/test_kernel_dispatch.cpp) asserts exact equality against the
// scalar reference on dirty buffers.
#pragma once

#include <cstdint>

#include "tensor/bit_span.hpp"

namespace bcop::tensor::kernels {

/// Dispatch tiers, ordered worst to best. The numeric order matters:
/// dispatch clamps a requested tier down to the best available one.
enum class KernelLevel : std::uint8_t {
  kScalar = 0,  // portable reference (autovectorized via `#pragma omp simd`)
  kAvx2 = 1,    // AVX2, Harley-Seal + vpshufb-nibble popcount
  kAvx512 = 2,  // AVX-512F/BW + VPOPCNTDQ hardware popcount
};
inline constexpr int kKernelLevelCount = 3;

/// Chunk function: body of a ThreadPool::for_chunks fan-out. Matches
/// parallel::ThreadPool::ChunkFn (static_asserted where the two meet) so
/// tables plug into the pool without any trampoline.
using KernelFn = void (*)(void* ctx, std::int64_t lo, std::int64_t hi);

/// Context for the popcount GEMM chunk: C[M, n] (int32, plus-minus-one
/// semantics) = A[M, K] x B[n, K]^T where `bt` is the word-major
/// pre-transposed packed weight matrix (tensor::transpose_word_major).
/// Chunks range over rows of A.
struct GemmCtx {
  ConstBitSpan a;
  const std::uint64_t* bt;
  std::int64_t n;
  std::int32_t* c;
};

/// Context for packed threshold firing: int32 accumulators -> packed sign
/// bits via the branch-free (acc >= thr) ^ inv compare per channel
/// (xnor::PreparedThresholds layout). Chunks range over output rows.
struct ThreshCtx {
  const std::int32_t* acc;
  const std::int32_t* thr;  // out.cols entries
  const std::int32_t* inv;  // out.cols entries, 0 or 1
  BitSpan out;
};

/// Context for bit-domain im2row: pixel-major packed activations
/// [N*H*W, C] -> packed patch rows [N*Ho*Wo, K*K*C]. Chunks range over
/// patch rows. OR-based (unaligned) paths must zero each destination row
/// first -- patch rows live in a reused arena.
struct Im2RowCtx {
  ConstBitSpan pixels;
  BitSpan rows;
  std::int64_t h, w, c, k, ho, wo;
};

/// Context for the integer first conv: int16 pixel codes (NHWC, followed
/// by kFirstConvCodeSlack zero codes) times packed +-1 int16 weights
/// (pack_first_conv_weights layout) into int32 accumulators that never
/// leave registers. Each output pixel fires straight into `levels` packed
/// planes at `dst` (plane m at word offset m * plane_words, wpr words per
/// row): levels == 1 compares against bank 0 (thr[0]/inv[0], the
/// PreparedThresholds form); levels > 1 walks the ReBNet pattern banks --
/// level m fires from bank (1 << m) - 1 + pattern, where bit j of the
/// pattern is the sign level j produced (docs/residual-binarization.md).
/// Full-word stores keep slack bits beyond `co` zero on reused arena rows.
/// Chunks range over output pixel rows (N*Ho*Wo). Exact: |codes| <= 255,
/// so |acc| <= K*K*C*255, far below 2^31.
struct FirstConvCtx {
  const std::int16_t* codes;
  const std::int16_t* wts;
  const std::int32_t* thr[7];  // co entries per bank
  const std::int32_t* inv[7];  // co entries per bank, 0 or 1
  std::uint64_t* dst;
  std::int64_t h, w, c, k, co, ho, wo;
  std::int64_t wpr, plane_words, levels;
};

/// Weight layout of the first conv, shared by every tier: per kernel row
/// ky, the k*c taps of that row are paired (tap 2q, tap 2q+1) and each
/// pair holds the co channels padded to kFirstConvLanes, so one vector
/// load feeds a vpmaddwd against a broadcast code pair. Index of tap i of
/// row ky, channel j:
///   ((ky * pairs + i / 2) * co_pad + j) * 2 + (i & 1).
/// The odd row's pad tap and the pad channels hold 0, so they add nothing;
/// the pad tap's code read is the next pixel's first code, or -- past the
/// last pixel -- one of the kFirstConvCodeSlack codes after the input.
inline constexpr std::int64_t kFirstConvLanes = 16;
inline constexpr std::int64_t kFirstConvCodeSlack = 2;

inline std::int64_t first_conv_pairs(std::int64_t k, std::int64_t c) {
  return (k * c + 1) / 2;
}
inline std::int64_t first_conv_co_pad(std::int64_t co) {
  return (co + kFirstConvLanes - 1) / kFirstConvLanes * kFirstConvLanes;
}
inline std::int64_t first_conv_weight_len(std::int64_t k, std::int64_t c,
                                          std::int64_t co) {
  return k * first_conv_pairs(k, c) * first_conv_co_pad(co) * 2;
}

/// Pack {-1,+1} float weights [K*K*C, Co] (row-major, tap t = (ky*k + kx)
/// * c + ci) into the layout above; `out` holds first_conv_weight_len
/// entries. Any non-negative weight packs as +1.
inline void pack_first_conv_weights(const float* w, std::int64_t k,
                                    std::int64_t c, std::int64_t co,
                                    std::int16_t* out) {
  const std::int64_t pairs = first_conv_pairs(k, c), kc = k * c;
  const std::int64_t co_pad = first_conv_co_pad(co);
  for (std::int64_t i = 0; i < first_conv_weight_len(k, c, co); ++i)
    out[i] = 0;
  for (std::int64_t ky = 0; ky < k; ++ky)
    for (std::int64_t i = 0; i < kc; ++i)
      for (std::int64_t j = 0; j < co; ++j)
        out[((ky * pairs + i / 2) * co_pad + j) * 2 + (i & 1)] =
            w[(ky * kc + i) * co + j] >= 0.f ? 1 : -1;
}

/// One tier's kernel set. Tables are static-storage constants inside each
/// tier TU; a KernelTable pointer stays valid for the process lifetime, so
/// plans may cache the individual function pointers.
struct KernelTable {
  KernelLevel level;
  KernelFn gemm;    // GemmCtx
  KernelFn thresh;  // ThreshCtx
  KernelFn im2row;  // Im2RowCtx
  KernelFn first_conv;  // FirstConvCtx
};

}  // namespace bcop::tensor::kernels
