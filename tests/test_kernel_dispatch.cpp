// Kernel dispatch tiers (tensor/kernels/): CPUID detection and clamping,
// the override/env parsing, and the differential suite -- every compiled
// SIMD tier must produce bit-identical results to the scalar reference on
// dirty buffers, odd shapes and tail-word (pad) geometry, because the
// arithmetic is integral (popcounts, compares, shifts) with no rounding.
// Runs under the sanitizer matrices via the default `unit` ctest label;
// CI additionally re-runs this binary with BCOP_KERNEL_LEVEL forced to
// scalar and to the best tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "tensor/bit_span.hpp"
#include "tensor/bit_tensor.hpp"
#include "tensor/kernels/avx2.hpp"
#include "tensor/kernels/avx512.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/kernels/scalar.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "xnor/engine.hpp"
#include "xnor/plan.hpp"

#include "core/architecture.hpp"

namespace {

using namespace bcop;
using namespace bcop::tensor;
namespace kn = bcop::tensor::kernels;

/// A span over a deliberately filthy buffer: every word starts ~0ull, so a
/// kernel that fails to re-establish the zero-padding invariant (or skips
/// a destination word) is caught by exact comparison.
struct DirtyBits {
  std::vector<std::uint64_t> storage;
  BitSpan span;
  DirtyBits(std::int64_t rows, std::int64_t cols)
      : storage(static_cast<std::size_t>(rows * words_for_bits(cols)), ~0ull),
        span{storage.data(), rows, cols, words_for_bits(cols)} {}
};

BitMatrix random_bits(std::int64_t rows, std::int64_t cols, util::Rng& rng) {
  BitMatrix m(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      m.set_from_sign(r, c, rng.bernoulli(0.5) ? 1.f : -1.f);
  return m;
}

/// Every tier compiled into this binary AND executable on this CPU.
std::vector<kn::KernelLevel> available_levels() {
  std::vector<kn::KernelLevel> ls;
  for (int i = 0; i < kn::kKernelLevelCount; ++i) {
    const auto lvl = static_cast<kn::KernelLevel>(i);
    if (kn::level_available(lvl)) ls.push_back(lvl);
  }
  return ls;
}

void expect_same_bits(ConstBitSpan got, ConstBitSpan want, const char* tier) {
  ASSERT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.wpr, want.wpr);
  for (std::int64_t r = 0; r < got.rows; ++r)
    for (std::int64_t w = 0; w < got.wpr; ++w)
      ASSERT_EQ(got.row(r)[w], want.row(r)[w])
          << tier << ": row " << r << " word " << w;
}

// --- Detection / override plumbing ----------------------------------------

TEST(KernelDispatch, ScalarIsAlwaysAvailable) {
  EXPECT_TRUE(kn::level_available(kn::KernelLevel::kScalar));
  EXPECT_EQ(kn::scalar_table().level, kn::KernelLevel::kScalar);
  // Detection is cached; two reads must agree.
  EXPECT_EQ(kn::detected_level(), kn::detected_level());
}

TEST(KernelDispatch, TablesMatchTheirAdvertisedLevel) {
  for (const auto lvl : available_levels()) {
    const kn::KernelTable& t = kn::table_for(lvl);
    EXPECT_EQ(t.level, lvl);
    EXPECT_NE(t.gemm, nullptr);
    EXPECT_NE(t.thresh, nullptr);
    EXPECT_NE(t.im2row, nullptr);
    EXPECT_NE(t.first_conv, nullptr);
  }
}

TEST(KernelDispatch, RequestsClampDownNeverUp) {
  // Asking for a better tier than the host has must yield the detected
  // best, not scalar and not an inexecutable table.
  const kn::KernelTable& best = kn::table_for(kn::KernelLevel::kAvx512);
  EXPECT_EQ(best.level, kn::detected_level());
  // Asking for scalar always yields scalar, even on SIMD hosts.
  EXPECT_EQ(kn::table_for(kn::KernelLevel::kScalar).level,
            kn::KernelLevel::kScalar);
}

TEST(KernelDispatch, ParseAcceptsExactTierNamesOnly) {
  kn::KernelLevel lvl{};
  EXPECT_TRUE(kn::parse_kernel_level("scalar", &lvl));
  EXPECT_EQ(lvl, kn::KernelLevel::kScalar);
  EXPECT_TRUE(kn::parse_kernel_level("avx2", &lvl));
  EXPECT_EQ(lvl, kn::KernelLevel::kAvx2);
  EXPECT_TRUE(kn::parse_kernel_level("avx512", &lvl));
  EXPECT_EQ(lvl, kn::KernelLevel::kAvx512);
  EXPECT_FALSE(kn::parse_kernel_level(nullptr, &lvl));
  EXPECT_FALSE(kn::parse_kernel_level("", &lvl));
  EXPECT_FALSE(kn::parse_kernel_level("auto", &lvl));
  EXPECT_FALSE(kn::parse_kernel_level("AVX2", &lvl));
  EXPECT_FALSE(kn::parse_kernel_level("avx1024", &lvl));
}

TEST(KernelDispatch, NamesRoundTrip) {
  for (int i = 0; i < kn::kKernelLevelCount; ++i) {
    const auto lvl = static_cast<kn::KernelLevel>(i);
    kn::KernelLevel parsed{};
    ASSERT_TRUE(kn::parse_kernel_level(kn::kernel_level_name(lvl), &parsed));
    EXPECT_EQ(parsed, lvl);
  }
}

TEST(KernelDispatch, OverrideForcesTierAndClearRestores) {
  const kn::KernelLevel before = kn::active_level();
  kn::set_level_override(kn::KernelLevel::kScalar);
  EXPECT_EQ(kn::active_level(), kn::KernelLevel::kScalar);
  EXPECT_EQ(kn::active_table().level, kn::KernelLevel::kScalar);
  kn::set_level_override(kn::KernelLevel::kAvx512);
  EXPECT_EQ(kn::active_level(), kn::detected_level());  // clamped
  kn::clear_level_override();
  EXPECT_EQ(kn::active_level(), before);
}

// --- Differential suite: every tier vs the scalar reference ---------------

// Shapes deliberately hit the tail paths: K values straddle word
// boundaries (pad() != 0 exercises the tail-word mask the GEMM must NOT
// count), N values leave SIMD lane tails (N % 8, N % 16 != 0), and row
// counts are odd so chunk boundaries never align with anything.

TEST(KernelDifferential, GemmMatchesScalarOnOddShapesAndTailWords) {
  util::Rng rng(23);
  for (const std::int64_t K : {27, 64, 100, 320}) {
    for (const std::int64_t N : {1, 7, 13, 40}) {
      const std::int64_t M = 5;
      const BitMatrix a = random_bits(M, K, rng);
      const BitMatrix b = random_bits(N, K, rng);
      std::vector<std::uint64_t> bt(
          static_cast<std::size_t>(b.rows() * b.words_per_row()));
      transpose_word_major(span_of(b), bt.data());

      std::vector<std::int32_t> want(static_cast<std::size_t>(M * N),
                                     INT32_MIN);
      kn::GemmCtx wctx{span_of(a), bt.data(), N, want.data()};
      kn::scalar_table().gemm(&wctx, 0, M);

      for (const auto lvl : available_levels()) {
        if (lvl == kn::KernelLevel::kScalar) continue;
        std::vector<std::int32_t> got(static_cast<std::size_t>(M * N),
                                      INT32_MAX);
        kn::GemmCtx gctx{span_of(a), bt.data(), N, got.data()};
        kn::table_for(lvl).gemm(&gctx, 0, M);
        for (std::size_t i = 0; i < got.size(); ++i)
          ASSERT_EQ(got[i], want[i])
              << kn::kernel_level_name(lvl) << ": K=" << K << " N=" << N
              << " flat=" << i;
      }
    }
  }
}

TEST(KernelDifferential, ThresholdMatchesScalarIncludingEqualityEdge) {
  util::Rng rng(29);
  for (const std::int64_t C : {5, 64, 100, 130}) {
    const std::int64_t rows = 7;
    std::vector<std::int32_t> acc(static_cast<std::size_t>(rows * C));
    std::vector<std::int32_t> thr(static_cast<std::size_t>(C));
    std::vector<std::int32_t> inv(static_cast<std::size_t>(C));
    for (auto& t : thr)
      t = static_cast<std::int32_t>(rng.uniform_int(0, 8)) - 4;
    for (auto& v : inv) v = rng.bernoulli(0.5) ? 1 : 0;
    // Accumulators cluster around the thresholds so acc == thr (the >=
    // equality edge the compare instructions must preserve) occurs often.
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < C; ++c)
        acc[static_cast<std::size_t>(r * C + c)] =
            thr[static_cast<std::size_t>(c)] +
            static_cast<std::int32_t>(rng.uniform_int(0, 5)) - 2;

    DirtyBits want(rows, C);
    kn::ThreshCtx wctx{acc.data(), thr.data(), inv.data(), want.span};
    kn::scalar_table().thresh(&wctx, 0, rows);

    for (const auto lvl : available_levels()) {
      if (lvl == kn::KernelLevel::kScalar) continue;
      DirtyBits got(rows, C);
      kn::ThreshCtx gctx{acc.data(), thr.data(), inv.data(), got.span};
      kn::table_for(lvl).thresh(&gctx, 0, rows);
      expect_same_bits(got.span, want.span,
                       kn::kernel_level_name(lvl));
      // The scalar reference re-establishes zero padding in the tail word;
      // equality above proves the tier does too -- but assert it outright
      // so a future scalar regression cannot mask a tier one.
      if (C % 64 != 0) {
        for (std::int64_t r = 0; r < rows; ++r)
          ASSERT_EQ(got.span.row(r)[got.span.wpr - 1] >> (C % 64), 0u)
              << kn::kernel_level_name(lvl) << ": dirty pad bits, row " << r;
      }
    }
  }
}

TEST(KernelDifferential, Im2rowMatchesScalarAcrossChannelRegimes) {
  util::Rng rng(31);
  // c < 64 (inline-OR path), c % 64 == 0 (aligned word-copy path), and a
  // c > 64 unaligned width (append_bits path) -- all on dirty arenas.
  for (const std::int64_t c : {3, 64, 100, 128}) {
    const std::int64_t n = 2, h = 6, w = 5, k = 3;
    const std::int64_t ho = h - k + 1, wo = w - k + 1;
    const BitMatrix pixels = random_bits(n * h * w, c, rng);

    DirtyBits want(n * ho * wo, k * k * c);
    kn::Im2RowCtx wctx{span_of(pixels), want.span, h, w, c, k, ho, wo};
    kn::scalar_table().im2row(&wctx, 0, n * ho * wo);

    for (const auto lvl : available_levels()) {
      if (lvl == kn::KernelLevel::kScalar) continue;
      DirtyBits got(n * ho * wo, k * k * c);
      kn::Im2RowCtx gctx{span_of(pixels), got.span, h, w, c, k, ho, wo};
      kn::table_for(lvl).im2row(&gctx, 0, n * ho * wo);
      expect_same_bits(got.span, want.span,
                       kn::kernel_level_name(lvl));
    }
  }
}

// --- Integer first conv: every tier against the scalar reference ----------

/// One random first-conv problem: codes (with the slack the layout
/// promises), packed +-1 weights, and `levels` pattern banks whose
/// thresholds sit among the accumulators so both compare outcomes occur.
struct FirstConvCase {
  std::int64_t n, h, w, c, k, co, ho, wo, levels;
  std::vector<std::int16_t> codes, wts;
  std::vector<float> wf;  // the unpacked weights, [K*K*C, Co]
  std::vector<std::vector<std::int32_t>> thr, inv;

  FirstConvCase(std::int64_t n_, std::int64_t h_, std::int64_t w_,
                std::int64_t c_, std::int64_t k_, std::int64_t co_,
                std::int64_t levels_, util::Rng& rng, bool extreme)
      : n(n_), h(h_), w(w_), c(c_), k(k_), co(co_),
        ho(h_ - k_ + 1), wo(w_ - k_ + 1), levels(levels_) {
    codes.assign(static_cast<std::size_t>(n * h * w * c +
                                          kn::kFirstConvCodeSlack), 0);
    for (std::int64_t i = 0; i < n * h * w * c; ++i)
      codes[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
          extreme ? (rng.bernoulli(0.5) ? 255 : -255)
                  : rng.uniform_int(0, 510) - 255);
    wf.resize(static_cast<std::size_t>(k * k * c * co));
    for (auto& v : wf) v = rng.bernoulli(0.5) ? 1.f : -1.f;
    wts.resize(static_cast<std::size_t>(kn::first_conv_weight_len(k, c, co)));
    kn::pack_first_conv_weights(wf.data(), k, c, co, wts.data());
    const std::int64_t bound = k * k * c * 255;
    const std::int64_t spread = extreme ? bound : bound / 8;
    for (std::int64_t b = 0; b < (std::int64_t{1} << levels) - 1; ++b) {
      std::vector<std::int32_t> t(static_cast<std::size_t>(co));
      std::vector<std::int32_t> v(static_cast<std::size_t>(co));
      for (auto& x : t)
        x = static_cast<std::int32_t>(rng.uniform_int(0, 2 * spread) - spread);
      for (auto& x : v) x = rng.bernoulli(0.5) ? 1 : 0;
      thr.push_back(std::move(t));
      inv.push_back(std::move(v));
    }
  }

  std::int64_t rows() const { return n * ho * wo; }
  std::int64_t wpr() const { return words_for_bits(co); }

  /// Run `fn` over [lo, hi) chunks split at `cut`, into `out` (levels
  /// planes of rows x wpr words).
  void run(kn::KernelFn fn, std::vector<std::uint64_t>& out,
           std::int64_t cut) const {
    kn::FirstConvCtx ctx{};
    ctx.codes = codes.data();
    ctx.wts = wts.data();
    for (std::size_t b = 0; b < thr.size(); ++b) {
      ctx.thr[b] = thr[b].data();
      ctx.inv[b] = inv[b].data();
    }
    ctx.dst = out.data();
    ctx.h = h;
    ctx.w = w;
    ctx.c = c;
    ctx.k = k;
    ctx.co = co;
    ctx.ho = ho;
    ctx.wo = wo;
    ctx.wpr = wpr();
    ctx.plane_words = rows() * wpr();
    ctx.levels = levels;
    fn(&ctx, 0, cut);
    fn(&ctx, cut, rows());
  }
};

/// Plain per-channel convolution of one output pixel from the unpacked
/// float weights, so the packing is checked too.
std::int32_t reference_acc(const FirstConvCase& t, std::int64_t r,
                           std::int64_t j) {
  const std::int64_t img = r / (t.ho * t.wo), rem = r % (t.ho * t.wo);
  const std::int64_t y = rem / t.wo, x = rem % t.wo;
  const std::int64_t kc = t.k * t.c;
  std::int32_t acc = 0;
  for (std::int64_t ky = 0; ky < t.k; ++ky)
    for (std::int64_t i = 0; i < kc; ++i) {
      const std::int64_t code_at = ((img * t.h + y + ky) * t.w + x) * t.c + i;
      const float w = t.wf[static_cast<std::size_t>((ky * kc + i) * t.co + j)];
      acc += t.codes[static_cast<std::size_t>(code_at)] * (w > 0.f ? 1 : -1);
    }
  return acc;
}

TEST(KernelDifferential, FirstConvScalarMatchesPlainConvolution) {
  // The scalar tier defines the semantics; pin it to a per-channel
  // convolution and the residual bank walk written out longhand.
  util::Rng rng(43);
  for (const std::int64_t levels : {1, 2, 3}) {
    const FirstConvCase t(2, 6, 7, 3, 3, 20, levels, rng, false);
    std::vector<std::uint64_t> got(
        static_cast<std::size_t>(levels * t.rows() * t.wpr()), ~0ull);
    t.run(kn::scalar_table().first_conv, got, t.rows() / 2);
    for (std::int64_t r = 0; r < t.rows(); ++r)
      for (std::int64_t j = 0; j < t.co; ++j) {
        const std::int32_t acc = reference_acc(t, r, j);
        std::int64_t pattern = 0;
        for (std::int64_t m = 0; m < levels; ++m) {
          const std::size_t bank =
              static_cast<std::size_t>((std::int64_t{1} << m) - 1 + pattern);
          const int bit = (acc >= t.thr[bank][static_cast<std::size_t>(j)]) ^
                          t.inv[bank][static_cast<std::size_t>(j)];
          const std::uint64_t word =
              got[static_cast<std::size_t>(m * t.rows() * t.wpr() +
                                           r * t.wpr() + j / 64)];
          ASSERT_EQ(static_cast<int>((word >> (j % 64)) & 1), bit)
              << "M=" << levels << " level " << m << " row " << r
              << " channel " << j;
          pattern |= std::int64_t{bit} << m;
        }
      }
  }
}

TEST(KernelDifferential, FirstConvMatchesScalarOnEveryShapeAndSplit) {
  util::Rng rng(47);
  int cases = 0;
  for (const std::int64_t c : {1, 2, 3})
    for (const std::int64_t k : {3, 5})
      for (const std::int64_t co : {4, 12, 16, 20, 64, 70}) {
        const std::int64_t levels = 1 + (cases % 3);
        const bool extreme = cases % 4 == 3;  // every code at +-255
        const std::int64_t w = k + rng.uniform_int(0, 33 - k);  // 3..33
        const std::int64_t h = k + rng.uniform_int(0, 3);
        const FirstConvCase t(2, h, w, c, k, co, levels, rng, extreme);
        const std::size_t words =
            static_cast<std::size_t>(levels * t.rows() * t.wpr());
        std::vector<std::uint64_t> want(words, ~0ull);
        t.run(kn::scalar_table().first_conv, want, t.rows());
        // Slack bits beyond co come out zero on dirty planes.
        if (co % 64 != 0) {
          for (std::size_t i = t.wpr() - 1; i < words; i += t.wpr())
            ASSERT_EQ(want[i] >> (co % 64), 0u) << "scalar slack, word " << i;
        }
        for (const auto lvl : available_levels()) {
          if (lvl == kn::KernelLevel::kScalar) continue;
          // A chunk boundary at every row offset: 4-pixel groups must
          // never straddle a split or an image-row end.
          for (std::int64_t cut = 0; cut <= t.rows(); ++cut) {
            std::vector<std::uint64_t> got(words, ~0ull);
            t.run(kn::table_for(lvl).first_conv, got, cut);
            for (std::size_t i = 0; i < words; ++i)
              ASSERT_EQ(got[i], want[i])
                  << kn::kernel_level_name(lvl) << ": c=" << c << " k=" << k
                  << " co=" << co << " w=" << w << " M=" << levels
                  << " cut=" << cut << " word " << i;
          }
        }
        ++cases;
      }
}

// --- End-to-end: whole prototypes agree across tiers ----------------------

TEST(KernelDifferential, PrototypeLogitsIdenticalOnEveryTier) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 7);
  const xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
  Tensor x(Shape{2, 32, 32, 3});
  util::Rng rng(41);
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.uniform());

  kn::set_level_override(kn::KernelLevel::kScalar);
  const Tensor ref = net.forward_batch(x);
  for (const auto lvl : available_levels()) {
    kn::set_level_override(lvl);
    const Tensor got = net.forward_batch(x);
    ASSERT_EQ(got.shape(), ref.shape());
    for (std::int64_t i = 0; i < got.numel(); ++i)
      ASSERT_EQ(got[i], ref[i])
          << kn::kernel_level_name(lvl) << ": logit " << i;
  }
  kn::clear_level_override();
}

TEST(KernelDispatch, PlanCacheKeysOnKernelLevel) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 11);
  const xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
  const Shape in{1, 32, 32, 3};

  kn::set_level_override(kn::KernelLevel::kScalar);
  const xnor::ExecutionPlan& scalar_plan = net.plan_for(in);
  EXPECT_EQ(scalar_plan.kernel_level(), kn::KernelLevel::kScalar);
  const xnor::ExecutionPlan& scalar_again = net.plan_for(in);
  EXPECT_EQ(&scalar_plan, &scalar_again);

  const kn::KernelLevel best = kn::detected_level();
  if (best != kn::KernelLevel::kScalar) {
    kn::set_level_override(best);
    const xnor::ExecutionPlan& best_plan = net.plan_for(in);
    // A different tier must compile (and cache) a distinct plan -- stale
    // scalar pointers must never serve a SIMD-tier request.
    EXPECT_NE(&scalar_plan, &best_plan);
    EXPECT_EQ(best_plan.kernel_level(), best);
  }
  kn::clear_level_override();
}

}  // namespace
