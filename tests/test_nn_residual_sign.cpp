// Unit tests for nn::ResidualSign, the ReBNet M-level residual
// binarization activation (docs/residual-binarization.md): construction
// limits, the dyadic scale quantizer's feasibility/dominance invariants,
// exact forward reconstruction, straight-through gradients, the
// post-update projection, and save/load.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "nn/residual_sign.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"
#include "util/serialize.hpp"
#include "test_helpers.hpp"

namespace {

using bcop::testhelpers::unique_temp_path;

using namespace bcop;
using nn::ResidualSign;
using tensor::Shape;
using tensor::Tensor;

TEST(ResidualSign, RejectsOutOfRangeLevels) {
  EXPECT_THROW(ResidualSign(0), std::invalid_argument);
  EXPECT_THROW(ResidualSign(4), std::invalid_argument);
  EXPECT_NO_THROW(ResidualSign(1));
  EXPECT_NO_THROW(ResidualSign(3));
}

TEST(ResidualSign, QuantizerKeepsScalesDominantAndFeasible) {
  for (std::int64_t levels = 1; levels <= 3; ++levels) {
    ResidualSign rs(levels);
    // Push the master scales to hostile values; the quantizer must clamp
    // into the dyadic box g_0 in [16, 512], g_m in [2^(L-1-m), g_{m-1}/2].
    Tensor hostile(Shape{levels});
    for (std::int64_t m = 0; m < levels; ++m)
      hostile[m] = m % 2 ? 100.f : 1e-6f;
    rs.params()[0]->value = hostile;
    const auto g = rs.quantized_scale_bits();
    ASSERT_EQ(static_cast<std::int64_t>(g.size()), levels);
    EXPECT_GE(g[0], ResidualSign::kMinFirstBits);
    EXPECT_LE(g[0], ResidualSign::kMaxFirstBits);
    std::int32_t tail = 0;
    for (std::size_t m = g.size(); m-- > 1;) {
      EXPECT_GE(g[m], 1) << "level " << m;
      EXPECT_LE(g[m], g[m - 1] / 2) << "level " << m;
      // Strict dominance: every level outweighs the sum of all deeper
      // ones, which is what makes lexicographic pooling exact.
      EXPECT_GT(g[m - 1], tail + g[m]) << "level " << m;
      tail += g[m];
    }
  }
}

TEST(ResidualSign, ForwardIsGreedyResidualReconstruction) {
  ResidualSign rs(3);
  const auto q = rs.quantized_scales();
  Tensor x(Shape{5});
  x[0] = 0.9f;
  x[1] = -0.4f;
  x[2] = 0.05f;
  x[3] = -1.7f;
  x[4] = 0.f;  // sign(0) = +1 by convention
  const Tensor y = rs.forward(x, false);

  for (std::int64_t i = 0; i < x.numel(); ++i) {
    // Reference: greedy per-level sign/subtract in the same float order.
    float e = x[i], want = 0.f;
    for (std::size_t m = 0; m < q.size(); ++m) {
      const float b = e >= 0.f ? 1.f : -1.f;
      want += q[m] * b;
      e -= q[m] * b;
    }
    EXPECT_FLOAT_EQ(y[i], want) << "element " << i;
    // Every output is a multiple of 1/256 (dyadic grid).
    EXPECT_FLOAT_EQ(y[i] * 256.f, std::nearbyint(y[i] * 256.f));
  }
  // M = 1 degenerates to a scaled sign.
  ResidualSign one(1);
  const Tensor y1 = one.forward(x, false);
  const auto q1 = one.quantized_scales();
  for (std::int64_t i = 0; i < x.numel(); ++i)
    EXPECT_FLOAT_EQ(y1[i], x[i] >= 0.f ? q1[0] : -q1[0]);
}

TEST(ResidualSign, BackwardIsClippedSteWithPerLevelScaleGrads) {
  ResidualSign rs(2);
  Tensor x(Shape{4});
  x[0] = 0.5f;
  x[1] = -0.25f;
  x[2] = 2.f;  // outside the STE window
  x[3] = -1.f;
  const Tensor y = rs.forward(x, true);
  (void)y;
  Tensor g(Shape{4});
  for (std::int64_t i = 0; i < 4; ++i) g[i] = static_cast<float>(i + 1);
  const Tensor dx = rs.backward(g);

  EXPECT_FLOAT_EQ(dx[0], 1.f);
  EXPECT_FLOAT_EQ(dx[1], 2.f);
  EXPECT_FLOAT_EQ(dx[2], 0.f);  // clipped: |x| > 1
  EXPECT_FLOAT_EQ(dx[3], 4.f);

  // dL/dgamma_m = sum_i grad_i * b_m_i with b_0 = sign(x),
  // b_1 = sign(x - q_0 * b_0).
  const auto q = rs.quantized_scales();
  float want0 = 0.f, want1 = 0.f;
  for (std::int64_t i = 0; i < 4; ++i) {
    const float b0 = x[i] >= 0.f ? 1.f : -1.f;
    const float b1 = (x[i] - q[0] * b0) >= 0.f ? 1.f : -1.f;
    want0 += g[i] * b0;
    want1 += g[i] * b1;
  }
  const Tensor& sg = rs.params()[0]->grad;
  EXPECT_FLOAT_EQ(sg[0], want0);
  EXPECT_FLOAT_EQ(sg[1], want1);
}

TEST(ResidualSign, PostUpdateProjectsIntoTheFeasibleBox) {
  ResidualSign rs(3);
  Tensor& s = rs.params()[0]->value;
  s[0] = 50.f;
  s[1] = 49.f;
  s[2] = -3.f;
  rs.post_update();
  EXPECT_LE(s[0], ResidualSign::kMaxFirstBits / 256.f);
  EXPECT_LE(s[1], s[0] / 2.f);
  EXPECT_LE(s[2], s[1] / 2.f);
  EXPECT_GE(s[2], 1.f / 256.f);
}

TEST(ResidualSign, SaveLoadRoundTripsLevelsAndScales) {
  const std::string path = unique_temp_path("rsgn_test.bin");
  ResidualSign rs(3);
  rs.params()[0]->value[0] = 1.25f;
  rs.params()[0]->value[1] = 0.5f;
  rs.params()[0]->value[2] = 0.125f;
  {
    util::BinaryWriter w(path);
    rs.save(w);
    w.close();
  }
  ResidualSign back(1);
  util::BinaryReader r(path);
  back.load(r);
  EXPECT_EQ(back.levels(), 3);
  for (std::int64_t m = 0; m < 3; ++m)
    EXPECT_FLOAT_EQ(back.params()[0]->value[m], rs.params()[0]->value[m]);
  std::filesystem::remove(path);
}

TEST(ResidualSign, SequentialFactoryKnowsTheType) {
  // make_layer must map the "ResidualSign" tag so model checkpoints
  // containing the layer reload (levels are then restored by load()).
  nn::Sequential model;
  model.emplace<ResidualSign>(2);
  EXPECT_EQ(model.layer(0).type(), "ResidualSign");
}

}  // namespace
