#include <gtest/gtest.h>

#include <cmath>

#include "nn/binary_conv2d.hpp"
#include "nn/scaled_binary_conv2d.hpp"
#include "nn/sequential.hpp"
#include "test_helpers.hpp"

namespace {

using bcop::testhelpers::unique_temp_path;

using namespace bcop;
using tensor::Shape;
using tensor::Tensor;
using bcop::testhelpers::random_tensor;

TEST(ScaledBinaryConv, AlphaIsMeanAbsolutePerChannel) {
  util::Rng rng(1);
  nn::ScaledBinaryConv2d conv(3, 2, 2, rng);
  Tensor& w = conv.params()[0]->value;
  // Channel 0: all +0.5; channel 1: alternating +-0.25.
  for (std::int64_t i = 0; i < 18; ++i) {
    w.at2(i, 0) = 0.5f;
    w.at2(i, 1) = (i % 2 == 0) ? 0.25f : -0.25f;
  }
  const auto alpha = conv.scaling_factors();
  EXPECT_NEAR(alpha[0], 0.5f, 1e-6f);
  EXPECT_NEAR(alpha[1], 0.25f, 1e-6f);
}

TEST(ScaledBinaryConv, ForwardIsAlphaTimesPlainBinaryConv) {
  util::Rng rng(2);
  nn::ScaledBinaryConv2d scaled(3, 2, 4, rng);
  util::Rng rng2(2);  // same seed: identical latents
  nn::BinaryConv2d plain(3, 2, 4, rng2);

  const Tensor x = random_tensor(Shape{1, 6, 6, 2}, rng);
  const Tensor ys = scaled.forward(x, false);
  const Tensor yp = plain.forward(x, false);
  const auto alpha = scaled.scaling_factors();
  ASSERT_EQ(ys.shape(), yp.shape());
  for (std::int64_t i = 0; i < ys.numel(); ++i) {
    const auto o = static_cast<std::size_t>(i % 4);
    EXPECT_NEAR(ys[i], yp[i] * alpha[o], 1e-4f);
  }
}

TEST(ScaledBinaryConv, BackwardShapesAndClipping) {
  util::Rng rng(3);
  nn::ScaledBinaryConv2d conv(3, 2, 4, rng);
  const Tensor x = random_tensor(Shape{2, 5, 5, 2}, rng);
  const Tensor seed = random_tensor(Shape{2, 3, 3, 4}, rng);
  conv.forward(x, true);
  for (auto* p : conv.params()) {
    p->ensure_grad();
    p->grad.fill(0.f);
  }
  const Tensor dx = conv.backward(seed);
  EXPECT_EQ(dx.shape(), x.shape());
  // Gradients must be non-trivial.
  float gnorm = 0;
  for (std::int64_t i = 0; i < conv.params()[0]->grad.numel(); ++i)
    gnorm += std::abs(conv.params()[0]->grad[i]);
  EXPECT_GT(gnorm, 0.f);

  conv.params()[0]->value[0] = 9.f;
  conv.post_update();
  EXPECT_FLOAT_EQ(conv.params()[0]->value[0], 1.f);
}

TEST(ScaledBinaryConv, InputGradientScalesWithAlpha) {
  // With uniform |latents| = a, dL/dx must be exactly a times the plain
  // binary layer's input gradient.
  util::Rng rng(4);
  nn::ScaledBinaryConv2d scaled(3, 1, 2, rng);
  util::Rng rng2(4);
  nn::BinaryConv2d plain(3, 1, 2, rng2);
  Tensor& ws = scaled.params()[0]->value;
  Tensor& wp = plain.params()[0]->value;
  for (std::int64_t i = 0; i < ws.numel(); ++i) {
    const float sign = ws[i] >= 0 ? 1.f : -1.f;
    ws[i] = 0.5f * sign;
    wp[i] = 0.5f * sign;
  }
  const Tensor x = random_tensor(Shape{1, 5, 5, 1}, rng);
  const Tensor seed = random_tensor(Shape{1, 3, 3, 2}, rng);
  scaled.forward(x, true);
  plain.forward(x, true);
  for (auto* p : scaled.params()) p->ensure_grad();
  for (auto* p : plain.params()) p->ensure_grad();
  const Tensor dxs = scaled.backward(seed);
  const Tensor dxp = plain.backward(seed);
  for (std::int64_t i = 0; i < dxs.numel(); ++i)
    EXPECT_NEAR(dxs[i], 0.5f * dxp[i], 1e-5f);
}

TEST(ScaledBinaryConv, SaveLoadRoundTrip) {
  util::Rng rng(5);
  nn::Sequential model;
  model.emplace<nn::ScaledBinaryConv2d>(3, 2, 4, rng);
  const auto path = unique_temp_path("scaled.bcop");
  model.save(path);
  nn::Sequential loaded = nn::Sequential::load_file(path);
  EXPECT_STREQ(loaded.layer(0).type(), "ScaledBinaryConv2d");
  const Tensor x = random_tensor(Shape{1, 5, 5, 2}, rng);
  const Tensor a = model.forward(x, false);
  const Tensor b = loaded.forward(x, false);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(ScaledBinaryConv, Validation) {
  util::Rng rng(6);
  EXPECT_THROW(nn::ScaledBinaryConv2d(0, 1, 1, rng), std::invalid_argument);
  nn::ScaledBinaryConv2d conv(3, 2, 2, rng);
  EXPECT_THROW(conv.forward(Tensor(Shape{1, 5, 5, 3}), false),
               std::invalid_argument);
  EXPECT_THROW(conv.backward(Tensor(Shape{1, 3, 3, 2})), std::logic_error);
}

}  // namespace
