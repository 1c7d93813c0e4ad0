// Shared helpers for the test suite: random tensors, finite-difference
// gradient checking of Layer implementations, and collision-free temp
// paths.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <filesystem>
#include <functional>
#include <string>

#include "nn/layer.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace bcop::testhelpers {

inline tensor::Tensor random_tensor(const tensor::Shape& s, util::Rng& rng,
                                    double lo = -1.0, double hi = 1.0) {
  tensor::Tensor t(s);
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

/// Scalar probe loss: L = sum(seed .* layer(x)). Returns L.
inline double probe_loss(nn::Layer& layer, const tensor::Tensor& x,
                         const tensor::Tensor& seed) {
  const tensor::Tensor y = layer.forward(x, /*training=*/true);
  EXPECT_EQ(y.shape(), seed.shape());
  double loss = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) loss += y[i] * seed[i];
  return loss;
}

/// Check dL/dx from backward() against central finite differences on a
/// sample of input elements. `stride` subsamples elements to keep runtime
/// bounded for larger tensors.
inline void check_input_gradient(nn::Layer& layer, const tensor::Tensor& x0,
                                 const tensor::Tensor& seed,
                                 double eps = 1e-3, double tol = 2e-2,
                                 std::int64_t stride = 1) {
  tensor::Tensor x = x0;
  probe_loss(layer, x, seed);
  for (nn::Param* p : layer.params()) {
    p->ensure_grad();
    p->grad.fill(0.f);
  }
  const tensor::Tensor dx = layer.backward(seed);
  ASSERT_EQ(dx.shape(), x.shape());

  for (std::int64_t i = 0; i < x.numel(); i += stride) {
    const float orig = x[i];
    x[i] = orig + static_cast<float>(eps);
    const double lp = probe_loss(layer, x, seed);
    x[i] = orig - static_cast<float>(eps);
    const double lm = probe_loss(layer, x, seed);
    x[i] = orig;
    const double numeric = (lp - lm) / (2 * eps);
    EXPECT_NEAR(dx[i], numeric, tol) << "input element " << i;
  }
  probe_loss(layer, x, seed);  // restore caches for the caller
}

/// Check dL/dParam for every parameter of the layer.
inline void check_param_gradients(nn::Layer& layer, const tensor::Tensor& x,
                                  const tensor::Tensor& seed,
                                  double eps = 1e-3, double tol = 2e-2,
                                  std::int64_t stride = 1) {
  probe_loss(layer, x, seed);
  for (nn::Param* p : layer.params()) {
    p->ensure_grad();
    p->grad.fill(0.f);
  }
  layer.backward(seed);

  for (nn::Param* p : layer.params()) {
    for (std::int64_t i = 0; i < p->value.numel(); i += stride) {
      const float orig = p->value[i];
      p->value[i] = orig + static_cast<float>(eps);
      const double lp = probe_loss(layer, x, seed);
      p->value[i] = orig - static_cast<float>(eps);
      const double lm = probe_loss(layer, x, seed);
      p->value[i] = orig;
      const double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(p->grad[i], numeric, tol) << "param element " << i;
    }
    probe_loss(layer, x, seed);
  }
}

/// A temp-file path no other test can collide with. ctest runs every
/// gtest case as its own process, in parallel under `ctest -j`, so a fixed
/// name races; the pid plus the running test's full name plus `tag` does
/// not. This is the only place tests may name a temp path (lint rule R11).
inline std::string unique_temp_path(const std::string& tag) {
  std::string name = "bcop_" + std::to_string(::getpid());
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info())
    name += std::string("_") + info->test_suite_name() + "_" + info->name();
  name += "_" + tag;
  for (char& ch : name)
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '.') ch = '_';
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace bcop::testhelpers
