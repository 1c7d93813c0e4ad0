#include "nn/scaled_binary_conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2row.hpp"

namespace bcop::nn {

using tensor::Shape;
using tensor::Tensor;

ScaledBinaryConv2d::ScaledBinaryConv2d(std::int64_t k, std::int64_t in_ch,
                                       std::int64_t out_ch, util::Rng& rng)
    : k_(k), in_ch_(in_ch), out_ch_(out_ch) {
  if (k <= 0 || in_ch <= 0 || out_ch <= 0)
    throw std::invalid_argument("ScaledBinaryConv2d: non-positive dimension");
  weight_.value = Tensor(Shape{k * k * in_ch, out_ch});
  glorot_uniform(weight_.value, k * k * in_ch, out_ch, rng);
}

std::vector<float> ScaledBinaryConv2d::scaling_factors() const {
  const std::int64_t fan = k_ * k_ * in_ch_;
  std::vector<float> alpha(static_cast<std::size_t>(out_ch_), 0.f);
  for (std::int64_t i = 0; i < fan; ++i)
    for (std::int64_t o = 0; o < out_ch_; ++o)
      alpha[static_cast<std::size_t>(o)] += std::abs(weight_.value.at2(i, o));
  for (auto& a : alpha) a /= static_cast<float>(fan);
  return alpha;
}

Tensor ScaledBinaryConv2d::forward(const Tensor& input, bool training) {
  const Shape& s = input.shape();
  if (s.rank() != 4 || s[3] != in_ch_)
    throw std::invalid_argument("ScaledBinaryConv2d: bad input shape " + s.str());
  const std::int64_t N = s[0];
  const std::int64_t Ho = tensor::conv_out_dim(s[1], k_);
  const std::int64_t Wo = tensor::conv_out_dim(s[2], k_);

  Tensor patches;
  tensor::im2row(input, k_, patches);
  wb_ = Tensor(weight_.value.shape());
  for (std::int64_t i = 0; i < wb_.numel(); ++i)
    wb_[i] = weight_.value[i] >= 0.f ? 1.f : -1.f;
  alpha_ = scaling_factors();

  Tensor out_flat(Shape{patches.shape()[0], out_ch_});
  tensor::gemm_nn(patches.shape()[0], out_ch_, patches.shape()[1],
                  patches.data(), wb_.data(), out_flat.data());
  for (std::int64_t r = 0; r < patches.shape()[0]; ++r)
    for (std::int64_t o = 0; o < out_ch_; ++o)
      out_flat.at2(r, o) *= alpha_[static_cast<std::size_t>(o)];

  if (training) {
    patches_ = std::move(patches);
    in_shape_ = s;
  }
  return out_flat.reshaped(Shape{N, Ho, Wo, out_ch_});
}

Tensor ScaledBinaryConv2d::backward(const Tensor& grad_output) {
  if (patches_.empty())
    throw std::logic_error("ScaledBinaryConv2d::backward without training forward");
  const std::int64_t M = patches_.shape()[0];
  const std::int64_t P = patches_.shape()[1];
  if (grad_output.numel() != M * out_ch_)
    throw std::invalid_argument("ScaledBinaryConv2d::backward: shape mismatch");

  // Gradient wrt the scaled binarized weight W~ = alpha * sign(W):
  // dW~ = patches^T x dY.
  weight_.ensure_grad();
  Tensor dwt(Shape{P, out_ch_});
  tensor::gemm_tn(P, out_ch_, M, patches_.data(), grad_output.data(),
                  dwt.data());
  const float inv_fan = 1.f / static_cast<float>(P);
  for (std::int64_t i = 0; i < P; ++i)
    for (std::int64_t o = 0; o < out_ch_; ++o) {
      const float w = weight_.value.at2(i, o);
      const float ste = std::abs(w) <= 1.f
                            ? alpha_[static_cast<std::size_t>(o)]
                            : 0.f;
      weight_.grad.at2(i, o) += dwt.at2(i, o) * (inv_fan + ste);
    }

  // dPatches = (dY * alpha) x Wb^T.
  Tensor dy_scaled(grad_output.shape());
  for (std::int64_t r = 0; r < M; ++r)
    for (std::int64_t o = 0; o < out_ch_; ++o)
      dy_scaled[r * out_ch_ + o] = grad_output[r * out_ch_ + o] *
                                   alpha_[static_cast<std::size_t>(o)];
  Tensor dpatches(Shape{M, P});
  tensor::gemm_nt(M, P, out_ch_, dy_scaled.data(), wb_.data(),
                  dpatches.data());
  Tensor dx(in_shape_);
  tensor::row2im(dpatches, k_, dx);
  return dx;
}

void ScaledBinaryConv2d::post_update() {
  float* w = weight_.value.data();
  for (std::int64_t i = 0; i < weight_.value.numel(); ++i)
    w[i] = std::clamp(w[i], -1.f, 1.f);
}

void ScaledBinaryConv2d::save(util::BinaryWriter& w) const {
  w.write_tag("SBCV");
  w.write_u64(static_cast<std::uint64_t>(k_));
  w.write_u64(static_cast<std::uint64_t>(in_ch_));
  w.write_u64(static_cast<std::uint64_t>(out_ch_));
  w.write_f32_array(weight_.value.storage());
}

void ScaledBinaryConv2d::load(util::BinaryReader& r) {
  r.expect_tag("SBCV");
  k_ = static_cast<std::int64_t>(r.read_u64());
  in_ch_ = static_cast<std::int64_t>(r.read_u64());
  out_ch_ = static_cast<std::int64_t>(r.read_u64());
  std::vector<float> w = r.read_f32_array();
  if (util::checked_numel({k_, k_, in_ch_, out_ch_}) !=
      static_cast<std::int64_t>(w.size()))
    throw std::runtime_error("ScaledBinaryConv2d::load: weight size mismatch");
  weight_.value = Tensor(Shape{k_ * k_ * in_ch_, out_ch_});
  weight_.value.storage() = std::move(w);
}

}  // namespace bcop::nn
