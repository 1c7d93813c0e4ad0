#include "nn/binary_conv2d.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2row.hpp"

namespace bcop::nn {

using tensor::Shape;
using tensor::Tensor;

BinaryConv2d::BinaryConv2d(std::int64_t k, std::int64_t in_ch,
                           std::int64_t out_ch, util::Rng& rng)
    : k_(k), in_ch_(in_ch), out_ch_(out_ch) {
  if (k <= 0 || in_ch <= 0 || out_ch <= 0)
    throw std::invalid_argument("BinaryConv2d: non-positive dimension");
  weight_.value = Tensor(Shape{k * k * in_ch, out_ch});
  glorot_uniform(weight_.value, k * k * in_ch, out_ch, rng);
}

Tensor BinaryConv2d::binarized_weights() const {
  Tensor wb(weight_.value.shape());
  for (std::int64_t i = 0; i < wb.numel(); ++i)
    wb[i] = weight_.value[i] >= 0.f ? 1.f : -1.f;
  return wb;
}

Tensor BinaryConv2d::forward(const Tensor& input, bool training) {
  const Shape& s = input.shape();
  if (s.rank() != 4 || s[3] != in_ch_)
    throw std::invalid_argument("BinaryConv2d: bad input shape " + s.str());
  const std::int64_t N = s[0];
  const std::int64_t Ho = tensor::conv_out_dim(s[1], k_);
  const std::int64_t Wo = tensor::conv_out_dim(s[2], k_);

  Tensor patches;
  tensor::im2row(input, k_, patches);
  wb_ = binarized_weights();

  Tensor out_flat(Shape{patches.shape()[0], out_ch_});
  tensor::gemm_nn(patches.shape()[0], out_ch_, patches.shape()[1],
                  patches.data(), wb_.data(), out_flat.data());
  if (training) {
    patches_ = std::move(patches);
    in_shape_ = s;
  }
  return out_flat.reshaped(Shape{N, Ho, Wo, out_ch_});
}

Tensor BinaryConv2d::backward(const Tensor& grad_output) {
  if (patches_.empty())
    throw std::logic_error("BinaryConv2d::backward without training forward");
  const std::int64_t M = patches_.shape()[0];
  const std::int64_t P = patches_.shape()[1];  // K*K*Ci
  if (grad_output.numel() != M * out_ch_)
    throw std::invalid_argument("BinaryConv2d::backward: shape mismatch");

  weight_.ensure_grad();
  // dWb = patches^T x dY; straight-through to the latent weights.
  tensor::gemm_tn(P, out_ch_, M, patches_.data(), grad_output.data(),
                  weight_.grad.data(), /*accumulate=*/true);

  // dPatches = dY x Wb^T, then scatter back to the input image.
  Tensor dpatches(Shape{M, P});
  tensor::gemm_nt(M, P, out_ch_, grad_output.data(), wb_.data(),
                  dpatches.data());
  Tensor dx(in_shape_);
  tensor::row2im(dpatches, k_, dx);
  return dx;
}

void BinaryConv2d::post_update() {
  // BinaryConnect: keep latents inside the binarization's active region so
  // the straight-through gradient never dies permanently.
  float* w = weight_.value.data();
  for (std::int64_t i = 0; i < weight_.value.numel(); ++i)
    w[i] = std::clamp(w[i], -1.f, 1.f);
}

void BinaryConv2d::save(util::BinaryWriter& w) const {
  w.write_tag("BCNV");
  w.write_u64(static_cast<std::uint64_t>(k_));
  w.write_u64(static_cast<std::uint64_t>(in_ch_));
  w.write_u64(static_cast<std::uint64_t>(out_ch_));
  w.write_f32_array(weight_.value.storage());
}

void BinaryConv2d::load(util::BinaryReader& r) {
  r.expect_tag("BCNV");
  k_ = static_cast<std::int64_t>(r.read_u64());
  in_ch_ = static_cast<std::int64_t>(r.read_u64());
  out_ch_ = static_cast<std::int64_t>(r.read_u64());
  std::vector<float> w = r.read_f32_array();
  if (util::checked_numel({k_, k_, in_ch_, out_ch_}) !=
      static_cast<std::int64_t>(w.size()))
    throw std::runtime_error("BinaryConv2d::load: weight size mismatch");
  weight_.value = Tensor(Shape{k_ * k_ * in_ch_, out_ch_});
  weight_.value.storage() = std::move(w);
}

}  // namespace bcop::nn
