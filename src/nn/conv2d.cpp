#include "nn/conv2d.hpp"

#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2row.hpp"

namespace bcop::nn {

using tensor::Shape;
using tensor::Tensor;

Conv2d::Conv2d(std::int64_t k, std::int64_t in_ch, std::int64_t out_ch,
               util::Rng& rng)
    : k_(k), in_ch_(in_ch), out_ch_(out_ch) {
  if (k <= 0 || in_ch <= 0 || out_ch <= 0)
    throw std::invalid_argument("Conv2d: non-positive dimension");
  weight_.value = Tensor(Shape{k * k * in_ch, out_ch});
  glorot_uniform(weight_.value, k * k * in_ch, out_ch, rng);
  bias_.value = Tensor(Shape{out_ch}, 0.f);
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  const Shape& s = input.shape();
  if (s.rank() != 4 || s[3] != in_ch_)
    throw std::invalid_argument("Conv2d: bad input shape " + s.str());
  const std::int64_t N = s[0];
  const std::int64_t Ho = tensor::conv_out_dim(s[1], k_);
  const std::int64_t Wo = tensor::conv_out_dim(s[2], k_);

  Tensor patches;
  tensor::im2row(input, k_, patches);
  Tensor out_flat(Shape{patches.shape()[0], out_ch_});
  tensor::gemm_nn(patches.shape()[0], out_ch_, patches.shape()[1],
                  patches.data(), weight_.value.data(), out_flat.data());
  const float* b = bias_.value.data();
  for (std::int64_t r = 0; r < patches.shape()[0]; ++r)
    for (std::int64_t c = 0; c < out_ch_; ++c) out_flat.at2(r, c) += b[c];
  if (training) {
    patches_ = std::move(patches);
    in_shape_ = s;
  }
  return out_flat.reshaped(Shape{N, Ho, Wo, out_ch_});
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (patches_.empty())
    throw std::logic_error("Conv2d::backward without training forward");
  const std::int64_t M = patches_.shape()[0];
  const std::int64_t P = patches_.shape()[1];
  if (grad_output.numel() != M * out_ch_)
    throw std::invalid_argument("Conv2d::backward: shape mismatch");

  weight_.ensure_grad();
  bias_.ensure_grad();
  tensor::gemm_tn(P, out_ch_, M, patches_.data(), grad_output.data(),
                  weight_.grad.data(), /*accumulate=*/true);
  const float* dy = grad_output.data();
  for (std::int64_t r = 0; r < M; ++r)
    for (std::int64_t c = 0; c < out_ch_; ++c) bias_.grad[c] += dy[r * out_ch_ + c];

  Tensor dpatches(Shape{M, P});
  tensor::gemm_nt(M, P, out_ch_, grad_output.data(), weight_.value.data(),
                  dpatches.data());
  Tensor dx(in_shape_);
  tensor::row2im(dpatches, k_, dx);
  return dx;
}

void Conv2d::save(util::BinaryWriter& w) const {
  w.write_tag("CONV");
  w.write_u64(static_cast<std::uint64_t>(k_));
  w.write_u64(static_cast<std::uint64_t>(in_ch_));
  w.write_u64(static_cast<std::uint64_t>(out_ch_));
  w.write_f32_array(weight_.value.storage());
  w.write_f32_array(bias_.value.storage());
}

void Conv2d::load(util::BinaryReader& r) {
  r.expect_tag("CONV");
  k_ = static_cast<std::int64_t>(r.read_u64());
  in_ch_ = static_cast<std::int64_t>(r.read_u64());
  out_ch_ = static_cast<std::int64_t>(r.read_u64());
  std::vector<float> w = r.read_f32_array();
  std::vector<float> b = r.read_f32_array();
  if (util::checked_numel({k_, k_, in_ch_, out_ch_}) !=
          static_cast<std::int64_t>(w.size()) ||
      util::checked_numel({out_ch_}) != static_cast<std::int64_t>(b.size()))
    throw std::runtime_error("Conv2d::load: weight size mismatch");
  weight_.value = Tensor(Shape{k_ * k_ * in_ch_, out_ch_});
  weight_.value.storage() = std::move(w);
  bias_.value = Tensor(Shape{out_ch_});
  bias_.value.storage() = std::move(b);
}

}  // namespace bcop::nn
