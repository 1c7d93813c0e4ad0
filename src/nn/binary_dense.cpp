#include "nn/binary_dense.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"

namespace bcop::nn {

using tensor::Shape;
using tensor::Tensor;

BinaryDense::BinaryDense(std::int64_t in_features, std::int64_t out_features,
                         util::Rng& rng)
    : in_(in_features), out_(out_features) {
  if (in_features <= 0 || out_features <= 0)
    throw std::invalid_argument("BinaryDense: non-positive dimension");
  weight_.value = Tensor(Shape{in_, out_});
  glorot_uniform(weight_.value, in_, out_, rng);
}

Tensor BinaryDense::binarized_weights() const {
  Tensor wb(weight_.value.shape());
  for (std::int64_t i = 0; i < wb.numel(); ++i)
    wb[i] = weight_.value[i] >= 0.f ? 1.f : -1.f;
  return wb;
}

Tensor BinaryDense::forward(const Tensor& input, bool training) {
  const Shape& s = input.shape();
  if (s.rank() != 2 || s[1] != in_)
    throw std::invalid_argument("BinaryDense: bad input shape " + s.str());
  wb_ = binarized_weights();
  Tensor out(Shape{s[0], out_});
  tensor::gemm_nn(s[0], out_, in_, input.data(), wb_.data(), out.data());
  if (training) input_ = input;
  return out;
}

Tensor BinaryDense::backward(const Tensor& grad_output) {
  if (input_.empty())
    throw std::logic_error("BinaryDense::backward without training forward");
  const std::int64_t N = input_.shape()[0];
  if (grad_output.shape() != Shape{N, out_})
    throw std::invalid_argument("BinaryDense::backward: shape mismatch");

  weight_.ensure_grad();
  tensor::gemm_tn(in_, out_, N, input_.data(), grad_output.data(),
                  weight_.grad.data(), /*accumulate=*/true);
  Tensor dx(Shape{N, in_});
  tensor::gemm_nt(N, in_, out_, grad_output.data(), wb_.data(), dx.data());
  return dx;
}

void BinaryDense::post_update() {
  float* w = weight_.value.data();
  for (std::int64_t i = 0; i < weight_.value.numel(); ++i)
    w[i] = std::clamp(w[i], -1.f, 1.f);
}

void BinaryDense::save(util::BinaryWriter& w) const {
  w.write_tag("BDNS");
  w.write_u64(static_cast<std::uint64_t>(in_));
  w.write_u64(static_cast<std::uint64_t>(out_));
  w.write_f32_array(weight_.value.storage());
}

void BinaryDense::load(util::BinaryReader& r) {
  r.expect_tag("BDNS");
  in_ = static_cast<std::int64_t>(r.read_u64());
  out_ = static_cast<std::int64_t>(r.read_u64());
  std::vector<float> w = r.read_f32_array();
  if (util::checked_numel({in_, out_}) != static_cast<std::int64_t>(w.size()))
    throw std::runtime_error("BinaryDense::load: weight size mismatch");
  weight_.value = Tensor(Shape{in_, out_});
  weight_.value.storage() = std::move(w);
}

}  // namespace bcop::nn
