#include "nn/dense.hpp"

#include <stdexcept>

#include "nn/init.hpp"
#include "tensor/gemm.hpp"

namespace bcop::nn {

using tensor::Shape;
using tensor::Tensor;

Dense::Dense(std::int64_t in_features, std::int64_t out_features,
             util::Rng& rng)
    : in_(in_features), out_(out_features) {
  if (in_features <= 0 || out_features <= 0)
    throw std::invalid_argument("Dense: non-positive dimension");
  weight_.value = Tensor(Shape{in_, out_});
  glorot_uniform(weight_.value, in_, out_, rng);
  bias_.value = Tensor(Shape{out_}, 0.f);
}

Tensor Dense::forward(const Tensor& input, bool training) {
  const Shape& s = input.shape();
  if (s.rank() != 2 || s[1] != in_)
    throw std::invalid_argument("Dense: bad input shape " + s.str());
  Tensor out(Shape{s[0], out_});
  tensor::gemm_nn(s[0], out_, in_, input.data(), weight_.value.data(),
                  out.data());
  const float* b = bias_.value.data();
  for (std::int64_t r = 0; r < s[0]; ++r)
    for (std::int64_t c = 0; c < out_; ++c) out.at2(r, c) += b[c];
  if (training) input_ = input;
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  if (input_.empty())
    throw std::logic_error("Dense::backward without training forward");
  const std::int64_t N = input_.shape()[0];
  if (grad_output.shape() != Shape{N, out_})
    throw std::invalid_argument("Dense::backward: shape mismatch");

  weight_.ensure_grad();
  bias_.ensure_grad();
  tensor::gemm_tn(in_, out_, N, input_.data(), grad_output.data(),
                  weight_.grad.data(), /*accumulate=*/true);
  const float* dy = grad_output.data();
  for (std::int64_t r = 0; r < N; ++r)
    for (std::int64_t c = 0; c < out_; ++c) bias_.grad[c] += dy[r * out_ + c];

  Tensor dx(Shape{N, in_});
  tensor::gemm_nt(N, in_, out_, grad_output.data(), weight_.value.data(),
                  dx.data());
  return dx;
}

void Dense::save(util::BinaryWriter& w) const {
  w.write_tag("DNSE");
  w.write_u64(static_cast<std::uint64_t>(in_));
  w.write_u64(static_cast<std::uint64_t>(out_));
  w.write_f32_array(weight_.value.storage());
  w.write_f32_array(bias_.value.storage());
}

void Dense::load(util::BinaryReader& r) {
  r.expect_tag("DNSE");
  in_ = static_cast<std::int64_t>(r.read_u64());
  out_ = static_cast<std::int64_t>(r.read_u64());
  std::vector<float> w = r.read_f32_array();
  std::vector<float> b = r.read_f32_array();
  if (util::checked_numel({in_, out_}) != static_cast<std::int64_t>(w.size()) ||
      util::checked_numel({out_}) != static_cast<std::int64_t>(b.size()))
    throw std::runtime_error("Dense::load: weight size mismatch");
  weight_.value = Tensor(Shape{in_, out_});
  weight_.value.storage() = std::move(w);
  bias_.value = Tensor(Shape{out_});
  bias_.value.storage() = std::move(b);
}

}  // namespace bcop::nn
