#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

namespace bcop::nn {

using tensor::Shape;
using tensor::Tensor;

BatchNorm::BatchNorm(std::int64_t channels, float eps, float momentum)
    : channels_(channels), eps_(eps), momentum_(momentum) {
  gamma_.value = Tensor(Shape{channels}, 1.f);
  beta_.value = Tensor(Shape{channels}, 0.f);
  running_mean_ = Tensor(Shape{channels}, 0.f);
  running_var_ = Tensor(Shape{channels}, 1.f);
}

Tensor BatchNorm::forward(const Tensor& input, bool training) {
  const Shape& s = input.shape();
  const std::int64_t C = s[s.rank() - 1];
  if (C != channels_)
    throw std::invalid_argument("BatchNorm: channel mismatch, input " + s.str());
  const std::int64_t rows = input.numel() / C;

  Tensor out(s);
  if (training && frozen_) {
    // Frozen: normalize with running statistics (constants), cache xhat and
    // inv_std so backward differentiates the inference-time affine.
    inv_std_ = Tensor(Shape{C});
    for (std::int64_t c = 0; c < C; ++c)
      inv_std_[c] = 1.f / std::sqrt(running_var_[c] + eps_);
    xhat_ = Tensor(s);
    const float* x = input.data();
    float* xh = xhat_.data();
    float* o = out.data();
    const float* g = gamma_.value.data();
    const float* b = beta_.value.data();
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < C; ++c) {
        const float v = (x[r * C + c] - running_mean_[c]) * inv_std_[c];
        xh[r * C + c] = v;
        o[r * C + c] = g[c] * v + b[c];
      }
    rows_ = rows;
    frozen_forward_ = true;
    return out;
  }
  if (training) {
    frozen_forward_ = false;
    // Batch statistics.
    std::vector<double> mu(static_cast<std::size_t>(C), 0.0),
        var(static_cast<std::size_t>(C), 0.0);
    const float* x = input.data();
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < C; ++c)
        mu[static_cast<std::size_t>(c)] += x[r * C + c];
    for (auto& m : mu) m /= static_cast<double>(rows);
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < C; ++c) {
        const double d = x[r * C + c] - mu[static_cast<std::size_t>(c)];
        var[static_cast<std::size_t>(c)] += d * d;
      }
    for (auto& v : var) v /= static_cast<double>(rows);

    inv_std_ = Tensor(Shape{C});
    for (std::int64_t c = 0; c < C; ++c)
      inv_std_[c] = static_cast<float>(
          1.0 / std::sqrt(var[static_cast<std::size_t>(c)] + eps_));

    xhat_ = Tensor(s);
    float* xh = xhat_.data();
    float* o = out.data();
    const float* g = gamma_.value.data();
    const float* b = beta_.value.data();
    for (std::int64_t r = 0; r < rows; ++r)
      for (std::int64_t c = 0; c < C; ++c) {
        const float v = (x[r * C + c] -
                         static_cast<float>(mu[static_cast<std::size_t>(c)])) *
                        inv_std_[c];
        xh[r * C + c] = v;
        o[r * C + c] = g[c] * v + b[c];
      }
    rows_ = rows;

    // Exponential moving averages for inference / threshold folding.
    for (std::int64_t c = 0; c < C; ++c) {
      running_mean_[c] = momentum_ * running_mean_[c] +
                         (1.f - momentum_) *
                             static_cast<float>(mu[static_cast<std::size_t>(c)]);
      running_var_[c] = momentum_ * running_var_[c] +
                        (1.f - momentum_) *
                            static_cast<float>(var[static_cast<std::size_t>(c)]);
    }
  } else {
    const float* x = input.data();
    float* o = out.data();
    const float* g = gamma_.value.data();
    const float* b = beta_.value.data();
    for (std::int64_t c = 0; c < C; ++c) {
      const float inv = 1.f / std::sqrt(running_var_[c] + eps_);
      const float scale = g[c] * inv;
      const float shift = b[c] - scale * running_mean_[c];
      for (std::int64_t r = 0; r < rows; ++r)
        o[r * C + c] = scale * x[r * C + c] + shift;
    }
  }
  return out;
}

Tensor BatchNorm::backward(const Tensor& grad_output) {
  if (xhat_.empty())
    throw std::logic_error("BatchNorm::backward without training forward");
  const Shape& s = grad_output.shape();
  const std::int64_t C = channels_;
  const std::int64_t rows = grad_output.numel() / C;
  if (rows != rows_ || grad_output.shape() != xhat_.shape())
    throw std::invalid_argument("BatchNorm::backward: shape mismatch");

  gamma_.ensure_grad();
  beta_.ensure_grad();

  const float* dy = grad_output.data();
  const float* xh = xhat_.data();
  std::vector<double> sum_dy(static_cast<std::size_t>(C), 0.0),
      sum_dy_xh(static_cast<std::size_t>(C), 0.0);
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < C; ++c) {
      sum_dy[static_cast<std::size_t>(c)] += dy[r * C + c];
      sum_dy_xh[static_cast<std::size_t>(c)] += dy[r * C + c] * xh[r * C + c];
    }
  for (std::int64_t c = 0; c < C; ++c) {
    gamma_.grad[c] += static_cast<float>(sum_dy_xh[static_cast<std::size_t>(c)]);
    beta_.grad[c] += static_cast<float>(sum_dy[static_cast<std::size_t>(c)]);
  }

  Tensor dx(s);
  float* out = dx.data();
  const float* g = gamma_.value.data();
  if (frozen_forward_) {
    // Statistics are constants: dL/dx = gamma * inv_std * dL/dy.
    for (std::int64_t c = 0; c < C; ++c) {
      const float k = g[c] * inv_std_[c];
      for (std::int64_t r = 0; r < rows; ++r)
        out[r * C + c] = k * dy[r * C + c];
    }
    return dx;
  }
  const double inv_rows = 1.0 / static_cast<double>(rows);
  for (std::int64_t c = 0; c < C; ++c) {
    const float k = g[c] * inv_std_[c];
    const float mean_dy = static_cast<float>(sum_dy[static_cast<std::size_t>(c)] * inv_rows);
    const float mean_dy_xh =
        static_cast<float>(sum_dy_xh[static_cast<std::size_t>(c)] * inv_rows);
    for (std::int64_t r = 0; r < rows; ++r)
      out[r * C + c] =
          k * (dy[r * C + c] - mean_dy - xh[r * C + c] * mean_dy_xh);
  }
  return dx;
}

void BatchNorm::save(util::BinaryWriter& w) const {
  w.write_tag("BNRM");
  w.write_u64(static_cast<std::uint64_t>(channels_));
  w.write_f32(eps_);
  w.write_f32(momentum_);
  w.write_f32_array(gamma_.value.storage());
  w.write_f32_array(beta_.value.storage());
  w.write_f32_array(running_mean_.storage());
  w.write_f32_array(running_var_.storage());
}

void BatchNorm::load(util::BinaryReader& r) {
  r.expect_tag("BNRM");
  channels_ = static_cast<std::int64_t>(r.read_u64());
  eps_ = r.read_f32();
  momentum_ = r.read_f32();
  std::vector<float> gamma = r.read_f32_array();
  std::vector<float> beta = r.read_f32_array();
  std::vector<float> mean = r.read_f32_array();
  std::vector<float> var = r.read_f32_array();
  const std::int64_t n = util::checked_numel({channels_});
  for (const auto* a : {&gamma, &beta, &mean, &var})
    if (static_cast<std::int64_t>(a->size()) != n)
      throw std::runtime_error("BatchNorm::load: array size mismatch");
  *this = BatchNorm(channels_, eps_, momentum_);
  gamma_.value.storage() = std::move(gamma);
  beta_.value.storage() = std::move(beta);
  running_mean_.storage() = std::move(mean);
  running_var_.storage() = std::move(var);
}

}  // namespace bcop::nn
