#include "deploy/pipeline.hpp"

#include <sstream>
#include <stdexcept>

#include "deploy/mvtu.hpp"
#include "deploy/swu.hpp"
#include "xnor/plan.hpp"

namespace bcop::deploy {

using core::LayerSpec;
using tensor::Shape;
using tensor::Tensor;
using xnor::BinConvStage;
using xnor::BinDenseStage;
using xnor::FirstConvStage;
using xnor::FlattenStage;
using xnor::PoolStage;

std::int64_t RunResult::initiation_interval() const {
  std::int64_t ii = 0;
  for (const auto& s : stages) ii = std::max(ii, s.effective());
  return ii;
}

std::int64_t RunResult::latency_cycles() const {
  std::int64_t total = 0;
  for (const auto& s : stages) total += s.effective();
  return total;
}

StreamingPipeline::StreamingPipeline(const xnor::XnorNetwork& net,
                                     std::vector<LayerSpec> specs)
    : net_(&net), specs_(std::move(specs)) {
  // Cross-check: the spec table's compute layers must match the folded
  // network's stages one-to-one.
  std::size_t si = 0;
  for (const auto& stage : net.stages()) {
    // The streaming MVTU model evaluates one {-1,+1} plane per stage; it
    // has no residual-plane dataflow, so reject ReBNet-folded networks up
    // front instead of silently dropping their deeper planes (serve them
    // through the ExecutionPlan interpreter instead).
    if (const auto* rs = xnor::stage_residual(stage);
        rs != nullptr && (rs->levels > 1 || rs->scaled()))
      throw std::invalid_argument(
          "StreamingPipeline: residual-binarized stages (M > 1) are not "
          "supported by the streaming dataflow model");
    const std::string kind = xnor::stage_kind(stage);
    if (kind == "Pool" || kind == "Flatten") continue;
    if (si >= specs_.size())
      throw std::invalid_argument("StreamingPipeline: more stages than specs");
    const LayerSpec& sp = specs_[si++];
    std::int64_t rows = 0, cols = 0;
    if (const auto* st = std::get_if<FirstConvStage>(&stage)) {
      rows = st->co;
      cols = st->k * st->k * st->ci;
    } else if (const auto* st2 = std::get_if<BinConvStage>(&stage)) {
      rows = st2->co;
      cols = st2->k * st2->k * st2->ci;
    } else if (const auto* st3 = std::get_if<BinDenseStage>(&stage)) {
      rows = st3->out;
      cols = st3->in;
    }
    if (rows != sp.matrix_rows() || cols != sp.matrix_cols())
      throw std::invalid_argument(
          "StreamingPipeline: spec '" + sp.name + "' matrix " +
          std::to_string(sp.matrix_rows()) + "x" +
          std::to_string(sp.matrix_cols()) + " does not match folded stage " +
          std::to_string(rows) + "x" + std::to_string(cols));
  }
  if (si != specs_.size())
    throw std::invalid_argument("StreamingPipeline: fewer stages than specs");
}

RunResult StreamingPipeline::run(const Tensor& image) const {
  if (image.shape().rank() != 4 || image.shape()[0] != 1)
    throw std::invalid_argument("StreamingPipeline::run: [1,S,S,C] required");

  // The engine's compiled plan carries the per-stage activation geometry;
  // consuming it here (instead of re-deriving h/w/c while executing) keeps
  // the simulator and the interpreter reading the same frozen dataflow.
  const xnor::ExecutionPlan& plan = net_->plan_for(image.shape());
  const std::vector<xnor::StageShape>& shapes = plan.stage_shapes();

  RunResult result;
  std::size_t si = 0;  // spec cursor
  std::size_t idx = 0; // stage cursor into the plan's shape table

  // Activation state between stages: binary map (one byte per element,
  // NHWC) with geometry, or logits at the very end.
  std::vector<std::uint8_t> bits;

  for (const auto& stage : net_->stages()) {
    const xnor::StageShape& ss = shapes[idx++];
    if (const auto* st = std::get_if<FirstConvStage>(&stage)) {
      const LayerSpec& sp = specs_[si++];
      // Stream in 8-bit pixel codes.
      const std::int64_t in_elems = ss.h_in * ss.w_in * ss.c_in;
      std::vector<std::int32_t> pixels(static_cast<std::size_t>(in_elems));
      for (std::int64_t i = 0; i < in_elems; ++i)
        pixels[static_cast<std::size_t>(i)] = xnor::pixel_code(image[i]);
      SlidingWindowUnit swu(ss.h_in, ss.w_in, ss.c_in, st->k);
      FixedMvtu mvtu(&st->weights, &st->thresholds, {sp.pe, sp.simd});
      std::vector<std::uint8_t> out;
      out.reserve(static_cast<std::size_t>(ss.h_out * ss.w_out * ss.c_out));
      std::vector<std::int32_t> patch(static_cast<std::size_t>(swu.patch_bits()));
      std::int64_t cycles = 0;
      for (std::int64_t oy = 0; oy < ss.h_out; ++oy)
        for (std::int64_t ox = 0; ox < ss.w_out; ++ox) {
          swu.window_values(pixels, oy, ox, patch.data());
          cycles += mvtu.process(patch.data(), &out, nullptr);
        }
      result.stages.push_back({sp.name, cycles, swu.stream_cycles()});
      bits = std::move(out);
    } else if (const auto* st2 = std::get_if<BinConvStage>(&stage)) {
      const LayerSpec& sp = specs_[si++];
      SlidingWindowUnit swu(ss.h_in, ss.w_in, ss.c_in, st2->k);
      BinaryMvtu mvtu(&st2->weights, &st2->thresholds, {sp.pe, sp.simd});
      std::vector<std::uint8_t> out;
      out.reserve(static_cast<std::size_t>(ss.h_out * ss.w_out * ss.c_out));
      std::vector<std::uint64_t> patch(static_cast<std::size_t>(swu.patch_words()));
      std::int64_t cycles = 0;
      for (std::int64_t oy = 0; oy < ss.h_out; ++oy)
        for (std::int64_t ox = 0; ox < ss.w_out; ++ox) {
          swu.window_bits(bits, oy, ox, patch.data());
          cycles += mvtu.process(patch.data(), &out, nullptr);
        }
      result.stages.push_back({sp.name, cycles, swu.stream_cycles()});
      bits = std::move(out);
    } else if (std::get_if<PoolStage>(&stage)) {
      // Boolean OR over each 2x2 window (paper Sec. III-B).
      const std::int64_t w = ss.w_in, c = ss.c_in;
      std::vector<std::uint8_t> out(
          static_cast<std::size_t>(ss.h_out * ss.w_out * ss.c_out));
      for (std::int64_t y = 0; y < ss.h_out; ++y)
        for (std::int64_t x = 0; x < ss.w_out; ++x)
          for (std::int64_t ch = 0; ch < c; ++ch) {
            const auto at = [&](std::int64_t yy, std::int64_t xx) {
              return bits[static_cast<std::size_t>((yy * w + xx) * c + ch)];
            };
            out[static_cast<std::size_t>((y * ss.w_out + x) * c + ch)] =
                static_cast<std::uint8_t>(at(2 * y, 2 * x) | at(2 * y, 2 * x + 1) |
                                          at(2 * y + 1, 2 * x) |
                                          at(2 * y + 1, 2 * x + 1));
          }
      bits = std::move(out);
    } else if (std::get_if<FlattenStage>(&stage)) {
      // NHWC order is already the flattened order; nothing moves.
    } else if (const auto* st3 = std::get_if<BinDenseStage>(&stage)) {
      const LayerSpec& sp = specs_[si++];
      // Pack the flat activation bits into words.
      std::vector<std::uint64_t> packed(
          static_cast<std::size_t>((st3->in + 63) / 64), 0ull);
      for (std::int64_t i = 0; i < st3->in; ++i)
        if (bits[static_cast<std::size_t>(i)])
          packed[static_cast<std::size_t>(i >> 6)] |= 1ull << (i & 63);
      BinaryMvtu mvtu(&st3->weights,
                      st3->has_threshold ? &st3->thresholds : nullptr,
                      {sp.pe, sp.simd});
      std::vector<std::uint8_t> out;
      std::vector<std::int32_t> acc;
      const std::int64_t cycles =
          mvtu.process(packed.data(), &out, st3->has_threshold ? nullptr : &acc);
      result.stages.push_back({sp.name, cycles, 0});
      if (st3->has_threshold) {
        bits = std::move(out);
      } else {
        result.logits = Tensor(Shape{1, st3->out});
        for (std::int64_t i = 0; i < st3->out; ++i)
          result.logits[i] = static_cast<float>(acc[static_cast<std::size_t>(i)]);
      }
    }
  }
  if (result.logits.empty())
    throw std::logic_error("StreamingPipeline::run: no classifier stage");
  return result;
}

std::string StreamingPipeline::describe() const {
  std::ostringstream os;
  os << "StreamingPipeline[" << net_->name() << "]\n";
  std::size_t si = 0;
  for (const auto& stage : net_->stages()) {
    const std::string kind = xnor::stage_kind(stage);
    if (kind == "Pool") {
      os << "  Pool        2x2 boolean-OR\n";
      continue;
    }
    if (kind == "Flatten") {
      os << "  Flatten     NHWC -> flat\n";
      continue;
    }
    const LayerSpec& sp = specs_[si++];
    os << "  " << (sp.is_conv ? "SWU+MVTU " : "MVTU     ") << sp.name << "  "
       << sp.matrix_rows() << "x" << sp.matrix_cols() << "  PE=" << sp.pe
       << " SIMD=" << sp.simd << "  "
       << folds_per_vector(sp.matrix_rows(), sp.matrix_cols(), {sp.pe, sp.simd})
       << " cycles/vector x " << sp.output_vectors() << " vectors\n";
  }
  return os.str();
}

}  // namespace bcop::deploy
