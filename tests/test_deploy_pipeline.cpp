// The streaming pipeline must agree bit-for-bit with the XNOR engine (same
// folded network, different execution strategy) and its cycle accounting
// must match the analytical performance model.
#include <gtest/gtest.h>

#include "core/architecture.hpp"
#include "deploy/performance.hpp"
#include "deploy/pipeline.hpp"
#include "facegen/dataset.hpp"
#include "facegen/renderer.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax_xent.hpp"
#include "test_helpers.hpp"

namespace {

using namespace bcop;
using bcop::tensor::Shape;
using bcop::tensor::Tensor;

void randomize_state(nn::Sequential& model, std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Adam opt(model, 1e-2f);
  nn::SoftmaxCrossEntropy head;
  for (int i = 0; i < 4; ++i) {
    const Tensor x =
        bcop::testhelpers::random_tensor(Shape{3, 32, 32, 3}, rng);
    std::vector<std::int64_t> y{0, 1, 2};
    head.forward(model.forward(x, true), y);
    model.backward(head.backward());
    opt.step();
  }
}

class PipelinePerArch : public ::testing::TestWithParam<int> {};

TEST_P(PipelinePerArch, MatchesXnorEngineBitExactly) {
  const auto arch = static_cast<core::ArchitectureId>(GetParam());
  nn::Sequential model = core::build_bnn(arch, 21);
  randomize_state(model, 22);
  xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
  deploy::StreamingPipeline pipeline(net, core::layer_specs(arch));

  util::Rng rng(23);
  for (int trial = 0; trial < 3; ++trial) {
    const auto cls = static_cast<facegen::MaskClass>(trial % 4);
    const auto rendered =
        facegen::render_face(facegen::sample_attributes(cls, rng));
    const Tensor x = facegen::MaskedFaceDataset::image_to_tensor(rendered.image);
    const Tensor ref = net.forward(x);
    const auto result = pipeline.run(x);
    ASSERT_EQ(result.logits.shape(), ref.shape());
    for (std::int64_t i = 0; i < ref.numel(); ++i)
      ASSERT_FLOAT_EQ(result.logits[i], ref[i])
          << core::arch_name(arch) << " trial " << trial << " logit " << i;
  }

  // Rounding ties: pixels whose x * 255 lands exactly halfway between two
  // codes. Ties-to-even and ties-away-from-zero disagree on half of them,
  // so an image of ties catches a pipeline that quantizes differently
  // from the engine (both must use xnor::pixel_code).
  std::vector<float> ties;
  for (int k = -255; k < 255; ++k) {
    const float half = static_cast<float>(k) + 0.5f;
    if ((half / 255.f) * 255.f == half) ties.push_back(half / 255.f);
  }
  ASSERT_GT(ties.size(), 100u);
  for (std::size_t shift = 0; shift < 2; ++shift) {
    Tensor x(Shape{1, 32, 32, 3});
    for (std::int64_t i = 0; i < x.numel(); ++i)
      x[i] = ties[(static_cast<std::size_t>(i) * 7 + shift) % ties.size()];
    const Tensor ref = net.forward(x);
    const auto result = pipeline.run(x);
    for (std::int64_t i = 0; i < ref.numel(); ++i)
      ASSERT_FLOAT_EQ(result.logits[i], ref[i])
          << core::arch_name(arch) << " tie image " << shift << " logit " << i;
  }
}

TEST_P(PipelinePerArch, CycleCountsMatchPerformanceModel) {
  const auto arch = static_cast<core::ArchitectureId>(GetParam());
  nn::Sequential model = core::build_bnn(arch, 31);
  xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
  const auto specs = core::layer_specs(arch);
  deploy::StreamingPipeline pipeline(net, specs);

  util::Rng rng(32);
  const Tensor x = bcop::testhelpers::random_tensor(Shape{1, 32, 32, 3}, rng);
  const auto result = pipeline.run(x);
  const auto perf = deploy::analyze_performance(specs);

  ASSERT_EQ(result.stages.size(), perf.layers.size());
  for (std::size_t i = 0; i < perf.layers.size(); ++i) {
    EXPECT_EQ(result.stages[i].compute_cycles, perf.layers[i].compute_cycles)
        << perf.layers[i].name;
    EXPECT_EQ(result.stages[i].stream_cycles, perf.layers[i].stream_cycles)
        << perf.layers[i].name;
  }
  EXPECT_EQ(result.initiation_interval(), perf.initiation_interval);
  EXPECT_EQ(result.latency_cycles(), perf.pipeline_latency_cycles);
}

INSTANTIATE_TEST_SUITE_P(Arches, PipelinePerArch, ::testing::Range(0, 3));

TEST(Pipeline, SpecMismatchThrows) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kNCnv, 41);
  xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
  EXPECT_THROW(deploy::StreamingPipeline(
                   net, core::layer_specs(core::ArchitectureId::kCnv)),
               std::invalid_argument);
  auto too_few = core::layer_specs(core::ArchitectureId::kNCnv);
  too_few.pop_back();
  EXPECT_THROW(deploy::StreamingPipeline(net, too_few), std::invalid_argument);
}

TEST(Pipeline, DescribeListsEveryComputeStage) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 42);
  xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
  deploy::StreamingPipeline pipeline(
      net, core::layer_specs(core::ArchitectureId::kMicroCnv));
  const std::string desc = pipeline.describe();
  for (const char* name : {"Conv1.1", "Conv2.2", "Conv3.1", "FC.1", "FC.2"})
    EXPECT_NE(desc.find(name), std::string::npos) << name;
  EXPECT_NE(desc.find("boolean-OR"), std::string::npos);
}

TEST(Pipeline, RejectsBatchedInput) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 43);
  xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
  deploy::StreamingPipeline pipeline(
      net, core::layer_specs(core::ArchitectureId::kMicroCnv));
  EXPECT_THROW(pipeline.run(Tensor(Shape{2, 32, 32, 3})),
               std::invalid_argument);
}

}  // namespace
