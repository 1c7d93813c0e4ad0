// Cross-module integration: the deployment artifact path must compose with
// the hardware pipeline -- fold a model, serialize the bitstream, reload it
// cold, build a StreamingPipeline on the reloaded network, and verify
// everything still agrees bit-for-bit.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/architecture.hpp"
#include "deploy/pipeline.hpp"
#include "facegen/dataset.hpp"
#include "facegen/renderer.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax_xent.hpp"
#include "test_helpers.hpp"
#include "xnor/bitstream.hpp"

namespace {

using bcop::testhelpers::unique_temp_path;

using namespace bcop;
using tensor::Shape;
using tensor::Tensor;

TEST(ArtifactIntegration, PipelineFromReloadedBitstreamIsBitExact) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 31);
  // Light training for non-trivial BN state.
  util::Rng rng(32);
  nn::Adam opt(model, 1e-2f);
  nn::SoftmaxCrossEntropy head;
  for (int i = 0; i < 4; ++i) {
    const Tensor x =
        bcop::testhelpers::random_tensor(Shape{3, 32, 32, 3}, rng);
    head.forward(model.forward(x, true), {0, 1, 2});
    model.backward(head.backward());
    opt.step();
  }

  const xnor::XnorNetwork live = xnor::XnorNetwork::fold(model);
  const auto path = unique_temp_path("pipe.bcbs");
  xnor::save_bitstream(live, path);
  const xnor::XnorNetwork cold = xnor::load_bitstream(path);

  deploy::StreamingPipeline pipe_live(
      live, core::layer_specs(core::ArchitectureId::kMicroCnv));
  deploy::StreamingPipeline pipe_cold(
      cold, core::layer_specs(core::ArchitectureId::kMicroCnv));

  for (int trial = 0; trial < 4; ++trial) {
    const auto attrs = facegen::sample_attributes(
        static_cast<facegen::MaskClass>(trial), rng);
    const Tensor x = facegen::MaskedFaceDataset::image_to_tensor(
        facegen::render_face(attrs).image);
    const auto a = pipe_live.run(x);
    const auto b = pipe_cold.run(x);
    ASSERT_EQ(a.logits.shape(), b.logits.shape());
    for (std::int64_t i = 0; i < a.logits.numel(); ++i)
      ASSERT_FLOAT_EQ(a.logits[i], b.logits[i]) << "trial " << trial;
    // Cycle accounting depends only on the dimensioning, not the weights.
    ASSERT_EQ(a.initiation_interval(), b.initiation_interval());
  }
  std::remove(path.c_str());
}

TEST(ArtifactIntegration, BenchEvalSetsAreDeterministic) {
  // The bench harness regenerates its evaluation sets from fixed seeds;
  // two generations must be identical so recorded numbers are stable.
  facegen::DatasetConfig cfg;
  cfg.per_class_train = 4;
  cfg.per_class_test = 12;
  cfg.seed = 0x7e57;
  const auto a = facegen::MaskedFaceDataset::generate(cfg).test();
  const auto b = facegen::MaskedFaceDataset::generate(cfg).test();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].label, b[i].label);
    for (std::size_t j = 0; j < a[i].image.data().size(); ++j)
      ASSERT_FLOAT_EQ(a[i].image.data()[j], b[i].image.data()[j]);
  }
}

}  // namespace
