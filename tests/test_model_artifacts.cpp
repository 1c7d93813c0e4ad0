// The model artifacts tracked under models/ must load with the current
// readers: both trained models classify rendered faces, and the deployed
// n-CNV bitstream computes exactly the logits of folding the tracked n-CNV
// model. A format change that orphans the tracked files fails here, not in
// the examples and benches that load them.
#include <gtest/gtest.h>

#include <string>

#include "facegen/attributes.hpp"
#include "facegen/dataset.hpp"
#include "facegen/renderer.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "xnor/bitstream.hpp"
#include "xnor/engine.hpp"

namespace {

using namespace bcop;
using bcop::tensor::Shape;
using bcop::tensor::Tensor;

std::string model_file(const char* name) {
  return std::string(BCOP_SOURCE_DIR) + "/models/" + name;
}

/// Two rendered faces per class, batched NHWC, with their labels.
Tensor rendered_faces(std::vector<std::int64_t>& labels) {
  util::Rng rng(2021);
  constexpr std::int64_t kFaces = 8;
  Tensor x(Shape{kFaces, 32, 32, 3});
  const std::int64_t per = x.numel() / kFaces;
  for (std::int64_t i = 0; i < kFaces; ++i) {
    const auto cls = static_cast<facegen::MaskClass>(i % 4);
    const Tensor one = facegen::MaskedFaceDataset::image_to_tensor(
        facegen::render_face(facegen::sample_attributes(cls, rng)).image);
    for (std::int64_t j = 0; j < per; ++j) x[i * per + j] = one[j];
    labels.push_back(i % 4);
  }
  return x;
}

TEST(ModelArtifacts, TrackedModelsLoadAndClassifyRenderedFaces) {
  std::vector<std::int64_t> labels;
  const Tensor x = rendered_faces(labels);
  for (const char* name : {"ncnv.bcop", "ucnv.bcop"}) {
    nn::Sequential model = nn::Sequential::load_file(model_file(name));
    const xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
    const std::vector<std::int64_t> pred = net.predict(x);
    ASSERT_EQ(pred.size(), labels.size()) << name;
    int correct = 0;
    for (std::size_t i = 0; i < pred.size(); ++i)
      correct += pred[i] == labels[i] ? 1 : 0;
    // The tracked models are quick-trained (~95% test accuracy); a file
    // that loads but carries garbage weights scores near chance (2 of 8).
    EXPECT_GE(correct, 6) << name << ": " << correct << "/8 faces correct";
  }
}

TEST(ModelArtifacts, BitstreamLogitsEqualFoldedModelLogits) {
  std::vector<std::int64_t> labels;
  const Tensor x = rendered_faces(labels);
  nn::Sequential model = nn::Sequential::load_file(model_file("ncnv.bcop"));
  const xnor::XnorNetwork folded = xnor::XnorNetwork::fold(model);
  const xnor::XnorNetwork deployed =
      xnor::load_bitstream(model_file("ncnv.bcbs"));
  const Tensor want = folded.forward_batch(x);
  const Tensor got = deployed.forward_batch(x);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i)
    ASSERT_EQ(got[i], want[i]) << "logit " << i;
}

}  // namespace
