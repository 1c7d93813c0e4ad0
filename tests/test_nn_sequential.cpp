#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/architecture.hpp"
#include "nn/batchnorm.hpp"
#include "nn/binary_dense.hpp"
#include "nn/dense.hpp"
#include "nn/sequential.hpp"
#include "nn/sign_activation.hpp"
#include "test_helpers.hpp"

namespace {

using bcop::testhelpers::unique_temp_path;

using namespace bcop;
using bcop::tensor::Shape;
using bcop::tensor::Tensor;
using bcop::testhelpers::random_tensor;

nn::Sequential tiny_model(std::uint64_t seed) {
  util::Rng rng(seed);
  nn::Sequential m("tiny");
  m.emplace<nn::BinaryDense>(8, 6, rng);
  m.emplace<nn::BatchNorm>(6);
  m.emplace<nn::SignActivation>();
  m.emplace<nn::BinaryDense>(6, 3, rng);
  return m;
}

TEST(Sequential, ForwardChainsLayers) {
  nn::Sequential m = tiny_model(1);
  util::Rng rng(2);
  const Tensor x = random_tensor(Shape{4, 8}, rng);
  const Tensor y = m.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{4, 3}));
}

TEST(Sequential, AddNullThrows) {
  nn::Sequential m;
  EXPECT_THROW(m.add(nullptr), std::invalid_argument);
}

TEST(Sequential, ParamsCollectsAllLayers) {
  nn::Sequential m = tiny_model(3);
  // Two BinaryDense (1 param each) + BatchNorm (2 params).
  EXPECT_EQ(m.params().size(), 4u);
  EXPECT_EQ(m.parameter_count(), 8 * 6 + 6 + 6 + 6 * 3);
}

TEST(Sequential, ForwardCollectRecordsEveryLayer) {
  nn::Sequential m = tiny_model(4);
  util::Rng rng(5);
  const Tensor x = random_tensor(Shape{2, 8}, rng);
  std::vector<Tensor> acts;
  const Tensor y = m.forward_collect(x, false, acts);
  ASSERT_EQ(acts.size(), m.size());
  EXPECT_EQ(acts[0].shape(), (Shape{2, 6}));
  EXPECT_EQ(acts.back().shape(), y.shape());
  for (std::int64_t i = 0; i < y.numel(); ++i)
    EXPECT_FLOAT_EQ(acts.back()[i], y[i]);
}

TEST(Sequential, BackwardCollectLastEntryIsSeed) {
  nn::Sequential m = tiny_model(6);
  util::Rng rng(7);
  const Tensor x = random_tensor(Shape{2, 8}, rng);
  m.forward(x, true);
  const Tensor seed = random_tensor(Shape{2, 3}, rng);
  std::vector<Tensor> grads;
  const Tensor dx = m.backward_collect(seed, grads);
  ASSERT_EQ(grads.size(), m.size());
  for (std::int64_t i = 0; i < seed.numel(); ++i)
    EXPECT_FLOAT_EQ(grads.back()[i], seed[i]);
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(Sequential, SaveLoadRoundTripPreservesPredictions) {
  nn::Sequential m = tiny_model(8);
  util::Rng rng(9);
  const Tensor x = random_tensor(Shape{5, 8}, rng);
  // Give BatchNorm non-trivial running stats first.
  m.forward(x, true);
  const Tensor y_before = m.forward(x, false);

  const std::string path = unique_temp_path("model.bcop");
  m.save(path);
  nn::Sequential loaded = nn::Sequential::load_file(path);
  EXPECT_EQ(loaded.name(), "tiny");
  EXPECT_EQ(loaded.size(), m.size());
  const Tensor y_after = loaded.forward(x, false);
  for (std::int64_t i = 0; i < y_before.numel(); ++i)
    EXPECT_FLOAT_EQ(y_after[i], y_before[i]);
  std::remove(path.c_str());
}

TEST(Sequential, FullArchitectureRoundTrips) {
  nn::Sequential m = core::build_bnn(core::ArchitectureId::kMicroCnv, 11);
  util::Rng rng(12);
  const Tensor x = random_tensor(Shape{2, 32, 32, 3}, rng);
  m.forward(x, true);  // warm BN stats
  const Tensor y_before = m.forward(x, false);

  const std::string path = unique_temp_path("ucnv.bcop");
  m.save(path);
  nn::Sequential loaded = nn::Sequential::load_file(path);
  const Tensor y_after = loaded.forward(x, false);
  for (std::int64_t i = 0; i < y_before.numel(); ++i)
    EXPECT_FLOAT_EQ(y_after[i], y_before[i]);
  std::remove(path.c_str());
}

TEST(Sequential, LoadRejectsCorruptMagic) {
  const std::string path = unique_temp_path("corrupt.bcop");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAMODELFILE___________";
  }
  EXPECT_THROW(nn::Sequential::load_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Sequential, LoadRejectsTruncatedFile) {
  nn::Sequential m = tiny_model(13);
  const std::string path = unique_temp_path("trunc.bcop");
  m.save(path);
  // Truncate to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(nn::Sequential::load_file(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Sequential, MissingFileThrows) {
  EXPECT_THROW(nn::Sequential::load_file("/no/such/model.bcop"),
               std::runtime_error);
}

TEST(MakeLayer, UnknownTypeThrows) {
  EXPECT_THROW(nn::make_layer("FancyAttention"), std::runtime_error);
}

TEST(MakeLayer, CreatesEveryRegisteredType) {
  for (const char* type :
       {"BatchNorm", "BinaryConv2d", "BinaryDense", "Conv2d", "Dense",
        "Flatten", "MaxPool2", "ReLU", "SignActivation"}) {
    const auto layer = nn::make_layer(type);
    ASSERT_NE(layer, nullptr);
    EXPECT_STREQ(layer->type(), type);
  }
}

}  // namespace
