#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <typeinfo>

#include "core/architecture.hpp"
#include "facegen/dataset.hpp"
#include "facegen/renderer.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax_xent.hpp"
#include "test_helpers.hpp"
#include "util/serialize.hpp"
#include "xnor/bitstream.hpp"

namespace {

using bcop::testhelpers::unique_temp_path;

using namespace bcop;

xnor::XnorNetwork trained_ish_network(std::uint64_t seed) {
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, seed);
  util::Rng rng(seed + 1);
  nn::Adam opt(model, 1e-2f);
  nn::SoftmaxCrossEntropy head;
  for (int i = 0; i < 4; ++i) {
    const auto x =
        bcop::testhelpers::random_tensor(tensor::Shape{3, 32, 32, 3}, rng);
    head.forward(model.forward(x, true), {0, 1, 2});
    model.backward(head.backward());
    opt.step();
  }
  return xnor::XnorNetwork::fold(model);
}

TEST(Bitstream, RoundTripPreservesLogitsExactly) {
  const xnor::XnorNetwork net = trained_ish_network(1);
  const std::string path = unique_temp_path("test.bcbs");
  xnor::save_bitstream(net, path);
  const xnor::XnorNetwork loaded = xnor::load_bitstream(path);

  EXPECT_EQ(loaded.name(), net.name());
  ASSERT_EQ(loaded.stages().size(), net.stages().size());
  for (std::size_t i = 0; i < net.stages().size(); ++i)
    EXPECT_EQ(xnor::stage_kind(loaded.stages()[i]),
              xnor::stage_kind(net.stages()[i]));

  util::Rng rng(2);
  for (int trial = 0; trial < 4; ++trial) {
    const auto attrs = facegen::sample_attributes(
        static_cast<facegen::MaskClass>(trial), rng);
    const auto x = facegen::MaskedFaceDataset::image_to_tensor(
        facegen::render_face(attrs).image);
    const auto a = net.forward(x);
    const auto b = loaded.forward(x);
    for (std::int64_t j = 0; j < a.numel(); ++j)
      ASSERT_FLOAT_EQ(a[j], b[j]);
  }
  std::remove(path.c_str());
}

// v2 bitstreams carry the ReBNet residual descriptors (levels, dyadic
// scale bits, pattern threshold banks); a reloaded M = 3 network must
// serve identical logits at the full depth AND at every truncated cap.
TEST(Bitstream, ResidualRoundTripPreservesLogitsAtEveryLevelCap) {
  nn::Sequential model =
      core::build_bnn(core::ArchitectureId::kMicroCnv, 6, /*residual_levels=*/3);
  util::Rng rng(7);
  nn::Adam opt(model, 1e-2f);
  nn::SoftmaxCrossEntropy head;
  for (int i = 0; i < 4; ++i) {
    const auto xt =
        bcop::testhelpers::random_tensor(tensor::Shape{3, 32, 32, 3}, rng);
    head.forward(model.forward(xt, true), {0, 1, 2});
    model.backward(head.backward());
    opt.step();
  }
  const xnor::XnorNetwork net = xnor::XnorNetwork::fold(model);
  ASSERT_EQ(net.max_levels(), 3);

  const std::string path = unique_temp_path("residual.bcbs");
  xnor::save_bitstream(net, path);
  const xnor::XnorNetwork loaded = xnor::load_bitstream(path);
  EXPECT_EQ(loaded.max_levels(), 3);
  EXPECT_EQ(loaded.weight_bits(), net.weight_bits());

  const auto x = bcop::testhelpers::random_tensor(
      tensor::Shape{2, 32, 32, 3}, rng);
  for (std::int64_t cap = 0; cap <= 3; ++cap) {
    const auto a = net.forward_batch(x, cap);
    const auto b = loaded.forward_batch(x, cap);
    ASSERT_EQ(a.shape(), b.shape());
    for (std::int64_t j = 0; j < a.numel(); ++j)
      ASSERT_FLOAT_EQ(a[j], b[j]) << "cap " << cap << " logit " << j;
  }
  std::remove(path.c_str());
}

TEST(Bitstream, WeightBitsSurviveRoundTrip) {
  const xnor::XnorNetwork net = trained_ish_network(3);
  const std::string path = unique_temp_path("bits.bcbs");
  xnor::save_bitstream(net, path);
  const xnor::XnorNetwork loaded = xnor::load_bitstream(path);
  EXPECT_EQ(loaded.weight_bits(), net.weight_bits());
}

TEST(Bitstream, ArtifactIsCompact) {
  const xnor::XnorNetwork net = trained_ish_network(4);
  const std::string path = unique_temp_path("size.bcbs");
  xnor::save_bitstream(net, path);
  const auto bytes = std::filesystem::file_size(path);
  // Packed weights + 64-bit thresholds; must be well under the float model.
  EXPECT_LT(bytes, static_cast<std::uintmax_t>(net.weight_bits() / 8 * 6));
  EXPECT_GT(bytes, static_cast<std::uintmax_t>(net.weight_bits() / 8));
  std::remove(path.c_str());
}

TEST(Bitstream, CorruptMagicRejected) {
  const std::string path = unique_temp_path("corrupt.bcbs");
  {
    std::ofstream out(path, std::ios::binary);
    out << "JUNKJUNKJUNKJUNK";
  }
  EXPECT_THROW(xnor::load_bitstream(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Bitstream, TruncationRejected) {
  const xnor::XnorNetwork net = trained_ish_network(5);
  const std::string path = unique_temp_path("trunc.bcbs");
  xnor::save_bitstream(net, path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 3);
  EXPECT_THROW(xnor::load_bitstream(path), std::runtime_error);
  std::remove(path.c_str());
}

// Hostile headers: counts and dimensions that would size an allocation
// before any byte check. Each must surface as the loader's documented
// std::runtime_error -- never std::length_error (reserve of 2^61 stages),
// std::bad_alloc or std::invalid_argument (negative dimensions). The bank
// count row is caught by the bank-count-equals-2^levels-2 check, which
// bounds it before its reserve; the row keeps that check covered.
struct HostileHeader {
  const char* name;
  std::uint64_t stage_count, k, bits_rows, bank_count;
};

// ctest names carry the printed parameter. gtest's default byte dump would
// include the address of `name`, which ASLR moves on every listing, so the
// names would change from build to build; print the row name instead.
void PrintTo(const HostileHeader& h, std::ostream* os) { *os << h.name; }

class BitstreamHostileHeader : public ::testing::TestWithParam<HostileHeader> {
};

TEST_P(BitstreamHostileHeader, ThrowsRuntimeError) {
  const HostileHeader& h = GetParam();
  const std::string path = unique_temp_path("hostile.bcbs");
  {
    // One 1x1x1 binary conv with a two-level residual section, in the v2
    // layout save_bitstream writes, with the parameter's fields swapped in.
    util::BinaryWriter w(path);
    w.write_tag("BCBS");
    w.write_u32(2);
    w.write_string("hostile");
    w.write_u64(h.stage_count);
    w.write_tag("BCNV");
    w.write_u64(h.k);
    w.write_u64(1);  // ci
    w.write_u64(1);  // co
    w.write_tag("BITS");
    w.write_u64(h.bits_rows);
    w.write_u64(1);  // cols
    w.write_u64_array({1});
    w.write_tag("THRS");
    w.write_u64_array({0});
    w.write_i32_array({0});
    w.write_tag("RSDL");
    w.write_u64(2);  // levels
    w.write_i32_array({});
    w.write_u64(h.bank_count);
    w.close();
  }
  try {
    (void)xnor::load_bitstream(path);
    ADD_FAILURE() << h.name << ": loaded without an error";
  } catch (const std::runtime_error&) {
    // the documented error
  } catch (const std::exception& e) {
    ADD_FAILURE() << h.name << ": threw a stray " << typeid(e).name() << ": "
                  << e.what();
  }
  std::remove(path.c_str());
}

constexpr std::uint64_t kHuge = std::uint64_t{1} << 61;
constexpr std::uint64_t kMinusOne = ~std::uint64_t{0};

INSTANTIATE_TEST_SUITE_P(
    Table, BitstreamHostileHeader,
    ::testing::Values(HostileHeader{"huge_stage_count", kHuge, 1, 1, 2},
                      HostileHeader{"huge_bank_count", 1, 1, 1, kHuge},
                      HostileHeader{"negative_kernel", 1, kMinusOne, 1, 2},
                      HostileHeader{"negative_bits_rows", 1, 1, kMinusOne, 2},
                      HostileHeader{"huge_bits_rows", 1, 1, kHuge, 2}),
    [](const ::testing::TestParamInfo<HostileHeader>& info) {
      return std::string(info.param.name);
    });

TEST(Bitstream, EmptyNetworkRejected) {
  EXPECT_THROW(xnor::XnorNetwork("empty", {}), std::invalid_argument);
}

}  // namespace
