// Seeded corruption corpus for the two model artifacts: a saved u-CNV
// model file (.bcop, nn::Sequential::load_file) and its folded bitstream
// (.bcbs, xnor::load_bitstream). In the style of test_net_parser's torn
// and garbage inputs: every artifact is truncated at every offset of its
// header region and at a seeded offset in each stride window through the
// rest, then byte-flipped at the same offsets.
//
// Contract under test: a model file is untrusted input, so a damaged
// artifact surfaces as std::runtime_error -- never bad_alloc,
// length_error, invalid_argument or a crash. A truncated file must always
// be rejected; a flipped byte may land in a weight or a name and still
// load, so a flip must either load or throw std::runtime_error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/architecture.hpp"
#include "nn/sequential.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "xnor/bitstream.hpp"
#include "xnor/engine.hpp"

namespace {

using namespace bcop;
using bcop::testhelpers::unique_temp_path;

using Loader = std::function<void(const std::string&)>;

/// Every offset below this is a corpus case: it covers the file header and
/// the first layers' tags, dimensions and array lengths.
constexpr std::size_t kHeaderBytes = 256;
/// Past the header, one seeded offset per window, this many windows.
constexpr std::size_t kStrideWindows = 256;

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::size_t> corpus_offsets(std::size_t size, std::uint64_t seed) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < std::min(size, kHeaderBytes); ++i)
    out.push_back(i);
  if (size <= kHeaderBytes) return out;
  util::Rng rng(seed);
  const std::size_t stride =
      std::max<std::size_t>(1, (size - kHeaderBytes) / kStrideWindows);
  for (std::size_t base = kHeaderBytes; base < size; base += stride) {
    const auto jitter = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(stride) - 1));
    out.push_back(std::min(size - 1, base + jitter));
  }
  return out;
}

/// Writes `bytes` to `path` and loads it. Returns true when it loaded,
/// false on std::runtime_error; any other exception fails the test.
bool loads(const Loader& load, const std::string& path,
           const std::string& bytes, const std::string& label) {
  write_bytes(path, bytes);
  try {
    load(path);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": stray " << typeid(e).name() << ": "
                  << e.what();
    return false;
  }
}

struct Artifact {
  std::string bytes;
  Loader load;
};

Artifact saved_model() {
  const std::string path = unique_temp_path("corpus_src.bcop");
  core::build_bnn(core::ArchitectureId::kMicroCnv, 51).save(path);
  Artifact a{read_bytes(path),
             [](const std::string& p) { (void)nn::Sequential::load_file(p); }};
  std::remove(path.c_str());
  return a;
}

Artifact saved_bitstream() {
  const std::string path = unique_temp_path("corpus_src.bcbs");
  nn::Sequential model = core::build_bnn(core::ArchitectureId::kMicroCnv, 52);
  xnor::save_bitstream(xnor::XnorNetwork::fold(model), path);
  Artifact a{read_bytes(path),
             [](const std::string& p) { (void)xnor::load_bitstream(p); }};
  std::remove(path.c_str());
  return a;
}

void expect_truncations_rejected(const Artifact& a, std::uint64_t seed) {
  const std::string path = unique_temp_path("corpus_trunc");
  ASSERT_TRUE(loads(a.load, path, a.bytes, "intact"));
  for (const std::size_t cut : corpus_offsets(a.bytes.size(), seed)) {
    const std::string label = "truncated at " + std::to_string(cut);
    EXPECT_FALSE(loads(a.load, path, a.bytes.substr(0, cut), label))
        << label << ": loaded a truncated file";
  }
  std::remove(path.c_str());
}

void expect_flips_load_or_reject(const Artifact& a, std::uint64_t seed) {
  const std::string path = unique_temp_path("corpus_flip");
  int rejected = 0;
  for (const std::size_t at : corpus_offsets(a.bytes.size(), seed)) {
    std::string bytes = a.bytes;
    bytes[at] = static_cast<char>(~bytes[at]);
    const std::string label = "flipped at " + std::to_string(at);
    const bool ok = loads(a.load, path, bytes, label);
    if (!ok) ++rejected;
    if (at < 4) {
      EXPECT_FALSE(ok) << label << ": a flipped magic byte must reject";
    }
  }
  EXPECT_GT(rejected, 0);
  std::remove(path.c_str());
}

TEST(ArtifactCorpus, ModelTruncationsThrowRuntimeError) {
  expect_truncations_rejected(saved_model(), 61);
}

TEST(ArtifactCorpus, ModelByteFlipsLoadOrThrowRuntimeError) {
  expect_flips_load_or_reject(saved_model(), 62);
}

TEST(ArtifactCorpus, BitstreamTruncationsThrowRuntimeError) {
  expect_truncations_rejected(saved_bitstream(), 63);
}

TEST(ArtifactCorpus, BitstreamByteFlipsLoadOrThrowRuntimeError) {
  expect_flips_load_or_reject(saved_bitstream(), 64);
}

}  // namespace
