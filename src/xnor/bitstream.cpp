#include "xnor/bitstream.hpp"

#include <bit>
#include <stdexcept>
#include <string>

#include "util/serialize.hpp"

namespace bcop::xnor {

using tensor::BitMatrix;
using tensor::Shape;
using tensor::Tensor;
using util::BinaryReader;
using util::BinaryWriter;

namespace {

// v1: classic single-level stages. v2 appends a RSDL residual section
// (level count, dyadic scale bits, pattern threshold banks) after each
// binary stage's thresholds; v1 files load as levels = 1 defaults.
constexpr std::uint32_t kVersion = 2;

// Every count and dimension comes from an untrusted file, so each is
// checked before it sizes an allocation: a crafted header must surface as
// std::runtime_error, never as length_error, bad_alloc or invalid_argument.
// Dimensions above 2^20 exceed any real layer and keep k*k*ci products far
// from overflow.
constexpr std::uint64_t kMaxDim = std::uint64_t{1} << 20;

std::int64_t read_dim(BinaryReader& r) {
  const std::uint64_t v = r.read_u64();
  if (v > kMaxDim)
    throw std::runtime_error("bitstream: dimension " + std::to_string(v) +
                             " out of range");
  return static_cast<std::int64_t>(v);
}

/// Reject `count` records of at least `min_bytes` each when the rest of
/// the file cannot hold them.
void check_count(BinaryReader& r, std::uint64_t count, std::uint64_t min_bytes,
                 const char* what) {
  if (count > r.remaining() / min_bytes)
    throw std::runtime_error("bitstream: " + std::string(what) + " count " +
                             std::to_string(count) + " exceeds the file");
}

void write_thresholds(BinaryWriter& w, const ThresholdSpec& spec) {
  w.write_tag("THRS");
  std::vector<std::uint64_t> t(spec.t.size());
  for (std::size_t i = 0; i < spec.t.size(); ++i)
    t[i] = std::bit_cast<std::uint64_t>(spec.t[i]);
  w.write_u64_array(t);
  std::vector<std::int32_t> flips(spec.flip.begin(), spec.flip.end());
  w.write_i32_array(flips);
}

ThresholdSpec read_thresholds(BinaryReader& r) {
  r.expect_tag("THRS");
  ThresholdSpec spec;
  const auto t = r.read_u64_array();
  spec.t.resize(t.size());
  for (std::size_t i = 0; i < t.size(); ++i)
    spec.t[i] = std::bit_cast<std::int64_t>(t[i]);
  const auto flips = r.read_i32_array();
  if (flips.size() != t.size())
    throw std::runtime_error("bitstream: threshold arity mismatch");
  spec.flip.resize(flips.size());
  for (std::size_t i = 0; i < flips.size(); ++i)
    spec.flip[i] = static_cast<std::uint8_t>(flips[i] != 0);
  return spec;
}

void write_bits(BinaryWriter& w, const BitMatrix& m) {
  w.write_tag("BITS");
  w.write_u64(static_cast<std::uint64_t>(m.rows()));
  w.write_u64(static_cast<std::uint64_t>(m.cols()));
  w.write_u64_array(m.storage());
}

BitMatrix read_bits(BinaryReader& r) {
  r.expect_tag("BITS");
  const std::int64_t rows = read_dim(r);
  const std::int64_t cols = read_dim(r);
  check_count(r, static_cast<std::uint64_t>(rows * ((cols + 63) / 64)),
              sizeof(std::uint64_t), "packed weight word");
  BitMatrix m(rows, cols);
  const auto words = r.read_u64_array();
  if (words.size() != static_cast<std::size_t>(rows * m.words_per_row()))
    throw std::runtime_error("bitstream: packed weight size mismatch");
  for (std::int64_t row = 0; row < rows; ++row)
    for (std::int64_t word = 0; word < m.words_per_row(); ++word)
      m.row(row)[word] =
          words[static_cast<std::size_t>(row * m.words_per_row() + word)];
  return m;
}

void write_residual(BinaryWriter& w, const ResidualSpec& spec) {
  w.write_tag("RSDL");
  w.write_u64(static_cast<std::uint64_t>(spec.levels));
  w.write_i32_array(spec.scale_bits);
  w.write_u64(spec.extra_banks.size());
  for (const ThresholdSpec& bank : spec.extra_banks) write_thresholds(w, bank);
}

ResidualSpec read_residual(BinaryReader& r) {
  r.expect_tag("RSDL");
  ResidualSpec spec;
  spec.levels = static_cast<std::int64_t>(r.read_u64());
  if (spec.levels < 1 || spec.levels > 3)
    throw std::runtime_error("bitstream: residual level count out of [1, 3]");
  spec.scale_bits = r.read_i32_array();
  if (!spec.scale_bits.empty() &&
      static_cast<std::int64_t>(spec.scale_bits.size()) != spec.levels)
    throw std::runtime_error("bitstream: residual scale arity mismatch");
  const std::uint64_t banks = r.read_u64();
  if (banks != (std::uint64_t{1} << spec.levels) - 2)
    throw std::runtime_error("bitstream: residual bank count mismatch");
  spec.extra_banks.reserve(banks);
  for (std::uint64_t b = 0; b < banks; ++b)
    spec.extra_banks.push_back(read_thresholds(r));
  return spec;
}

}  // namespace

void save_bitstream(const XnorNetwork& net, const std::string& path) {
  BinaryWriter w(path);
  w.write_tag("BCBS");
  w.write_u32(kVersion);
  w.write_string(net.name());
  w.write_u64(net.stages().size());
  for (const Stage& stage : net.stages()) {
    if (const auto* st = std::get_if<FirstConvStage>(&stage)) {
      w.write_tag("FCNV");
      w.write_u64(static_cast<std::uint64_t>(st->k));
      w.write_u64(static_cast<std::uint64_t>(st->ci));
      w.write_u64(static_cast<std::uint64_t>(st->co));
      // First-layer weights are {-1,+1}; store them sign-packed by output
      // channel like every other stage.
      BitMatrix packed(st->co, st->k * st->k * st->ci);
      for (std::int64_t o = 0; o < st->co; ++o)
        for (std::int64_t i = 0; i < st->k * st->k * st->ci; ++i)
          packed.set_from_sign(o, i, st->weights.at2(i, o));
      write_bits(w, packed);
      write_thresholds(w, st->thresholds);
      write_residual(w, st->residual);
    } else if (const auto* st2 = std::get_if<BinConvStage>(&stage)) {
      w.write_tag("BCNV");
      w.write_u64(static_cast<std::uint64_t>(st2->k));
      w.write_u64(static_cast<std::uint64_t>(st2->ci));
      w.write_u64(static_cast<std::uint64_t>(st2->co));
      write_bits(w, st2->weights);
      write_thresholds(w, st2->thresholds);
      write_residual(w, st2->residual);
    } else if (std::get_if<PoolStage>(&stage)) {
      w.write_tag("POOL");
    } else if (std::get_if<FlattenStage>(&stage)) {
      w.write_tag("FLAT");
    } else if (const auto* st3 = std::get_if<BinDenseStage>(&stage)) {
      w.write_tag("BDNS");
      w.write_u64(static_cast<std::uint64_t>(st3->in));
      w.write_u64(static_cast<std::uint64_t>(st3->out));
      w.write_u32(st3->has_threshold ? 1 : 0);
      write_bits(w, st3->weights);
      if (st3->has_threshold) {
        write_thresholds(w, st3->thresholds);
        write_residual(w, st3->residual);
      }
    }
  }
  w.close();
}

XnorNetwork load_bitstream(const std::string& path) {
  BinaryReader r(path);
  r.expect_tag("BCBS");
  const std::uint32_t version = r.read_u32();
  if (version < 1 || version > kVersion)
    throw std::runtime_error("bitstream: unsupported version " +
                             std::to_string(version));
  // v1 files predate residual binarization: every stage loads with the
  // default (levels = 1, unscaled) descriptor.
  const bool has_residual = version >= 2;
  const std::string name = r.read_string();
  const std::uint64_t count = r.read_u64();
  if (count == 0) throw std::runtime_error("bitstream: no stages");
  check_count(r, count, 4, "stage");  // a stage is at least its tag
  std::vector<Stage> stages;
  stages.reserve(count);
  for (std::uint64_t s = 0; s < count; ++s) {
    char tag[4];
    // Peek the section tag by reading it as a 4-byte string.
    const std::string kind = [&] {
      std::string k(4, '\0');
      // BinaryReader has no raw peek; read via expect-less path: reuse
      // read_u32 and decode bytes.
      const std::uint32_t v = r.read_u32();
      k[0] = static_cast<char>(v & 0xff);
      k[1] = static_cast<char>((v >> 8) & 0xff);
      k[2] = static_cast<char>((v >> 16) & 0xff);
      k[3] = static_cast<char>((v >> 24) & 0xff);
      return k;
    }();
    (void)tag;
    if (kind == "FCNV") {
      FirstConvStage st;
      st.k = read_dim(r);
      st.ci = read_dim(r);
      st.co = read_dim(r);
      const BitMatrix packed = read_bits(r);
      if (packed.rows() != st.co || packed.cols() != st.k * st.k * st.ci)
        throw std::runtime_error("bitstream: FirstConv geometry mismatch");
      st.weights = Tensor(Shape{st.k * st.k * st.ci, st.co});
      for (std::int64_t o = 0; o < st.co; ++o)
        for (std::int64_t i = 0; i < packed.cols(); ++i)
          st.weights.at2(i, o) = packed.get(o, i) ? 1.f : -1.f;
      st.thresholds = read_thresholds(r);
      if (has_residual) st.residual = read_residual(r);
      stages.emplace_back(std::move(st));
    } else if (kind == "BCNV") {
      BinConvStage st;
      st.k = read_dim(r);
      st.ci = read_dim(r);
      st.co = read_dim(r);
      st.weights = read_bits(r);
      if (st.weights.rows() != st.co ||
          st.weights.cols() != st.k * st.k * st.ci)
        throw std::runtime_error("bitstream: BinConv geometry mismatch");
      st.thresholds = read_thresholds(r);
      if (has_residual) st.residual = read_residual(r);
      stages.emplace_back(std::move(st));
    } else if (kind == "POOL") {
      stages.emplace_back(PoolStage{});
    } else if (kind == "FLAT") {
      stages.emplace_back(FlattenStage{});
    } else if (kind == "BDNS") {
      BinDenseStage st;
      st.in = read_dim(r);
      st.out = read_dim(r);
      st.has_threshold = r.read_u32() != 0;
      st.weights = read_bits(r);
      if (st.weights.rows() != st.out || st.weights.cols() != st.in)
        throw std::runtime_error("bitstream: BinDense geometry mismatch");
      if (st.has_threshold) {
        st.thresholds = read_thresholds(r);
        if (has_residual) st.residual = read_residual(r);
      }
      stages.emplace_back(std::move(st));
    } else {
      throw std::runtime_error("bitstream: unknown stage tag '" + kind + "'");
    }
  }
  return XnorNetwork(name, std::move(stages));
}

}  // namespace bcop::xnor
