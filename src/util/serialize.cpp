#include "util/serialize.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace bcop::util {

static_assert(std::endian::native == std::endian::little,
              "bcop serialization targets little-endian hosts");

// Arrays above this length are rejected by the reader: real model files are
// far smaller, so a larger length means a corrupt file. A length the file
// cannot hold (more bytes than remain) is rejected too, so a corrupt or
// truncated file fails before anything is allocated for it.
constexpr std::uint64_t kMaxArrayLen = 1ull << 28;

std::int64_t checked_numel(std::initializer_list<std::int64_t> dims) {
  constexpr auto kMax = static_cast<std::int64_t>(kMaxArrayLen);
  std::int64_t n = 1;
  for (const std::int64_t d : dims) {
    if (d < 1 || d > kMax / n) return -1;
    n *= d;
  }
  return n;
}

BinaryWriter::BinaryWriter(const std::string& path)
    : out_(path, std::ios::binary), path_(path) {
  if (!out_) throw std::runtime_error("BinaryWriter: cannot open " + path);
}

void BinaryWriter::raw(const void* p, std::size_t n) {
  out_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
}

void BinaryWriter::write_tag(const char tag[4]) { raw(tag, 4); }
void BinaryWriter::write_u32(std::uint32_t v) { raw(&v, sizeof v); }
void BinaryWriter::write_u64(std::uint64_t v) { raw(&v, sizeof v); }
void BinaryWriter::write_i32(std::int32_t v) { raw(&v, sizeof v); }
void BinaryWriter::write_f32(float v) { raw(&v, sizeof v); }

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  raw(s.data(), s.size());
}

void BinaryWriter::write_f32_array(const std::vector<float>& v) {
  write_u64(v.size());
  raw(v.data(), v.size() * sizeof(float));
}

void BinaryWriter::write_u64_array(const std::vector<std::uint64_t>& v) {
  write_u64(v.size());
  raw(v.data(), v.size() * sizeof(std::uint64_t));
}

void BinaryWriter::write_i32_array(const std::vector<std::int32_t>& v) {
  write_u64(v.size());
  raw(v.data(), v.size() * sizeof(std::int32_t));
}

void BinaryWriter::close() {
  out_.flush();
  if (!out_) throw std::runtime_error("BinaryWriter: write failed for " + path_);
  out_.close();
}

BinaryReader::BinaryReader(const std::string& path)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_) throw std::runtime_error("BinaryReader: cannot open " + path);
}

void BinaryReader::raw(void* p, std::size_t n) {
  in_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (!in_) throw std::runtime_error("BinaryReader: truncated file " + path_);
}

void BinaryReader::expect_tag(const char tag[4]) {
  char got[4];
  raw(got, 4);
  if (std::memcmp(got, tag, 4) != 0) {
    throw std::runtime_error("BinaryReader: tag mismatch in " + path_ +
                             ": expected '" + std::string(tag, 4) + "', got '" +
                             std::string(got, 4) + "'");
  }
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v;
  raw(&v, sizeof v);
  return v;
}
std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v;
  raw(&v, sizeof v);
  return v;
}
std::int32_t BinaryReader::read_i32() {
  std::int32_t v;
  raw(&v, sizeof v);
  return v;
}
float BinaryReader::read_f32() {
  float v;
  raw(&v, sizeof v);
  return v;
}

std::uint64_t BinaryReader::read_count(std::size_t elem_size,
                                       const char* what) {
  const std::uint64_t n = read_u64();
  // kMaxArrayLen first, so n * elem_size (elem_size <= 8) cannot overflow.
  if (n > kMaxArrayLen || n * elem_size > remaining())
    throw std::runtime_error(std::string("BinaryReader: bad ") + what +
                             " length in " + path_);
  return n;
}

std::string BinaryReader::read_string() {
  const std::uint64_t n = read_count(1, "string");
  std::string s(n, '\0');
  raw(s.data(), n);
  return s;
}

template <typename T>
std::vector<T> BinaryReader::read_array() {
  const std::uint64_t n = read_count(sizeof(T), "array");
  std::vector<T> v(n);
  raw(v.data(), n * sizeof(T));
  return v;
}

std::vector<float> BinaryReader::read_f32_array() { return read_array<float>(); }
std::vector<std::uint64_t> BinaryReader::read_u64_array() {
  return read_array<std::uint64_t>();
}
std::vector<std::int32_t> BinaryReader::read_i32_array() {
  return read_array<std::int32_t>();
}

bool BinaryReader::eof() {
  return in_.peek() == std::char_traits<char>::eof();
}

std::uint64_t BinaryReader::remaining() {
  const std::streampos pos = in_.tellg();
  in_.seekg(0, std::ios::end);
  const std::streampos end = in_.tellg();
  in_.seekg(pos);
  if (!in_ || pos < 0 || end < pos)
    throw std::runtime_error("BinaryReader: cannot size " + path_);
  return static_cast<std::uint64_t>(end - pos);
}

}  // namespace bcop::util
