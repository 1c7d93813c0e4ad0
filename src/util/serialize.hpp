// Tagged little-endian binary serialization for model files.
//
// The format is deliberately explicit: every write carries a 4-byte tag that
// the reader checks, so version or layout drift is detected immediately
// instead of producing silently corrupt weights. All multi-byte values are
// little-endian; this library targets little-endian hosts (checked at open).
#pragma once

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

namespace bcop::util {

/// Element count of a tensor whose dimensions came from an untrusted file,
/// or -1 when a dimension is < 1 or the product exceeds the reader's array
/// limit. Never overflows; loaders compare it with the array they read
/// before sizing any tensor from the dimensions.
std::int64_t checked_numel(std::initializer_list<std::int64_t> dims);

class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);

  void write_tag(const char tag[4]);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v);
  void write_f32(float v);
  void write_string(const std::string& s);
  void write_f32_array(const std::vector<float>& v);
  void write_u64_array(const std::vector<std::uint64_t>& v);
  void write_i32_array(const std::vector<std::int32_t>& v);

  /// Flush and verify stream health; throws if any write failed.
  void close();

 private:
  void raw(const void* p, std::size_t n);
  std::ofstream out_;
  std::string path_;
};

class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);

  /// Throws std::runtime_error naming both tags if the next tag mismatches.
  void expect_tag(const char tag[4]);
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  float read_f32();
  std::string read_string();
  std::vector<float> read_f32_array();
  std::vector<std::uint64_t> read_u64_array();
  std::vector<std::int32_t> read_i32_array();

  bool eof();

  /// Bytes left between the read position and the end of the file. Loaders
  /// check untrusted counts against it before reserving or allocating.
  std::uint64_t remaining();

 private:
  void raw(void* p, std::size_t n);
  /// Read an element count and reject it -- std::runtime_error naming
  /// `what` -- above kMaxArrayLen or beyond the bytes left in the file,
  /// before the caller allocates anything for it.
  std::uint64_t read_count(std::size_t elem_size, const char* what);
  template <typename T>
  std::vector<T> read_array();
  std::ifstream in_;
  std::string path_;
};

}  // namespace bcop::util
