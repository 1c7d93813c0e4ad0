#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/serialize.hpp"
#include "test_helpers.hpp"

namespace {

using bcop::testhelpers::unique_temp_path;

using bcop::util::BinaryReader;
using bcop::util::BinaryWriter;

TEST(Serialize, RoundTripAllTypes) {
  const std::string path = unique_temp_path("ser.bin");
  {
    BinaryWriter w(path);
    w.write_tag("HEAD");
    w.write_u32(0xdeadbeef);
    w.write_u64(0x0123456789abcdefull);
    w.write_i32(-42);
    w.write_f32(3.5f);
    w.write_string("binarycop");
    w.write_f32_array({1.f, -2.f, 3.25f});
    w.write_u64_array({7ull, 8ull});
    w.write_i32_array({-1, 0, 1});
    w.close();
  }
  BinaryReader r(path);
  r.expect_tag("HEAD");
  EXPECT_EQ(r.read_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.read_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.read_i32(), -42);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.5f);
  EXPECT_EQ(r.read_string(), "binarycop");
  EXPECT_EQ(r.read_f32_array(), (std::vector<float>{1.f, -2.f, 3.25f}));
  EXPECT_EQ(r.read_u64_array(), (std::vector<std::uint64_t>{7ull, 8ull}));
  EXPECT_EQ(r.read_i32_array(), (std::vector<std::int32_t>{-1, 0, 1}));
  EXPECT_TRUE(r.eof());
  std::remove(path.c_str());
}

TEST(Serialize, TagMismatchThrowsWithBothTags) {
  const std::string path = unique_temp_path("tag.bin");
  {
    BinaryWriter w(path);
    w.write_tag("AAAA");
    w.close();
  }
  BinaryReader r(path);
  try {
    r.expect_tag("BBBB");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("AAAA"), std::string::npos);
    EXPECT_NE(msg.find("BBBB"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedFileThrows) {
  const std::string path = unique_temp_path("short.bin");
  {
    BinaryWriter w(path);
    w.write_u32(1);
    w.close();
  }
  BinaryReader r(path);
  EXPECT_THROW(r.read_u64(), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, AbsurdArrayLengthRejected) {
  const std::string path = unique_temp_path("huge.bin");
  {
    BinaryWriter w(path);
    w.write_u64(1ull << 40);  // claims a 2^40-element array
    w.close();
  }
  BinaryReader r(path);
  EXPECT_THROW(r.read_f32_array(), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(BinaryReader("/no/such/file.bin"), std::runtime_error);
}

TEST(Serialize, UnwritablePathThrows) {
  EXPECT_THROW(BinaryWriter("/no/such/dir/file.bin"), std::runtime_error);
}

TEST(Serialize, EmptyArraysRoundTrip) {
  const std::string path = unique_temp_path("empty.bin");
  {
    BinaryWriter w(path);
    w.write_f32_array({});
    w.write_string("");
    w.close();
  }
  BinaryReader r(path);
  EXPECT_TRUE(r.read_f32_array().empty());
  EXPECT_TRUE(r.read_string().empty());
  std::remove(path.c_str());
}

}  // namespace
