#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "util/image.hpp"
#include "util/rng.hpp"
#include "test_helpers.hpp"

namespace {

using bcop::testhelpers::unique_temp_path;

using bcop::util::Image;

TEST(Image, ConstructionAndAccess) {
  Image img(4, 6, 0.25f);
  EXPECT_EQ(img.height(), 4);
  EXPECT_EQ(img.width(), 6);
  EXPECT_FLOAT_EQ(img.at(3, 5, 2), 0.25f);
  img.at(1, 2, 0) = 0.75f;
  EXPECT_FLOAT_EQ(img.at(1, 2, 0), 0.75f);
}

TEST(Image, SetRgbClippedIgnoresOutOfBounds) {
  Image img(2, 2);
  img.set_rgb_clipped(-1, 0, 1, 1, 1);
  img.set_rgb_clipped(0, 5, 1, 1, 1);
  for (const float v : img.data()) EXPECT_FLOAT_EQ(v, 0.f);
  img.set_rgb_clipped(1, 1, 0.5f, 0.6f, 0.7f);
  EXPECT_FLOAT_EQ(img.at(1, 1, 1), 0.6f);
}

TEST(Image, BlendInterpolates) {
  Image img(1, 1);
  img.set_rgb(0, 0, 0.f, 0.f, 0.f);
  img.blend_rgb_clipped(0, 0, 1.f, 1.f, 1.f, 0.5f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 0.5f);
}

TEST(Image, Clamp01) {
  Image img(1, 2);
  img.set_rgb(0, 0, -0.5f, 1.5f, 0.5f);
  img.clamp01();
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 0.f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 1), 1.f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 2), 0.5f);
}

TEST(Ppm, RoundTripQuantizesTo8Bit) {
  bcop::util::Rng rng(1);
  Image img(16, 24);
  for (auto& v : img.data()) v = static_cast<float>(rng.uniform());
  const std::string path = unique_temp_path("roundtrip.ppm");
  bcop::util::write_ppm(path, img);
  const Image back = bcop::util::read_ppm(path);
  ASSERT_EQ(back.height(), 16);
  ASSERT_EQ(back.width(), 24);
  for (std::size_t i = 0; i < img.data().size(); ++i)
    EXPECT_NEAR(back.data()[i], img.data()[i], 1.f / 255.f + 1e-5f);
  std::remove(path.c_str());
}

TEST(Ppm, ExactRoundTripFor8BitValues) {
  Image img(2, 2);
  img.set_rgb(0, 0, 0.f, 1.f, 128.f / 255.f);
  img.set_rgb(1, 1, 17.f / 255.f, 200.f / 255.f, 255.f / 255.f);
  const std::string path = unique_temp_path("exact.ppm");
  bcop::util::write_ppm(path, img);
  const Image back = bcop::util::read_ppm(path);
  for (std::size_t i = 0; i < img.data().size(); ++i)
    EXPECT_FLOAT_EQ(back.data()[i], img.data()[i]);
  std::remove(path.c_str());
}

TEST(Ppm, MissingFileThrows) {
  EXPECT_THROW(bcop::util::read_ppm("/nonexistent/nope.ppm"),
               std::runtime_error);
}

TEST(Ppm, MalformedMagicThrows) {
  const std::string path = unique_temp_path("bad.ppm");
  {
    std::ofstream out(path);
    out << "P3\n2 2\n255\n";
  }
  EXPECT_THROW(bcop::util::read_ppm(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Ppm, TruncatedPixelDataThrows) {
  const std::string path = unique_temp_path("trunc.ppm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P6\n4 4\n255\n";
    out << "onlyafewbytes";
  }
  EXPECT_THROW(bcop::util::read_ppm(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Pgm, WritesHeaderAndPayload) {
  const std::string path = unique_temp_path("gray.pgm");
  bcop::util::write_pgm(path, {0.f, 0.5f, 1.f, 0.25f}, 2, 2);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P5");
  std::remove(path.c_str());
}

TEST(Pgm, SizeMismatchThrows) {
  EXPECT_THROW(
      bcop::util::write_pgm(unique_temp_path("x.pgm"), {0.f, 1.f}, 2, 2),
      std::invalid_argument);
}

}  // namespace
