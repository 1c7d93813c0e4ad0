#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <numeric>
#include <thread>

#include "core/architecture.hpp"
#include "facegen/attributes.hpp"
#include "facegen/crowd.hpp"
#include "facegen/dataset.hpp"
#include "facegen/renderer.hpp"
#include "net/client.hpp"
#include "util/rng.hpp"

namespace perfbench {

using bcop::tensor::Shape;
using bcop::tensor::Tensor;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Samples::mean() const {
  if (v_.empty()) return 0;
  return std::accumulate(v_.begin(), v_.end(), 0.0) /
         static_cast<double>(v_.size());
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(s.size())));
  const std::size_t k = rank == 0 ? 0 : std::min(rank, s.size()) - 1;
  std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(k),
                   s.end());
  return s[k];
}

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

void Report::fail(const std::string& why) { failures_.push_back(why); }

void Report::check(bool ok, const std::string& what) {
  lines_.push_back((ok ? "check ok    " : "check FAIL  ") + what);
  if (!ok) fail(what);
}

namespace {

void print_metric(const char* kind, const Metric& m) {
  std::printf("%-6s %-34s %16.6g %-9s n=%-8zu %s\n", kind, m.name.c_str(),
              m.value, m.unit.c_str(), m.samples, m.note.c_str());
}

}  // namespace

void Report::print() const {
  for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
  for (const Metric& m : json_) print_metric("metric", m);
  for (const Metric& m : info_) print_metric("info", m);
  for (const std::string& f : failures_)
    std::printf("FAILED %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  attempted_, 1)),
              static_cast<unsigned long long>(failed_ + failures_.size()));
  for (std::size_t i = 0; i < json_.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", json_[i].name.c_str(), json_[i].value,
                json_[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;  // then the peak covers the whole process
  std::fputs("5", f);
  std::fclose(f);
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int nproc() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::unique_ptr<bcop::core::Predictor> build_ncnv(std::uint64_t seed,
                                                  std::int64_t levels) {
  return std::make_unique<bcop::core::Predictor>(
      bcop::core::build_bnn(bcop::core::ArchitectureId::kNCnv, seed, levels));
}

namespace {

constexpr int kSide = 32;
constexpr std::size_t kPixels = kSide * kSide * 3;

/// [0,1] pixel -> the u8 byte the 8-bit input grid maps it to (the same
/// rounding as MaskedFaceDataset::quantize_pixel).
char to_u8(float p) {
  const int v = static_cast<int>(std::clamp(p, 0.f, 1.f) * 255.f + 0.5f);
  return static_cast<char>(static_cast<unsigned char>(v));
}

/// The quantized float image a u8 payload stands for.
bcop::util::Image image_of(std::string_view bytes) {
  bcop::util::Image img(kSide, kSide);
  for (std::size_t i = 0; i < kPixels; ++i)
    img.data()[i] =
        static_cast<float>(static_cast<unsigned char>(bytes[i])) / 255.f;
  return img;
}

}  // namespace

std::string_view Faces::u8(std::size_t i) const {
  const std::string& r = request[i];
  return std::string_view(r).substr(r.size() - kPixels);
}

Tensor decode_u8(std::string_view bytes) {
  Tensor t(Shape{kSide, kSide, 3});
  for (std::size_t i = 0; i < kPixels; ++i) {
    const int b = static_cast<unsigned char>(bytes[i]);
    t[static_cast<std::int64_t>(i)] = static_cast<float>(2 * b - 255) / 255.f;
  }
  return t;
}

Faces render_faces(std::size_t n, std::uint64_t seed,
                   const bcop::core::Predictor& oracle) {
  bcop::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  Faces faces;
  faces.request.reserve(n);
  faces.label.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls = static_cast<bcop::facegen::MaskClass>(
        i % static_cast<std::size_t>(bcop::facegen::kNumClasses));
    const bcop::util::Image img =
        bcop::facegen::render_face(bcop::facegen::sample_attributes(cls, rng),
                                   kSide)
            .image;
    std::string bytes(kPixels, '\0');
    for (std::size_t j = 0; j < kPixels; ++j) bytes[j] = to_u8(img.data()[j]);
    faces.label.push_back(static_cast<int>(oracle.classify(image_of(bytes)).label));
    faces.request.push_back(bcop::net::format_request(
        "POST", "/v1/classify", bytes,
        "Content-Type: application/octet-stream\r\n"));
  }
  return faces;
}

void Tiles::copy_tile(std::size_t i, Tensor& one) const {
  if (one.shape() != Shape{1, kSide, kSide, 3})
    one = Tensor(Shape{1, kSide, kSide, 3});
  std::memcpy(one.data(), batch32[i / 32].data() + (i % 32) * kPixels,
              kPixels * sizeof(float));
}

Tiles render_tiles(std::size_t batches, std::uint64_t seed,
                   const bcop::core::Predictor& oracle) {
  bcop::util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 2);
  const bcop::facegen::CrowdConfig config;
  Tiles out;
  out.batch32.assign(batches, Tensor(Shape{32, kSide, kSide, 3}));
  std::size_t n = 0;
  while (n < batches * 32) {
    const bcop::facegen::CrowdScene scene =
        bcop::facegen::render_crowd(config, rng);
    for (const bcop::facegen::CrowdFace& face : scene.faces) {
      if (n == batches * 32) break;
      const Tensor t = bcop::facegen::MaskedFaceDataset::image_to_tensor(
          bcop::facegen::crop_resize(scene.canvas, face.bbox, kSide));
      std::memcpy(out.batch32[n / 32].data() + (n % 32) * kPixels, t.data(),
                  kPixels * sizeof(float));
      ++n;
    }
  }
  Tensor one;
  for (std::size_t i = 0; i < n; ++i) {
    out.copy_tile(i, one);
    out.label.push_back(
        static_cast<int>(oracle.classify_batch(one).front().label));
  }
  return out;
}

std::size_t float_graph_mismatches(bcop::core::Predictor& predictor,
                                   const Tensor& batch) {
  const Tensor ref = predictor.mutable_model().forward(batch, false);
  const Tensor got = predictor.network().forward_batch(batch);
  if (ref.shape() != got.shape()) return static_cast<std::size_t>(ref.numel());
  std::size_t bad = 0;
  for (std::int64_t i = 0; i < ref.numel(); ++i)
    if (ref[i] != got[i]) ++bad;
  return bad;
}

}  // namespace perfbench
