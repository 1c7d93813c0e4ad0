// Shared vocabulary of the perfbench program: clocks, sample sets, the
// metric report and the seeded inputs every workload renders in set-up.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/predictor.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
double since(Clock::time_point t0);

/// A set of measured values with order statistics.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& s) { v_.insert(v_.end(), s.v_.begin(), s.v_.end()); }
  void reserve(std::size_t n) { v_.reserve(n); }
  std::size_t count() const { return v_.size(); }
  double mean() const;
  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// printf into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// One named metric as printed: value, unit, sample count and a note.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t samples = 0;
  std::string note;
};

/// Everything one run prints. `json` metrics go into the final JSON line
/// (end-to-end metrics in untraced runs, per-layer metrics in traced runs);
/// `info` metrics are printed for the reader only (values that are zero or
/// undefined on some workloads, such as shed_frac and error_frac).
class Report {
 public:
  void json(Metric m) { json_.push_back(std::move(m)); }
  void info(Metric m) { info_.push_back(std::move(m)); }
  /// A failed correctness or decomposition check; the run is not correct.
  void fail(const std::string& why);
  void check(bool ok, const std::string& what);
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void line(const std::string& text) { lines_.push_back(text); }
  /// An end-to-end metric of the benchmark's full set that this workload
  /// does not define (printed by name, so every run lists all ten).
  void not_applicable(const std::string& name, const std::string& why) {
    lines_.push_back(format("n/a    %-34s %s", name.c_str(), why.c_str()));
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  bool correct() const { return failures_.empty() && failed_ == 0; }
  /// Print the human-readable report, then the JSON result line last.
  void print() const;

 private:
  std::vector<Metric> json_, info_;
  std::vector<std::string> lines_, failures_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};


/// CPU time used by all threads of this process, in seconds. Time the
/// host steals from a vCPU is not charged to the threads it held.
double process_cpu_s();

/// Restart the peak-resident-set count (VmHWM) at the current resident
/// set, so that peak_rss_mib() covers only what follows.
void reset_peak_rss();
/// Peak resident set of this process in MiB since the last
/// reset_peak_rss() (VmHWM).
double peak_rss_mib();

/// Hardware threads available to the process.
int nproc();

/// The prototype every workload serves: a seeded n-CNV (build_bnn, fresh
/// Glorot weights) folded for deployment. `levels` = ReBNet depth M.
std::unique_ptr<bcop::core::Predictor> build_ncnv(std::uint64_t seed,
                                                  std::int64_t levels = 1);

/// u8 face images rendered by facegen from the seed, each held as the
/// POST /v1/classify request that carries it, with the label the
/// in-process Predictor::classify gives it (the correctness oracle).
struct Faces {
  std::vector<std::string> request;
  std::vector<int> label;
  std::size_t size() const { return request.size(); }
  /// The S*S*3 interleaved RGB payload of face `i` (the request's body).
  std::string_view u8(std::size_t i) const;
};
/// Render `n` distinct faces (classes round-robin) and label them with
/// `oracle`. The float image the server decodes from the bytes is the
/// one the oracle classifies.
Faces render_faces(std::size_t n, std::uint64_t seed,
                   const bcop::core::Predictor& oracle);
/// The [S, S, 3] tensor HttpServer decodes a u8 payload into.
bcop::tensor::Tensor decode_u8(std::string_view bytes);

/// Crowd tiles: faces cut from rendered crowd scenes (the paper's
/// high-performance mode), packed into [32, 32, 32, 3] batches, with the
/// oracle's batch-1 labels.
struct Tiles {
  std::vector<bcop::tensor::Tensor> batch32;  // [32, S, S, 3] each
  std::vector<int> label;                     // per tile, batch-major
  std::size_t size() const { return label.size(); }
  /// Copy tile `i` into `one`, a [1, S, S, 3] batch.
  void copy_tile(std::size_t i, bcop::tensor::Tensor& one) const;
};
Tiles render_tiles(std::size_t batches, std::uint64_t seed,
                   const bcop::core::Predictor& oracle);

/// Logits of the float training graph and of the folded network must be
/// equal for every element of `batch`; returns the mismatch count.
std::size_t float_graph_mismatches(bcop::core::Predictor& predictor,
                                   const bcop::tensor::Tensor& batch);

}  // namespace perfbench
