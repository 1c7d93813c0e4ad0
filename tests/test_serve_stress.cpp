// Concurrency hammering for the BatchingServer, written to run under
// ThreadSanitizer (the `stress` ctest label; see docs/static-analysis.md).
// Client threads come from parallel::ThreadPool -- repo rule R2 keeps raw
// std::thread out of test code too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <vector>

#include "core/architecture.hpp"
#include "core/predictor.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/batcher.hpp"
#include "util/rng.hpp"

namespace {

using namespace bcop;
using tensor::Shape;
using tensor::Tensor;

Tensor random_image(util::Rng& rng) {
  Tensor image(Shape{32, 32, 3});
  for (std::int64_t i = 0; i < image.numel(); ++i)
    image[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return image;
}

// Several client threads race submissions against a smaller worker pool.
// Every future must resolve to the same label the predictor gives the same
// image directly -- responses may never be crossed between requests.
TEST(ServeStress, ConcurrentClientsGetCorrectAnswers) {
  const core::Predictor predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 41));

  const int kImages = 4;
  std::vector<Tensor> images;
  std::vector<facegen::MaskClass> expected;
  util::Rng rng(42);
  for (int i = 0; i < kImages; ++i) {
    images.push_back(random_image(rng));
    expected.push_back(
        predictor
            .classify_batch(images.back().reshaped(Shape{1, 32, 32, 3}))
            .front()
            .label);
  }

  serve::BatcherConfig cfg;
  cfg.workers = 3;
  cfg.max_batch = 8;
  cfg.queue_capacity = 16;
  serve::BatchingServer server(predictor, cfg);

  const int kClients = 4;
  const int kPerClient = 25;
  std::atomic<int> mismatches{0};
  parallel::ThreadPool clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.submit([&, c] {
      util::Rng pick(static_cast<std::uint64_t>(100 + c));
      for (int i = 0; i < kPerClient; ++i) {
        const auto j =
            static_cast<std::size_t>(pick.uniform_int(0, kImages - 1));
        auto result = server.try_submit(images[j]).value().get();
        if (result.label != expected[j]) mismatches.fetch_add(1);
      }
    });
  }
  clients.wait_idle();

  EXPECT_EQ(mismatches.load(), 0);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_GE(stats.batches, (kClients * kPerClient) / cfg.max_batch);
  EXPECT_LE(stats.max_batch_seen, cfg.max_batch);
}

// Work-conserving batching still coalesces a backlog: one worker, and
// 64 requests queued back to back from one thread faster than the worker
// runs them. Whatever piles up while a batch runs ships as the next batch,
// so the 64 requests cannot all go one at a time. No timing is asserted:
// the first batch may be any size, the rest form from the backlog.
TEST(ServeStress, BacklogCoalesces) {
  const core::Predictor predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 43));
  util::Rng rng(44);
  constexpr int kRequests = 64;
  std::vector<Tensor> images;
  for (int i = 0; i < kRequests; ++i) images.push_back(random_image(rng));

  serve::BatcherConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 8;
  cfg.queue_capacity = kRequests;  // the whole backlog fits: nothing sheds
  serve::BatchingServer server(predictor, cfg);

  std::vector<std::future<core::Predictor::Result>> futures;
  for (auto& image : images)
    futures.push_back(server.try_submit(std::move(image)).value());
  for (auto& f : futures) f.get();

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_GE(stats.max_batch_seen, 2) << "a backlog must ship as batches";
  EXPECT_LT(stats.batches, kRequests);
  EXPECT_LE(stats.max_batch_seen, cfg.max_batch);
}

// Tiny bounded queue, clients that never wait: admission sheds what does
// not fit instead of blocking or growing the queue. Every attempt is
// either admitted or shed, every admitted future resolves (shutdown
// drains), and each shed counts exactly one rejection.
TEST(ServeStress, BackpressureOnTinyQueue) {
  const core::Predictor predictor(
      core::build_bnn(core::ArchitectureId::kMicroCnv, 45));

  serve::BatcherConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 2;
  cfg.queue_capacity = 2;
  serve::BatchingServer server(predictor, cfg);
  obs::Counter& rejected =
      obs::Registry::global().counter("bcop_serve_rejected_total");
  const std::uint64_t rejected0 = rejected.value();

  const int kClients = 2;
  const int kPerClient = 10;
  std::atomic<int> admitted{0};
  std::atomic<int> shed{0};
  std::atomic<int> answered{0};
  parallel::ThreadPool clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.submit([&, c] {
      util::Rng rng(static_cast<std::uint64_t>(200 + c));
      std::vector<std::future<core::Predictor::Result>> futures;
      for (int i = 0; i < kPerClient; ++i) {
        auto future = server.try_submit(random_image(rng));
        if (future.has_value()) {
          admitted.fetch_add(1);
          futures.push_back(std::move(*future));
        } else {
          shed.fetch_add(1);
        }
      }
      for (auto& f : futures) {
        f.get();
        answered.fetch_add(1);
      }
    });
  }
  clients.wait_idle();
  EXPECT_EQ(admitted.load() + shed.load(), kClients * kPerClient);
  EXPECT_EQ(answered.load(), admitted.load());
  EXPECT_EQ(server.stats().requests, admitted.load());
  EXPECT_EQ(rejected.value() - rejected0,
            static_cast<std::uint64_t>(shed.load()));
}

}  // namespace
