#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "parallel/affinity.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using bcop::parallel::parallel_for;
using bcop::parallel::parallel_for_chunked;
using bcop::parallel::ThreadPool;

TEST(ThreadPool, InlineModeRunsSubmittedWork) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  int counter = 0;
  pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter, 1);
}

TEST(ThreadPool, WorkersDrainQueue) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait_idle();
  pool.submit([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

class ParallelForEachPoolSize : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelForEachPoolSize, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(GetParam());
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, 0, 257, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ParallelForEachPoolSize, ChunksPartitionTheRange) {
  ThreadPool pool(GetParam());
  std::mutex m;
  std::vector<std::pair<std::int64_t, std::int64_t>> chunks;
  parallel_for_chunked(pool, 10, 110, [&](std::int64_t lo, std::int64_t hi) {
    std::lock_guard<std::mutex> lock(m);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  EXPECT_EQ(chunks.front().first, 10);
  EXPECT_EQ(chunks.back().second, 110);
  for (std::size_t i = 1; i < chunks.size(); ++i)
    EXPECT_EQ(chunks[i - 1].second, chunks[i].first);  // contiguous, disjoint
}

TEST_P(ParallelForEachPoolSize, SumMatchesSerial) {
  ThreadPool pool(GetParam());
  std::atomic<std::int64_t> sum{0};
  parallel_for(pool, 1, 1001, [&](std::int64_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 500500);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParallelForEachPoolSize,
                         ::testing::Values(0u, 1u, 2u, 4u, 7u));

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::int64_t) { ++calls; });
  parallel_for(pool, 5, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [&](std::int64_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // Pool must remain usable afterwards.
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 10, [&](std::int64_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelFor, SingleIndexRange) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  parallel_for(pool, 41, 42, [&](std::int64_t i) {
    EXPECT_EQ(i, 41);
    ++counter;
  });
  EXPECT_EQ(counter.load(), 1);
}

// The fan-out cap of for_chunks: every index runs exactly once for any
// cap, a region never splits into more parts than its cap (or than the
// pool plus the caller), and a cap of 1 runs inline on the caller.
TEST(ForChunks, CapBoundsPartsAndVisitsEveryIndexOnce) {
  ThreadPool pool(3);
  const std::int64_t full = static_cast<std::int64_t>(pool.size()) + 1;
  struct Ctx {
    std::vector<std::atomic<int>> hits;
    std::atomic<int> chunks{0};
    std::atomic<int> off_caller{0};
    std::thread::id caller;
  };
  for (std::int64_t n = 1; n <= 9; ++n) {
    for (const std::int64_t cap : {std::int64_t{1}, std::int64_t{2},
                                   full - 1, full, ThreadPool::kFullWidth}) {
      Ctx ctx{std::vector<std::atomic<int>>(static_cast<std::size_t>(n))};
      ctx.caller = std::this_thread::get_id();
      pool.for_chunks(
          0, n,
          [](void* raw, std::int64_t lo, std::int64_t hi) {
            auto& c = *static_cast<Ctx*>(raw);
            ++c.chunks;
            if (std::this_thread::get_id() != c.caller) ++c.off_caller;
            for (std::int64_t i = lo; i < hi; ++i)
              ++c.hits[static_cast<std::size_t>(i)];
          },
          &ctx, cap);
      for (const auto& h : ctx.hits)
        EXPECT_EQ(h.load(), 1) << "n=" << n << " cap=" << cap;
      EXPECT_LE(ctx.chunks.load(), std::min({n, cap, full}))
          << "n=" << n << " cap=" << cap;
      if (cap == 1) {
        EXPECT_EQ(ctx.chunks.load(), 1) << "n=" << n;
        EXPECT_EQ(ctx.off_caller.load(), 0) << "n=" << n;
      }
    }
  }
}

TEST(GlobalPool, IsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
}

TEST(Affinity, AvailableCpusIsPositiveAndMatchesIds) {
  const int n = bcop::parallel::available_cpus();
  EXPECT_GE(n, 1);
  const std::vector<int> ids = bcop::parallel::cpu_ids();
  if (!ids.empty()) {
    EXPECT_EQ(static_cast<int>(ids.size()), n);
    for (std::size_t i = 1; i < ids.size(); ++i)
      EXPECT_LT(ids[i - 1], ids[i]) << "ids must be ascending and unique";
  }
}

// The round-robin deal: disjoint sets, every CPU covered exactly once,
// sizes differing by at most one.
TEST(Affinity, PartitionCpusIsDisjointAndComplete) {
  const std::vector<int> ids = bcop::parallel::cpu_ids();
  if (ids.empty()) GTEST_SKIP() << "no readable affinity mask on this host";
  const unsigned groups =
      static_cast<unsigned>(std::min<std::size_t>(ids.size(), 3));
  std::set<int> seen;
  std::size_t smallest = ids.size(), largest = 0;
  for (unsigned g = 0; g < groups; ++g) {
    const std::vector<int> mine = bcop::parallel::partition_cpus(g, groups);
    EXPECT_FALSE(mine.empty()) << "group " << g;
    smallest = std::min(smallest, mine.size());
    largest = std::max(largest, mine.size());
    for (const int cpu : mine)
      EXPECT_TRUE(seen.insert(cpu).second)
          << "cpu " << cpu << " dealt twice (groups must be disjoint)";
  }
  EXPECT_EQ(seen.size(), ids.size()) << "every CPU must be dealt";
  EXPECT_LE(largest - smallest, 1u) << "round-robin deal is balanced";
}

// Oversubscription (more replicas than CPUs) aliases instead of handing
// out empty sets: every group still gets at least one CPU.
TEST(Affinity, PartitionCpusOversubscribedAliasesNotEmpty) {
  const std::vector<int> ids = bcop::parallel::cpu_ids();
  if (ids.empty()) GTEST_SKIP() << "no readable affinity mask on this host";
  const unsigned groups = static_cast<unsigned>(ids.size()) + 3;
  for (unsigned g = 0; g < groups; ++g) {
    const std::vector<int> mine = bcop::parallel::partition_cpus(g, groups);
    ASSERT_EQ(mine.size(), 1u) << "group " << g;
    EXPECT_EQ(mine[0], ids[g % ids.size()]);
  }
}

// Pinning is a hint that soft-fails: empty and nonsense sets report
// false, a genuine CPU reports success on Linux (and the thread can be
// re-pinned to the full mask afterwards -- the test must not leak a
// narrowed mask).
TEST(Affinity, PinCurrentThreadSoftFails) {
  EXPECT_FALSE(bcop::parallel::pin_current_thread({}));
  EXPECT_FALSE(bcop::parallel::pin_current_thread({-1}));
  const std::vector<int> ids = bcop::parallel::cpu_ids();
  if (ids.empty()) GTEST_SKIP() << "no readable affinity mask on this host";
  EXPECT_TRUE(bcop::parallel::pin_current_thread({ids.front()}));
  EXPECT_EQ(bcop::parallel::cpu_ids(), std::vector<int>{ids.front()});
  EXPECT_TRUE(bcop::parallel::pin_current_thread(ids));  // restore
  EXPECT_EQ(bcop::parallel::cpu_ids(), ids);
}

}  // namespace
