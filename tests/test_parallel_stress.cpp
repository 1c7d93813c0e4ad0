// ThreadPool stress tests targeted at the TSan configuration
// (cmake -DBCOP_SANITIZE=thread). Each scenario exercises a
// synchronisation edge the unit tests in test_parallel.cpp touch only
// once: repeated submit/wait_idle reuse, cross-thread visibility of
// non-atomic writes after wait_idle, exception propagation under
// contention, nested pools, destructor draining, the zero-worker inline
// mode, and concurrent callers mixing capped-inline and full-width regions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace {

using bcop::parallel::parallel_for;
using bcop::parallel::parallel_for_chunked;
using bcop::parallel::ThreadPool;

TEST(ThreadPoolStress, SubmitWaitIdleReuseHammer) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    for (int t = 0; t < 16; ++t)
      pool.submit([&total] { total.fetch_add(1, std::memory_order_relaxed); });
    pool.wait_idle();
    // wait_idle() must establish happens-before with every completed task.
    ASSERT_EQ(total.load(std::memory_order_relaxed), (round + 1) * 16);
  }
}

TEST(ThreadPoolStress, WaitIdlePublishesNonAtomicWrites) {
  // Workers write *plain* ints into disjoint slots; the main thread reads
  // them after wait_idle(). Any missing happens-before edge in the pool is
  // a TSan report here.
  ThreadPool pool(4);
  std::vector<int> slots(64, 0);
  for (int round = 1; round <= 100; ++round) {
    for (std::size_t i = 0; i < slots.size(); ++i)
      pool.submit([&slots, i, round] { slots[i] = round; });
    pool.wait_idle();
    for (std::size_t i = 0; i < slots.size(); ++i) ASSERT_EQ(slots[i], round);
  }
}

TEST(ThreadPoolStress, ExceptionPropagationUnderContention) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    // Several chunks throw concurrently; exactly one exception must reach
    // the caller and the pool must stay usable afterwards.
    EXPECT_THROW(parallel_for(pool, 0, 512,
                              [](std::int64_t i) {
                                if (i % 17 == 3)
                                  throw std::runtime_error("stress boom");
                              }),
                 std::runtime_error);
    std::atomic<int> ok{0};
    parallel_for(pool, 0, 64, [&ok](std::int64_t) {
      ok.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(ok.load(), 64);
  }
}

TEST(ThreadPoolStress, NestedPoolsDoNotInterfere) {
  // Outer workers each drive their own inner pool; locks and condition
  // variables of distinct pools must not entangle.
  ThreadPool outer(2);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 10; ++round) {
    for (int t = 0; t < 4; ++t) {
      outer.submit([&sum] {
        ThreadPool inner(2);
        parallel_for(inner, 0, 100, [&sum](std::int64_t i) {
          sum.fetch_add(i, std::memory_order_relaxed);
        });
      });
    }
    outer.wait_idle();
  }
  ASSERT_EQ(sum.load(), 10 * 4 * 4950);
}

TEST(ThreadPoolStress, DestructorDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int t = 0; t < 256; ++t)
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    // No wait_idle(): the destructor must run every queued task before
    // joining (workers only exit once the queue is empty).
  }
  EXPECT_EQ(ran.load(), 256);
}

TEST(ThreadPoolStress, ZeroWorkerPoolDegradesInline) {
  ThreadPool pool(0);
  std::int64_t sum = 0;  // plain int: everything runs on this thread
  for (int round = 0; round < 100; ++round) {
    pool.submit([&sum] { ++sum; });
    parallel_for(pool, 0, 10, [&sum](std::int64_t) { ++sum; });
    pool.wait_idle();
  }
  EXPECT_EQ(sum, 100 * 11);
  EXPECT_THROW(parallel_for(pool, 0, 4,
                            [](std::int64_t) {
                              throw std::logic_error("inline boom");
                            }),
               std::logic_error);
}

TEST(ThreadPoolStress, ConcurrentCallersMixInlineAndFullWidth) {
  // Four callers share one pool: even callers cap their regions at 1
  // (inline, no region lock), odd callers fan out over every worker.
  // Each caller writes plain ints into its own buffer, so a missing
  // happens-before edge between a chunk and its caller is a TSan report,
  // and an inline region that touched the pool's lock or queue would
  // interleave with the wide ones.
  ThreadPool pool(3);
  ThreadPool callers(4);
  constexpr std::int64_t kLen = 257;
  struct Ctx {
    std::vector<int> out = std::vector<int>(kLen, 0);
    int round = 0;
  };
  std::vector<Ctx> ctxs(4);
  std::atomic<int> bad{0};
  for (int t = 0; t < 4; ++t) {
    callers.submit([&pool, &ctxs, &bad, t] {
      Ctx& ctx = ctxs[static_cast<std::size_t>(t)];
      const std::int64_t cap = t % 2 == 0 ? 1 : ThreadPool::kFullWidth;
      for (int round = 1; round <= 200; ++round) {
        ctx.round = round;
        pool.for_chunks(
            0, kLen,
            [](void* raw, std::int64_t lo, std::int64_t hi) {
              auto& c = *static_cast<Ctx*>(raw);
              for (std::int64_t i = lo; i < hi; ++i)
                c.out[static_cast<std::size_t>(i)] = c.round;
            },
            &ctx, cap);
        for (const int v : ctx.out)
          if (v != round) bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  callers.wait_idle();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPoolStress, ChunkedBodySeesDisjointRanges) {
  ThreadPool pool(4);
  std::vector<std::uint8_t> touched(2048, 0);
  for (int round = 0; round < 50; ++round) {
    std::fill(touched.begin(), touched.end(), 0);
    parallel_for_chunked(pool, 0, 2048,
                         [&touched](std::int64_t lo, std::int64_t hi) {
                           for (std::int64_t i = lo; i < hi; ++i)
                             ++touched[static_cast<std::size_t>(i)];
                         });
    for (std::uint8_t t : touched) ASSERT_EQ(t, 1);
  }
}

}  // namespace
