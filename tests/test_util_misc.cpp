#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_annotations.hpp"
#include "test_helpers.hpp"

namespace {

using bcop::testhelpers::unique_temp_path;

using bcop::util::Args;
using bcop::util::AsciiTable;
using bcop::util::CsvWriter;
using bcop::util::LogLevel;

TEST(Log, LevelRoundTrips) {
  const LogLevel before = bcop::util::log_level();
  bcop::util::set_log_level(LogLevel::kWarn);
  EXPECT_EQ(bcop::util::log_level(), LogLevel::kWarn);
  EXPECT_FALSE(LogLevel::kDebug >= bcop::util::log_level());
  bcop::util::set_log_level(before);
}

TEST(Log, EmitBelowAndAboveThreshold) {
  const LogLevel before = bcop::util::log_level();
  bcop::util::set_log_level(LogLevel::kError);
  // Discarded (below threshold) and emitted paths must both be safe.
  bcop::util::log_info("suppressed ", 42);
  bcop::util::log_error("emitted ", 1.5);
  bcop::util::set_log_level(before);
}

TEST(Args, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "--epochs", "20", "--lr", "0.003"};
  Args args(5, argv);
  EXPECT_EQ(args.get_int("epochs", 0), 20);
  EXPECT_DOUBLE_EQ(args.get_double("lr", 0), 0.003);
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(Args, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--arch=cnv"};
  Args args(2, argv);
  EXPECT_EQ(args.get("arch", ""), "cnv");
}

TEST(Args, ParsesFlags) {
  const char* argv[] = {"prog", "--verbose", "--n", "3"};
  Args args(4, argv, {"verbose"});
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_FALSE(args.get_flag("quiet"));
  EXPECT_EQ(args.get_int("n", 0), 3);
}

TEST(Args, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Args(2, argv), std::invalid_argument);
}

TEST(Args, RejectsMissingValue) {
  const char* argv[] = {"prog", "--key"};
  EXPECT_THROW(Args(2, argv), std::invalid_argument);
}

TEST(Csv, WritesHeaderAndEscapes) {
  const auto path = unique_temp_path("test.csv");
  {
    CsvWriter csv(path, {"name", "value"});
    csv.row({"plain", "1"});
    csv.row({"with,comma", "with\"quote"});
    csv.rowv("fps", 6400.5);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "plain,1");
  std::getline(in, line);
  EXPECT_EQ(line, "\"with,comma\",\"with\"\"quote\"");
  std::getline(in, line);
  EXPECT_EQ(line, "fps,6400.5");
  std::remove(path.c_str());
}

TEST(Csv, ArityMismatchThrows) {
  const auto path = unique_temp_path("arity.csv");
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Table, RendersAlignedBox) {
  AsciiTable t({"Config", "LUT"});
  t.add_row({"CNV", "26060"});
  t.add_row({"n-CNV", "20425"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| Config |"), std::string::npos);
  EXPECT_NE(s.find("26060"), std::string::npos);
  // Numeric column right-aligned: shorter header padded on the left side.
  EXPECT_NE(s.find("| 26060 |"), std::string::npos);
}

TEST(Table, ArityMismatchThrows) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"x"}), std::invalid_argument);
}

TEST(Fmt, FormatsPrecision) {
  EXPECT_EQ(bcop::util::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(bcop::util::fmt(98.0, 1), "98.0");
}

TEST(Mutex, TryLockReflectsOwnership) {
  bcop::util::Mutex m;
  ASSERT_TRUE(m.try_lock());
  m.unlock();
  bcop::util::MutexLock held(m);
  // try_lock on a mutex the same thread holds is UB, so probe from another.
  bool acquired = true;
  std::thread prober([&] { acquired = m.try_lock(); });
  prober.join();
  EXPECT_FALSE(acquired);
}

TEST(Mutex, UniqueLockRelocksAndReportsOwnership) {
  bcop::util::Mutex m;
  bcop::util::UniqueLock lock(m);
  EXPECT_TRUE(lock.owns_lock());
  lock.unlock();
  EXPECT_FALSE(lock.owns_lock());
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
}

TEST(Mutex, MutexLockSerializesIncrements) {
  bcop::util::Mutex m;
  int counter = 0;  // guarded by m (annotation elided: local, not a member)
  constexpr int kThreads = 4;
  constexpr int kIters = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        bcop::util::MutexLock lock(m);
        ++counter;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(Mutex, NativeHandleDrivesConditionVariableWait) {
  bcop::util::Mutex m;
  std::condition_variable cv;
  bool ready = false;
  std::thread producer([&] {
    bcop::util::MutexLock lock(m);
    ready = true;
    cv.notify_one();
  });
  {
    bcop::util::UniqueLock lock(m);
    while (!ready) cv.wait(lock.native());
  }
  producer.join();
  EXPECT_TRUE(ready);
}

}  // namespace
