// The process-wide executor (util/executor.hpp) and the fork/join built on
// it: nested calls on busy workers, exception forwarding, results that do
// not depend on how many workers helped, and workers that sleep when idle.
#include "util/executor.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "../test_support.hpp"
#include "util/parallel_for.hpp"

namespace foscil {
namespace {

/// A floating-point sum whose value depends on the order of its terms, so a
/// change in chunking would show up in the bits.
std::vector<double> chunk_sums(std::size_t n, unsigned threads) {
  std::vector<double> sums(n, 0.0);
  parallel_for(
      n,
      [&](std::size_t i) {
        double acc = 0.0;
        for (std::size_t k = 1; k <= 200 + i % 7; ++k)
          acc += 1.0 / static_cast<double>(k * (i + 1));
        sums[i] = acc;
      },
      threads);
  return sums;
}

double harmonic_reduce(unsigned threads) {
  return parallel_reduce(
      std::size_t{10007}, 0.0,
      [](std::size_t i, double acc) {
        return acc + 1.0 / static_cast<double>(i + 1);
      },
      [](double a, double b) { return a + b; }, threads);
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(Executor, StartsWithAtLeastOneThreadPerHardwareThread) {
  EXPECT_GE(Executor::instance().size(), hardware_parallelism());
}

TEST(Executor, RunsEveryPostedTask) {
  constexpr int kTasks = 200;
  std::mutex mutex;
  std::condition_variable done;
  int finished = 0;
  for (int t = 0; t < kTasks; ++t)
    Executor::instance().post([&] {
      const std::lock_guard<std::mutex> lock(mutex);
      ++finished;
      done.notify_one();
    });
  std::unique_lock<std::mutex> lock(mutex);
  EXPECT_TRUE(done.wait_for(lock, std::chrono::seconds(30),
                            [&] { return finished == kTasks; }));
}

TEST(Executor, ReserveOnlyGrows) {
  Executor& executor = Executor::instance();
  const std::size_t before = executor.size();
  executor.reserve(1);
  EXPECT_EQ(executor.size(), before);
  executor.reserve(static_cast<unsigned>(before + 1));
  EXPECT_EQ(executor.size(), before + 1);
}

TEST(Executor, IdleWorkersSleepInsteadOfSpinning) {
  // Wake every worker once, then let them idle: spinning workers would burn
  // about a CPU-second each over the window.
  parallel_for(64, [](std::size_t) {});
  const double before = cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(cpu_seconds() - before, 0.1);
}

TEST(ParallelFor, NestedCallsFromBusyWorkersCompleteBitIdentical) {
  // Every worker runs one of these tasks, so each nested parallel_for finds
  // no idle worker and must run its chunks on its own thread.
  const std::vector<double> serial = chunk_sums(97, 1);
  Executor& executor = Executor::instance();
  const std::size_t workers = executor.size();
  std::mutex mutex;
  std::condition_variable changed;
  std::size_t started = 0;
  std::size_t finished = 0;
  std::vector<std::vector<double>> results(workers);
  for (std::size_t w = 0; w < workers; ++w)
    executor.post([&, w] {
      {
        std::unique_lock<std::mutex> lock(mutex);
        ++started;
        changed.notify_all();
        changed.wait(lock, [&] { return started == workers; });
      }
      std::vector<double> sums = chunk_sums(97, w % 2 == 0 ? 0 : 8);
      const std::lock_guard<std::mutex> lock(mutex);
      results[w] = std::move(sums);
      ++finished;
      changed.notify_all();
    });
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(changed.wait_for(lock, std::chrono::seconds(60),
                               [&] { return finished == workers; }));
  for (const auto& sums : results) EXPECT_EQ(sums, serial);
}

TEST(ParallelFor, HelperExceptionReachesTheCaller) {
  if (hardware_parallelism() < 2)
    GTEST_SKIP() << "one hardware thread: parallel_for never recruits helpers";
  // The caller parks in its chunk until a helper has thrown from another,
  // so the exception that surfaces must come from a worker thread.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  // A fresh executor's workers count as spare only once they wait for work.
  while (Executor::instance().spare() == 0 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::yield();
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> helper_threw{false};
  const auto body = [&](std::size_t) {
    if (std::this_thread::get_id() != caller) {
      helper_threw = true;
      throw std::runtime_error("helper");
    }
    while (!helper_threw && std::chrono::steady_clock::now() < give_up)
      std::this_thread::yield();
  };
  EXPECT_THROW(parallel_for(8, body, 8), std::runtime_error);
  EXPECT_TRUE(helper_threw);
}

TEST(ParallelReduce, SameBitsWithTheExecutorIdleAndSaturated) {
  for (const unsigned threads : {0u, 1u, 3u, 8u}) {
    const double idle = harmonic_reduce(threads);
    double saturated = 0.0;
    {
      const testing::ExecutorSaturation busy;
      saturated = harmonic_reduce(threads);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(idle),
              std::bit_cast<std::uint64_t>(saturated))
        << "threads = " << threads;
  }
}

TEST(ParallelFor, SameBitsWithTheExecutorIdleAndSaturated) {
  const std::vector<double> idle = chunk_sums(301, 0);
  const testing::ExecutorSaturation busy;
  EXPECT_EQ(chunk_sums(301, 0), idle);
  EXPECT_EQ(chunk_sums(301, 4), idle);
}

}  // namespace
}  // namespace foscil
