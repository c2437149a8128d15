// The planning service on the process-wide executor (util/executor.hpp):
// plans stay bit-identical however many workers help, stop() answers work
// still queued behind busy threads, services sharing the executor both make
// progress, and services leave no threads behind.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/service.hpp"
#include "../test_support.hpp"

namespace foscil::serve {
namespace {

using namespace std::chrono_literals;

PlanRequest request_at(const core::Platform& platform, double t_max_c) {
  PlanRequest request;
  request.platform = platform;
  request.t_max_c = t_max_c;
  return request;
}

TEST(ExecutorService, RunAoBitIdenticalAcrossScanThreadsIdleAndSaturated) {
  const core::Platform platform = testing::grid_platform(
      3, 3, {0.6, 0.8, 0.95, 1.1, 1.3});
  core::AoOptions serial;
  serial.scan_threads = 1;
  const core::SchedulerResult reference = core::run_ao(platform, 57.0, serial);
  for (const bool saturated : {false, true}) {
    std::unique_ptr<testing::ExecutorSaturation> busy;
    if (saturated) busy = std::make_unique<testing::ExecutorSaturation>();
    for (const unsigned threads : {0u, 1u, 2u, 4u, 8u}) {
      core::AoOptions options;
      options.scan_threads = threads;
      const core::SchedulerResult result =
          core::run_ao(platform, 57.0, options);
      EXPECT_TRUE(plans_bit_identical(result, reference))
          << "scan_threads = " << threads << (saturated ? ", saturated" : "");
    }
  }
}

TEST(ExecutorService, StopAnswersJobsQueuedBehindBusyThreads) {
  ServiceOptions options;
  options.workers = 2;
  PlanningService service(options);
  const core::Platform platform = testing::grid_platform(2, 2);

  std::vector<std::future<PlanResponse>> futures;
  auto busy = std::make_unique<testing::ExecutorSaturation>();
  // Two jobs wait in the executor's queue, the rest in the service's.
  for (int k = 0; k < 6; ++k)
    futures.push_back(service.submit(request_at(platform, 50.0 + k)));
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    service.stop();
    stopped = true;
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(stopped) << "stop() returned while jobs were still queued";
  busy.reset();  // free the executor
  stopper.join();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(0s), std::future_status::ready);
    const PlanResponse response = future.get();
    ASSERT_NE(response.plan, nullptr);
    EXPECT_TRUE(response.plan->certified_safe);
  }
  EXPECT_EQ(service.stats().planned, 6u);
  EXPECT_THROW((void)service.submit(request_at(platform, 70.0)),
               ServiceStoppedError);
}

TEST(ExecutorService, TwoServicesInOneProcessBothMakeProgress) {
  const std::size_t threads = Executor::instance().size();
  ServiceOptions flood_options;
  flood_options.workers = static_cast<unsigned>(threads);
  flood_options.queue_capacity = 4 * threads + 8;
  PlanningService flood(flood_options);
  ServiceOptions other_options;
  other_options.workers = 1;
  PlanningService other(other_options);
  // The other service's plan is the cheaper one, so once it starts it
  // finishes within a flood plan's time.
  const core::Platform flood_platform = testing::grid_platform(2, 3);
  const core::Platform other_platform = testing::grid_platform(1, 2);

  // Completion order across both services.
  std::mutex mutex;
  std::vector<int> order;  // 0 = flood, 1 = other
  std::promise<void> all_done;
  const std::size_t total = 4 * threads + 1;
  const auto record = [&](int service_id) {
    return [&, service_id](PlanOutcome outcome) {
      EXPECT_FALSE(outcome.error);
      const std::lock_guard<std::mutex> lock(mutex);
      order.push_back(service_id);
      if (order.size() == total) all_done.set_value();
    };
  };
  {
    // Queue everything while the executor is held, so the two services'
    // jobs meet in its FIFO queue: the flood's first wave, then the other
    // service's job, then the flood's later jobs as slots free up.
    const testing::ExecutorSaturation busy;
    for (std::size_t k = 0; k < 4 * threads; ++k)
      flood.submit(
          request_at(flood_platform, 50.0 + 0.25 * static_cast<double>(k)),
          record(0));
    other.submit(request_at(other_platform, 55.0), record(1));
  }
  ASSERT_EQ(all_done.get_future().wait_for(120s), std::future_status::ready);
  const std::lock_guard<std::mutex> lock(mutex);
  std::size_t other_position = 0;
  while (order[other_position] != 1) ++other_position;
  // The other service's job starts as soon as the flood's first wave (one
  // job per executor thread) frees a thread, so it finishes well before the
  // flood does.  A service that kept its threads until its own queue was
  // empty would hold it back past 3 * threads flood completions.
  EXPECT_LT(other_position, 3 * threads);
  EXPECT_EQ(other.stats().planned, 1u);
  EXPECT_EQ(flood.stats().planned, 4 * threads);
}

#ifdef __linux__
std::size_t process_threads() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++count;
  return count;
}

TEST(ExecutorService, ServiceCyclesLeaveTheThreadCountFlat) {
  // Services own no planner threads: building, using and destroying one
  // must not leave threads (or their malloc arenas) behind.
  const core::Platform platform = testing::grid_platform(2, 3);
  std::vector<std::size_t> after_cycle;
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::size_t while_alive = 0;
    {
      ServiceOptions options;
      options.workers = 2;
      PlanningService service(options);
      std::vector<std::future<PlanResponse>> futures;
      for (int k = 0; k < 4; ++k) {
        PlanRequest request = request_at(platform, 52.0 + k);
        request.ao.scan_threads = 2;  // fan out onto the executor too
        futures.push_back(service.submit(std::move(request)));
      }
      for (auto& future : futures) ASSERT_NE(future.get().plan, nullptr);
      while_alive = process_threads();
    }
    after_cycle.push_back(process_threads());
    // The threads that planned outlive the service.
    EXPECT_EQ(after_cycle.back(), while_alive) << "cycle " << cycle;
  }
  EXPECT_EQ(after_cycle[1], after_cycle[0]);
  EXPECT_EQ(after_cycle[2], after_cycle[0]);
}
#endif

}  // namespace
}  // namespace foscil::serve
