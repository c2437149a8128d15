#include "util/parallel_for.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

namespace foscil::detail {

namespace {

/// Shared state of one fork_join call.  Helpers hold it by shared_ptr, so a
/// helper that starts after the call returned finds no chunk left and exits
/// without touching the caller's body.
class ForkJoin {
 public:
  ForkJoin(std::size_t chunks, ChunkFn run, const void* context)
      : chunks_(chunks), run_(run), context_(context) {}

  /// Claim and run chunks until none is left.
  void work() noexcept {
    for (;;) {
      const std::size_t chunk = next_.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks_) return;
      if (!failed_.load(std::memory_order_relaxed)) {
        try {
          run_(context_, chunk);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mutex_);
          if (!error_) error_ = std::current_exception();
          failed_.store(true, std::memory_order_relaxed);
        }
      }
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks_) {
        const std::lock_guard<std::mutex> lock(mutex_);
        all_done_.notify_one();
      }
    }
  }

  /// Block until every chunk has finished; rethrow the first error.
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    all_done_.wait(lock, [this] {
      return done_.load(std::memory_order_acquire) == chunks_;
    });
    if (error_) std::rethrow_exception(error_);
  }

 private:
  const std::size_t chunks_;
  const ChunkFn run_;
  const void* const context_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> failed_{false};
  std::mutex mutex_;
  std::condition_variable all_done_;
  std::exception_ptr error_;  // guarded by mutex_
};

}  // namespace

void fork_join(std::size_t chunks, ChunkFn run, const void* context) {
  std::size_t helpers = 0;
  Executor* executor = nullptr;
  if (chunks > 1) {
    executor = &Executor::instance();
    helpers = std::min({chunks - 1, executor->spare(),
                        std::size_t{hardware_parallelism()} - 1});
  }
  if (helpers == 0) {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) run(context, chunk);
    return;
  }
  const auto state = std::make_shared<ForkJoin>(chunks, run, context);
  for (std::size_t h = 0; h < helpers; ++h)
    executor->post([state] { state->work(); });
  state->work();
  state->wait();
}

}  // namespace foscil::detail
