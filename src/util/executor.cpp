#include "util/executor.hpp"

namespace foscil {

Executor& Executor::instance() {
  // Leaked on purpose: the workers block on this object until the process
  // exits, so it must outlive every static destructor.
  static Executor* const executor = new Executor();
  return *executor;
}

Executor::Executor() { reserve(hardware_parallelism()); }

void Executor::reserve(unsigned threads) {
  const std::lock_guard<std::mutex> lock(mutex_);
  while (threads_.size() < threads) threads_.emplace_back([this] { work(); });
}

void Executor::post(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
    publish_spare();
  }
  task_ready_.notify_one();
}

std::size_t Executor::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return threads_.size();
}

void Executor::publish_spare() {
  spare_.store(waiting_ > tasks_.size() ? waiting_ - tasks_.size() : 0,
               std::memory_order_relaxed);
}

void Executor::work() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    ++waiting_;
    publish_spare();
    task_ready_.wait(lock, [this] { return !tasks_.empty(); });
    --waiting_;
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    publish_spare();
    lock.unlock();
    task();
    task = nullptr;  // release the task's captures outside the lock
    lock.lock();
  }
}

}  // namespace foscil
