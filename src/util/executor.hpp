// The process-wide executor: one fixed set of worker threads that runs every
// parallel_for / parallel_reduce fan-out (util/parallel_for.hpp) and every
// PlanningService plan (serve/service.hpp) in the process.
//
// Why the threads are process-wide and never torn down: glibc keeps the
// memory a thread freed in that thread's malloc arena after the thread
// exits, so threads that live and die with a service leave their plans'
// memory behind.  The repository benchmark builds its serving stack three
// times; with per-service planner threads its peak RSS rose from
// 15.8–17.9 MiB to 20.6–23.3 MiB, while the same plans on persistent
// process-wide threads peaked at 14.2–16.6 MiB (4-vCPU x86-64 VM, Release).
// Per-call threads cost time as well: spawning and joining them took
// 72–88 µs per empty 4-way parallel_for, against 10–12 µs for handing the
// chunks to these workers (same VM, traced benchmark runs).
//
// The executor starts on first use with hardware_parallelism() threads and
// grows (never shrinks) when a service asks for more concurrent plans than
// it has threads.  Idle workers block on a condition variable; nothing
// spins.  Tasks run in FIFO order and must not throw (an exception escaping
// a task ends the program, as one escaping a std::thread would); every task
// posted in this repository catches and forwards its own errors.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace foscil {

/// Hardware threads, at least 1: the executor's starting size and the most
/// helpers one fan-out recruits.
inline unsigned hardware_parallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : hw;
}

class Executor {
 public:
  /// The process's executor, started on first use.  It is never destroyed,
  /// so tasks and fan-outs stay valid until the process exits.
  static Executor& instance();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Grow to at least `threads` workers.
  void reserve(unsigned threads);

  /// Queue `task` to run on a worker thread.
  void post(std::function<void()> task);

  /// Workers that would start a task posted now: blocked workers minus
  /// tasks already queued for them.  A snapshot; fan-out decisions read it
  /// without locking.
  [[nodiscard]] std::size_t spare() const noexcept {
    return spare_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const;

 private:
  Executor();
  ~Executor() = default;
  void work();
  void publish_spare();  // requires mutex_

  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> tasks_;  // guarded by mutex_
  std::size_t waiting_ = 0;                  // guarded by mutex_
  std::atomic<std::size_t> spare_{0};
  // Never joined: the executor outlives main(), its workers block in
  // task_ready_ until the process exits.
  std::vector<std::thread> threads_;  // guarded by mutex_
};

}  // namespace foscil
