// Shared fixtures for foscil tests: canonical platforms and random schedule
// generators used across the sim / theorem / scheduler suites.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>

#include "core/platform.hpp"
#include "sched/schedule.hpp"
#include "sched/transforms.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"

namespace foscil::testing {

/// Grid platform with the paper's default package and two modes.
inline core::Platform grid_platform(std::size_t rows, std::size_t cols,
                                    std::vector<double> levels = {0.6, 1.3}) {
  return core::make_grid_platform(rows, cols,
                                  power::VoltageLevels(std::move(levels)));
}

/// Random periodic schedule drawing voltages from a level set.
inline sched::PeriodicSchedule random_schedule(
    Rng& rng, std::size_t cores, double period, int max_segments,
    const std::vector<double>& levels = {0.6, 0.8, 1.0, 1.3}) {
  sched::PeriodicSchedule s(cores, period);
  for (std::size_t core = 0; core < cores; ++core) {
    const int count = rng.uniform_int(1, max_segments);
    const std::vector<double> weights =
        rng.simplex(static_cast<std::size_t>(count));
    std::vector<sched::Segment> segments;
    for (double w : weights)
      segments.push_back({w * period, rng.pick(levels)});
    s.set_core_segments(core, std::move(segments));
  }
  return s;
}

/// Random *step-up* schedule (voltages non-decreasing per core).
inline sched::PeriodicSchedule random_step_up_schedule(
    Rng& rng, std::size_t cores, double period, int max_segments,
    const std::vector<double>& levels = {0.6, 0.8, 1.0, 1.3}) {
  return sched::to_step_up(
      random_schedule(rng, cores, period, max_segments, levels));
}

/// Holds every executor worker busy from construction until release() or
/// destruction, so fan-outs run inline on their callers and service jobs
/// wait in the executor's queue.  Construct it after any service whose
/// `workers` could grow the executor.
class ExecutorSaturation {
 public:
  ExecutorSaturation() : state_(std::make_shared<State>()) {
    Executor& executor = Executor::instance();
    const std::size_t workers = executor.size();
    for (std::size_t w = 0; w < workers; ++w)
      executor.post([state = state_] {
        std::unique_lock<std::mutex> lock(state->mutex);
        ++state->started;
        state->changed.notify_all();
        state->changed.wait(lock, [&] { return state->released; });
      });
    std::unique_lock<std::mutex> lock(state_->mutex);
    state_->changed.wait(lock,
                         [&] { return state_->started == workers; });
  }
  ~ExecutorSaturation() { release(); }
  ExecutorSaturation(const ExecutorSaturation&) = delete;
  ExecutorSaturation& operator=(const ExecutorSaturation&) = delete;

  void release() {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->released = true;
    state_->changed.notify_all();
  }

 private:
  struct State {
    std::mutex mutex;
    std::condition_variable changed;
    std::size_t started = 0;  // guarded by mutex
    bool released = false;    // guarded by mutex
  };
  std::shared_ptr<State> state_;
};

}  // namespace foscil::testing
