// Workload generation, statistics, tracing and the host-drift probe of the
// repository benchmark.  Everything here is a pure function of its
// arguments (or owns its state), so the benchmark's own tests can pin it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "serve/service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- statistics -------------------------------------------------------------

/// Median (mean of the middle pair for even sizes); 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// The tail of a latency sample: the highest percentile of the ladder
/// 50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99, 99.995, 99.999 that has at
/// least `min_beyond` samples strictly above its nearest-rank position.
/// Falls back to the median when even that has fewer.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> values,
                           std::size_t min_beyond = 10);

// ---- failure accounting -----------------------------------------------------

/// Per-request outcomes of one measured phase.  A failed request keeps its
/// time to failure in the latency sample and counts 0 toward plan quality.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double quality_sum = 0.0;
  std::vector<double> latencies_ms;

  void record(double latency_s, bool ok, double throughput);
  void merge(const Tally& other);
  [[nodiscard]] double error_rate() const;
  [[nodiscard]] double plan_quality() const;  ///< mean eq.-(5) throughput
};

/// serve::plan_direct on the calling thread, timed.  A planner exception or
/// a plan whose Theorem-2 certificate misses its budget is a failure.
struct Planned {
  std::shared_ptr<const foscil::serve::ServedPlan> plan;
  bool ok = false;
  double seconds = 0.0;
  std::string error;
};
[[nodiscard]] Planned plan_timed(const foscil::serve::PlanRequest& request);

// ---- serve inputs -----------------------------------------------------------

inline constexpr std::size_t kHotKeys = 16;  ///< T_max 50, 51, ..., 65 C

struct Arrival {
  double due_s = 0.0;    ///< offset from the start of the measured phase
  std::size_t key = 0;   ///< hot-key index
};
/// One client's open-loop Poisson schedule over [0, seconds), conditioned on
/// exactly round(rate * seconds) arrivals: given their count, Poisson
/// arrival times are sorted uniform draws.  Every seed then offers the same
/// load, and only the timing and the keys vary.
[[nodiscard]] std::vector<Arrival> poisson_schedule(std::uint64_t seed,
                                                    double rate_per_s,
                                                    double seconds,
                                                    std::size_t keys);

// ---- host drift -------------------------------------------------------------

/// Milliseconds for a fixed, L1-resident, throughput-bound floating-point
/// loop.  Sixteen independent multiply-add lanes keep it bound by the FP
/// units, so contention for them from a co-scheduled tenant shows (it tracks
/// the planner's slow episodes); a dependent chain, or an integer loop,
/// barely moves.
[[nodiscard]] double calibration_ms();

// ---- tracing ----------------------------------------------------------------

/// In-memory span log.  The benchmark opens a span around each call into a
/// layer's public functions; nothing inside the program is instrumented.
/// Not thread-safe: one Tracer per thread.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 for roots
    std::uint64_t request = 0;
  };

  explicit Tracer(Clock::time_point origin = Clock::now())
      : origin_(origin) {}

  std::int64_t begin(const char* name, std::uint64_t request,
                     std::int64_t parent = -1);
  void end(std::int64_t span);
  /// Record an already-measured interval.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint64_t request, std::int64_t parent = -1);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void append(const Tracer& other);
  /// Durations in seconds of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// One JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t request,
        std::int64_t parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, request, parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
