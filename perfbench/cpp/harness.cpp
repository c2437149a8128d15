#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

Tail tail_of(std::vector<double> values, std::size_t min_beyond) {
  // Percentiles in units of 1/1000 %, so ranks come from exact integer
  // arithmetic: rank = ceil(p * n / 100000), 1-based.
  static constexpr std::array<std::uint64_t, 11> kLadder = {
      50000, 75000, 90000, 95000, 99000, 99500,
      99900, 99950, 99990, 99995, 99999};
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::uint64_t n = values.size();
  auto at = [&](std::uint64_t p) {
    const std::uint64_t rank = std::max<std::uint64_t>(1, (p * n + 99999) / 100000);
    Tail t;
    t.percentile = static_cast<double>(p) / 1000.0;
    t.value = values[rank - 1];
    t.samples = values.size();
    t.beyond = n - rank;
    return t;
  };
  tail = at(kLadder.front());
  for (const std::uint64_t p : kLadder) {
    const Tail candidate = at(p);
    if (candidate.beyond < min_beyond) break;
    tail = candidate;
  }
  return tail;
}

void Tally::record(double latency_s, bool ok, double throughput) {
  ++attempted;
  if (ok)
    quality_sum += throughput;
  else
    ++failed;
  latencies_ms.push_back(latency_s * 1e3);
}

void Tally::merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  quality_sum += other.quality_sum;
  latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(),
                      other.latencies_ms.end());
}

double Tally::error_rate() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

double Tally::plan_quality() const {
  return attempted == 0 ? 0.0
                        : quality_sum / static_cast<double>(attempted);
}

Planned plan_timed(const foscil::serve::PlanRequest& request) {
  Planned out;
  const Clock::time_point start = Clock::now();
  try {
    out.plan = foscil::serve::plan_direct(request);
    out.ok = out.plan->certified_safe;
    if (!out.ok) out.error = "plan not certified safe";
  } catch (const std::exception& error) {
    out.error = error.what();
  }
  out.seconds = seconds_between(start, Clock::now());
  return out;
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double seconds, std::size_t keys) {
  foscil::Rng rng(seed);
  std::vector<Arrival> arrivals(
      static_cast<std::size_t>(std::llround(rate_per_s * seconds)));
  for (Arrival& a : arrivals) {
    a.due_s = rng.uniform(0.0, seconds);
    a.key = rng.index(keys);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) { return a.due_s < b.due_s; });
  return arrivals;
}

namespace {
// Keeps the calibration loop's result observable, so it is not optimized out.
volatile double calibration_sink = 0.0;
}  // namespace

double calibration_ms() {
  static constexpr std::size_t kWords = 1024;  // 8 KiB: L1-resident
  static constexpr std::size_t kLanes = 16;
  static constexpr int kPasses = 20000;
  std::array<double, kWords> data{};
  for (std::size_t i = 0; i < kWords; ++i)
    data[i] = 1.0 + 1e-9 * static_cast<double>(i);
  std::array<double, kLanes> lanes{};
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass)
    for (std::size_t i = 0; i < kWords; i += kLanes)
      for (std::size_t k = 0; k < kLanes; ++k)
        lanes[k] = lanes[k] * 0.999999 + data[i + k];
  const double ms = 1e3 * seconds_between(start, Clock::now());
  calibration_sink = std::accumulate(lanes.begin(), lanes.end(), 0.0);
  return ms;
}

std::int64_t Tracer::begin(const char* name, std::uint64_t request,
                           std::int64_t parent) {
  spans_.push_back({name, ns(Clock::now()), 0, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t span) {
  spans_[static_cast<std::size_t>(span)].end_ns = ns(Clock::now());
}

void Tracer::add(const char* name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t request,
                 std::int64_t parent) {
  spans_.push_back({name, ns(start), ns(end), parent, request});
}

void Tracer::append(const Tracer& other) {
  const auto offset = static_cast<std::int64_t>(spans_.size());
  const std::int64_t shift =
      std::chrono::duration_cast<std::chrono::nanoseconds>(other.origin_ -
                                                           origin_)
          .count();
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    span.start_ns += shift;
    span.end_ns += shift;
    spans_.push_back(span);
  }
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (name == span.name)
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  for (const Span& span : spans_)
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
