// Tests of the benchmark's own statistics, input generators and failure
// accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "harness.hpp"

namespace pb = perfbench;

namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

}  // namespace

TEST(TailRule, PicksHighestPercentileWithTenSamplesBeyond) {
  const pb::Tail t100 = pb::tail_of(ramp(100));
  EXPECT_DOUBLE_EQ(t100.percentile, 90.0);
  EXPECT_EQ(t100.beyond, 10u);
  EXPECT_EQ(t100.samples, 100u);
  EXPECT_DOUBLE_EQ(t100.value, 90.0);

  const pb::Tail t99 = pb::tail_of(ramp(99));  // p90 leaves only 9 beyond
  EXPECT_DOUBLE_EQ(t99.percentile, 75.0);
  EXPECT_EQ(t99.beyond, 24u);

  const pb::Tail t1000 = pb::tail_of(ramp(1000));
  EXPECT_DOUBLE_EQ(t1000.percentile, 99.0);
  EXPECT_EQ(t1000.beyond, 10u);
  EXPECT_DOUBLE_EQ(t1000.value, 990.0);

  const pb::Tail t2000 = pb::tail_of(ramp(2000));
  EXPECT_DOUBLE_EQ(t2000.percentile, 99.5);
  EXPECT_EQ(t2000.beyond, 10u);
  EXPECT_GE(pb::tail_of(ramp(40000)).beyond, 10u);
}

TEST(TailRule, SmallSampleFallsBackToTheMedian) {
  const pb::Tail t = pb::tail_of(ramp(10));
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.beyond, 5u);
  EXPECT_EQ(pb::tail_of({}).samples, 0u);
}

TEST(TailRule, IgnoresInputOrder) {
  std::vector<double> v = ramp(500);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(pb::tail_of(v).value, pb::tail_of(ramp(500)).value);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(pb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(pb::median({}), 0.0);
}

TEST(PoissonSchedule, SeededOrderedAndInsideTheWindow) {
  const auto a = pb::poisson_schedule(5, 1000.0, 2.0, pb::kHotKeys);
  const auto b = pb::poisson_schedule(5, 1000.0, 2.0, pb::kHotKeys);
  ASSERT_EQ(a.size(), 2000u);
  ASSERT_EQ(b.size(), 2000u);
  EXPECT_NE(a[0].due_s, pb::poisson_schedule(6, 1000.0, 2.0, pb::kHotKeys)[0].due_s);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_LT(a[i].key, pb::kHotKeys);
    EXPECT_GE(a[i].due_s, 0.0);
    EXPECT_LT(a[i].due_s, 2.0);
    if (i > 0) {
      EXPECT_GE(a[i].due_s, a[i - 1].due_s);
    }
  }
}

TEST(FailureAccounting, FailingPlanLandsInErrorRate) {
  // At this commit AO trips an invariant on 3x3 full-range at 61.00 C; the
  // benchmark must count it, not drop it.
  const foscil::core::Platform platform = foscil::core::make_grid_platform(
      3, 3, foscil::power::VoltageLevels::paper_full_range());
  foscil::serve::PlanRequest request;
  request.platform = platform;
  request.ao.scan_threads = 1;
  pb::Tally tally;

  request.t_max_c = 61.0;
  const pb::Planned failing = pb::plan_timed(request);
  EXPECT_FALSE(failing.ok);
  EXPECT_FALSE(failing.error.empty());
  tally.record(failing.seconds, failing.ok, 0.0);

  request.t_max_c = 60.0;
  const pb::Planned good = pb::plan_timed(request);
  ASSERT_TRUE(good.ok) << good.error;
  tally.record(good.seconds, good.ok, good.plan->result.throughput);

  EXPECT_EQ(tally.attempted, 2u);
  EXPECT_EQ(tally.failed, 1u);
  EXPECT_DOUBLE_EQ(tally.error_rate(), 0.5);
  EXPECT_EQ(tally.latencies_ms.size(), 2u);  // the failure keeps its time
  EXPECT_DOUBLE_EQ(tally.plan_quality(),
                   good.plan->result.throughput / 2.0);
}

TEST(Calibration, FixedWorkTakesMeasurableTime) {
  const double ms = pb::calibration_ms();
  EXPECT_GT(ms, 0.0);
  EXPECT_LT(ms, 5000.0);
}

TEST(Tracer, RecordsNestedSpans) {
  pb::Tracer tracer;
  {
    pb::Scope outer(tracer, "outer", 9);
    pb::Scope inner(tracer, "inner", 9, outer.id());
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].request, 9u);
  EXPECT_LE(tracer.spans()[0].start_ns, tracer.spans()[1].start_ns);
  EXPECT_GE(tracer.spans()[0].end_ns, tracer.spans()[1].end_ns);
  EXPECT_EQ(tracer.durations("inner").size(), 1u);
}
