// Self-tests for the benchmark's own arithmetic: the percentile rule, span
// self time, the speed scale, and the result line's JSON round trip.
#include <gtest/gtest.h>

#include <numeric>

#include "obs/json.h"
#include "result.h"
#include "spans.h"
#include "speed.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(Quantile, P95NeedsTwoHundredSamples) {
  EXPECT_EQ(MinSamplesForQuantile(0.95), 200u);
  EXPECT_EQ(MinSamplesForQuantile(0.5), 20u);
  EXPECT_FALSE(Quantile(OneTo(199), 0.95).has_value());
  ASSERT_TRUE(Quantile(OneTo(200), 0.95).has_value());
}

TEST(Quantile, LeavesTenSamplesBeyondP95) {
  std::vector<double> samples = OneTo(200);
  std::reverse(samples.begin(), samples.end());
  const double p95 = *Quantile(samples, 0.95);
  EXPECT_EQ(p95, 190);
  EXPECT_EQ(std::count_if(samples.begin(), samples.end(),
                          [p95](double v) { return v > p95; }),
            10);
}

TEST(Quantile, MedianOfOddAndEven) {
  EXPECT_EQ(*Quantile(OneTo(21), 0.5), 11);
  EXPECT_FALSE(Quantile(OneTo(19), 0.5).has_value());
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(GeometricMean, OfCellMedians) {
  EXPECT_DOUBLE_EQ(GeometricMean({0.01, 100}), 1);
  EXPECT_DOUBLE_EQ(GeometricMean({2, 8}), 4);
  EXPECT_EQ(GeometricMean({}), 0);
  EXPECT_EQ(GeometricMean({1, 0}), 0);
}

Span At(double start, double end, int64_t parent) {
  Span span;
  span.name = "s";
  span.start_ms = start;
  span.end_ms = end;
  span.parent = parent;
  return span;
}

TEST(SelfTimes, SubtractsNestedChildren) {
  // root [0,100] > a [10,30] > a1 [12,20]; root > b [50,60].
  const std::vector<Span> spans = {At(0, 100, -1), At(10, 30, 0),
                                   At(12, 20, 1), At(50, 60, 0)};
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 70);
  EXPECT_DOUBLE_EQ(self[1], 12);
  EXPECT_DOUBLE_EQ(self[2], 8);
  EXPECT_DOUBLE_EQ(self[3], 10);
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  // Sessions on several threads under one window: [10,40], [20,50] and
  // [45,48] cover [10,50] once; [-5,5] is clipped to the parent.
  const std::vector<Span> spans = {At(0, 100, -1), At(10, 40, 0),
                                   At(20, 50, 0), At(45, 48, 0),
                                   At(-5, 5, 0)};
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - 40 - 5);
  EXPECT_DOUBLE_EQ(self[1], 30);
}

TEST(SelfTimes, IgnoresOpenSpansAndBadParents) {
  std::vector<Span> spans = {At(0, 10, -1), At(2, -1, 0), At(3, 4, 7)};
  spans[1].end_ms = -1;
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10);
  EXPECT_DOUBLE_EQ(self[1], 0);
  EXPECT_DOUBLE_EQ(self[2], 1);
}

TEST(SpanLog, ScopesNestAndShareRequests) {
  SpanLog log(true);
  SpanStack stack(log);
  {
    Scope outer(stack, "outer", "t", 7);
    Scope inner(stack, "inner");
  }
  const std::vector<Span> spans = log.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_GE(spans[1].start_ms, spans[0].start_ms);
  EXPECT_LE(spans[1].end_ms, spans[0].end_ms);

  SpanLog off(false);
  SpanStack quiet(off);
  Scope timed(quiet, "x");
  EXPECT_GE(timed.Close(), 0);
  EXPECT_TRUE(off.Snapshot().empty());
}

TEST(ResultLine, RoundTripsThroughParseJson) {
  RunResult result;
  result.correct = true;
  result.attempted = 1234;
  result.failed = 0;
  result.metrics = {{"relational_cell_gmean_ms", 0.012345678901234567, "ms"},
                    {"setup_s", 3.25, "s"},
                    {"ops_per_s", 98765.4321, "1/s"},
                    {"we\"ird", 1e-9, "%"}};
  const std::string line = ResultLine(result);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto parsed = xbench::obs::ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_object());
  ASSERT_EQ(parsed->members.size(), 4u);
  EXPECT_EQ(parsed->members[0].first, "correct");
  EXPECT_EQ(parsed->members[1].first, "attempted");
  EXPECT_EQ(parsed->members[2].first, "failed");
  EXPECT_EQ(parsed->members[3].first, "metrics");
  EXPECT_TRUE(parsed->Find("correct")->boolean);
  EXPECT_EQ(parsed->Find("attempted")->number, 1234);
  const xbench::obs::JsonValue* metrics = parsed->Find("metrics");
  ASSERT_EQ(metrics->members.size(), result.metrics.size());
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    EXPECT_EQ(metrics->members[i].first, result.metrics[i].name);
    const xbench::obs::JsonValue& metric = metrics->members[i].second;
    EXPECT_EQ(metric.Find("value")->number, result.metrics[i].value);
    EXPECT_EQ(metric.Find("unit")->string, result.metrics[i].unit);
  }
}

TEST(InterquartileMean, DropsTheOuterQuarters) {
  EXPECT_EQ(InterquartileMean({}), 0);
  EXPECT_EQ(InterquartileMean({3, 1, 2}), 2);  // fewer than four: the mean
  // 1..8: drops 1, 2 and 7, 8.
  EXPECT_DOUBLE_EQ(InterquartileMean(OneTo(8)), 4.5);
  // An outlier in the top quarter does not move it.
  std::vector<double> samples = OneTo(8);
  samples[7] = 1e6;
  EXPECT_DOUBLE_EQ(InterquartileMean(samples), 4.5);
}

TEST(InterquartileMean, MovesSmoothlyBetweenTwoModes) {
  // 20 samples, k of them fast (1) and the rest slow (10): the median
  // jumps from 10 to 1 between k = 9 and k = 11; the interquartile mean
  // steps by at most 0.9 per sample.
  double previous = 10;
  for (int k = 0; k <= 20; ++k) {
    std::vector<double> samples(20, 10);
    std::fill(samples.begin(), samples.begin() + k, 1);
    const double mean = InterquartileMean(samples);
    EXPECT_LE(previous - mean, 0.9 + 1e-9) << k;
    previous = mean;
  }
}

TEST(SpeedWindow, ScalesByTheMedianOfRecentKernelTimes) {
  SpeedWindow window;
  EXPECT_EQ(window.Scale(), 1);
  window.Add(2 * kReferenceKernelMs);
  EXPECT_DOUBLE_EQ(window.Scale(), 0.5);
  // One slow kernel run among fast ones does not move the median.
  for (size_t i = 0; i + 1 < kSpeedWindow; ++i) {
    window.Add(0.5 * kReferenceKernelMs);
  }
  EXPECT_DOUBLE_EQ(window.Scale(), 2);
}

TEST(SpeedWindow, ForgetsTimesOlderThanTheWindow) {
  SpeedWindow window;
  for (size_t i = 0; i < kSpeedWindow; ++i) window.Add(4 * kReferenceKernelMs);
  for (size_t i = 0; i < kSpeedWindow; ++i) window.Add(kReferenceKernelMs);
  EXPECT_DOUBLE_EQ(window.Scale(), 1);
}

TEST(ReferenceKernel, DoesTheSameWorkEveryRun) {
  const uint64_t first = ReferenceKernel();
  EXPECT_NE(first, 0u);
  EXPECT_EQ(ReferenceKernel(), first);
  const double scale = ReferenceScale();
  EXPECT_GT(scale, 0);
  EXPECT_GE(ReferenceKernelSummary().runs, 1u);
}

}  // namespace
}  // namespace perfbench
