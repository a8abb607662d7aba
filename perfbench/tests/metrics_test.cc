// Unit tests of the benchmark driver's measurement helpers.
#include "perfbench/driver/metrics.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<int64_t> Iota(size_t n) {
  std::vector<int64_t> v(n);
  std::iota(v.begin(), v.end(), 1);  // 1..n
  return v;
}

TEST(Percentile, EmptyIsZeroAndNotOk) {
  const Quantile q = QuantileOf(std::vector<int64_t>{}, 0.99);
  EXPECT_EQ(q.value, 0);
  EXPECT_EQ(q.samples, 0u);
  EXPECT_FALSE(q.ok);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  using V = std::vector<int64_t>;
  EXPECT_DOUBLE_EQ(QuantileOf(V{10, 20}, 0.5).value, 15);
  EXPECT_DOUBLE_EQ(QuantileOf(V{10, 20, 30}, 0.5).value, 20);
  EXPECT_DOUBLE_EQ(QuantileOf(V{7}, 0.99).value, 7);
  EXPECT_DOUBLE_EQ(QuantileOf(std::vector<double>{0.5, 1.5}, 0.5).value, 1.0);
  EXPECT_DOUBLE_EQ(QuantileOf(Iota(101), 0.99).value, 100);
}

TEST(Percentile, P99NeedsTenSamplesBeyond) {
  // 1,000 samples leave exactly 10 beyond the nearest-rank p99.
  const Quantile at = QuantileOf(Iota(1000), 0.99);
  EXPECT_EQ(at.samples, 1000u);
  EXPECT_EQ(at.beyond, 10u);
  EXPECT_TRUE(at.ok);
  // One fewer sample leaves 9: not enough.
  const Quantile below = QuantileOf(Iota(999), 0.99);
  EXPECT_EQ(below.beyond, 9u);
  EXPECT_FALSE(below.ok);
  // p50 needs only 20.
  EXPECT_TRUE(QuantileOf(Iota(20), 0.5).ok);
  EXPECT_FALSE(QuantileOf(Iota(19), 0.5).ok);
}

TEST(Ratio, ZeroBaseIsZero) {
  EXPECT_EQ(Ratio(5, 0), 0);
  EXPECT_EQ(Ratio(0, 0), 0);
  EXPECT_DOUBLE_EQ(Ratio(3, 4), 0.75);
}

TEST(Spans, CoveredLengthMergesAndClips) {
  EXPECT_EQ(CoveredLength({}, 0, 100), 0);
  EXPECT_EQ(CoveredLength({{10, 20}, {15, 30}, {50, 60}}, 0, 100), 30);
  EXPECT_EQ(CoveredLength({{-10, 20}, {90, 120}}, 0, 100), 30);
}

TEST(Spans, GapsAreTheUncoveredParts) {
  const auto gaps = Gaps({{10, 20}, {15, 30}, {50, 60}}, 0, 100);
  ASSERT_EQ(gaps.size(), 3u);
  using Interval = std::pair<int64_t, int64_t>;
  EXPECT_EQ(gaps[0], Interval(0, 10));
  EXPECT_EQ(gaps[1], Interval(30, 50));
  EXPECT_EQ(gaps[2], Interval(60, 100));
  EXPECT_TRUE(Gaps({{0, 100}}, 0, 100).empty());
}

TEST(Spans, SelfTimeIsParentMinusCoveredChildInterval) {
  HostTracer tracer(true);
  const int parent = tracer.Begin("sim.measure");
  const int child = tracer.Begin("ctrl.leave");
  tracer.End(child);
  const int child2 = tracer.Begin("flock.close_connection");
  const int grandchild = tracer.Begin("flock.inner");
  tracer.End(grandchild);
  tracer.End(child2);
  tracer.End(parent);
  // Rewrite the clock readings into a known layout: parent [0, 100), children
  // [10, 30) and [20, 50) overlap, the grandchild [25, 45) nests in child2.
  auto& spans = const_cast<std::vector<HostTracer::Span>&>(tracer.spans());
  spans[0].start_ns = 0;
  spans[0].end_ns = 100;
  spans[1].start_ns = 10;
  spans[1].end_ns = 30;
  spans[2].start_ns = 20;
  spans[2].end_ns = 50;
  spans[3].start_ns = 25;
  spans[3].end_ns = 45;
  EXPECT_EQ(spans[1].parent, parent);
  EXPECT_EQ(spans[3].parent, child2);
  EXPECT_EQ(tracer.SelfNs(parent), 100 - 40);
  EXPECT_EQ(tracer.SelfNs(child), 20);
  EXPECT_EQ(tracer.SelfNs(child2), 30 - 20);
  EXPECT_EQ(tracer.SelfNs(grandchild), 20);
  EXPECT_EQ(HostTracer::LayerOf("flock.close_connection"), "flock");
}

TEST(Spans, DisabledTracerRecordsNothing) {
  HostTracer tracer(false);
  { ScopedSpan span(tracer, "sim.measure"); }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Rss, ParsesStatusLines) {
  const std::string status =
      "Name:\tperfbench_driver\n"
      "VmPeak:\t  912344 kB\n"
      "VmHWM:\t  845120 kB\n"
      "VmRSS:\t   60412 kB\n";
  EXPECT_EQ(StatusKb(status, "VmHWM"), 845120);
  EXPECT_EQ(StatusKb(status, "VmRSS"), 60412);
  EXPECT_EQ(StatusKb(status, "VmSwap"), -1);
  EXPECT_EQ(StatusKb("VmRSS:\tgarbage\n", "VmRSS"), -1);
}

TEST(Rss, ReadsThisProcess) {
  const int64_t rss = SelfStatusKb("VmRSS");
  const int64_t hwm = SelfStatusKb("VmHWM");
  EXPECT_GT(rss, 0);
  EXPECT_GE(hwm, rss);
}

}  // namespace
}  // namespace perfbench
