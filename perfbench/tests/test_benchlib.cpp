#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "benchlib.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileRule, FullP90NeedsTenSamplesBeyond) {
  const Percentile p = percentile_rule(one_to(100), 90);
  EXPECT_TRUE(p.supported);
  EXPECT_DOUBLE_EQ(p.value, 90.0);  // 10 samples (91..100) beyond it
  EXPECT_DOUBLE_EQ(p.pct, 90.0);
}

TEST(PercentileRule, FallsBackToTheHighestSupportedPercentile) {
  const Percentile p = percentile_rule(one_to(50), 90);
  EXPECT_TRUE(p.supported);
  EXPECT_DOUBLE_EQ(p.value, 40.0);  // exactly ten beyond
  EXPECT_DOUBLE_EQ(p.pct, 80.0);
}

TEST(PercentileRule, TooFewSamplesReportsTheMedian) {
  const Percentile p = percentile_rule(one_to(8), 90);
  EXPECT_FALSE(p.supported);
  EXPECT_DOUBLE_EQ(p.value, 4.5);
  EXPECT_EQ(p.n, 8u);
}

TEST(PercentileRule, UnsortedInputAndInfiniteSamplesSortLast) {
  std::vector<double> v = one_to(99);
  v.insert(v.begin(), std::numeric_limits<double>::infinity());
  const Percentile p = percentile_rule(v, 90);
  EXPECT_DOUBLE_EQ(p.value, 90.0);
}

TEST(Quartiles, MatchPythonStatisticsExclusive) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const std::vector<double> q = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
}

TEST(SelfTime, NestedChildrenAreSubtractedOnce) {
  // root [0,10) > child [2,6) > grandchild [3,5)
  const std::vector<Span> s = {{"a.root", 0, 10, 0, -1, ""},
                               {"b.child", 2, 6, 1, 0, ""},
                               {"c.grand", 3, 5, 2, 1, ""}};
  const std::vector<double> self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 6.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
}

TEST(SelfTime, OverlappingChildrenCountEachInstantOnce) {
  // Parallel jobs under one batch: [1,5) and [3,8) overlap on [3,5); a
  // child running past its parent only covers the parent's part.
  const std::vector<Span> s = {{"backend.run", 0, 10, 0, -1, ""},
                               {"cmp.job", 1, 5, 1, 0, "j0"},
                               {"cmp.job", 3, 8, 2, 0, "j1"},
                               {"cmp.job", 9, 12, 3, 0, "j2"}};
  const std::vector<double> self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 7.0 - 1.0);
  const auto by_layer = self_time_by_layer(s);
  EXPECT_DOUBLE_EQ(by_layer.at("backend"), 2.0);
  EXPECT_DOUBLE_EQ(by_layer.at("cmp"), 4.0 + 5.0 + 3.0);
}

TEST(SelfTime, UnattributedIsTheUncoveredShareOfTheWindow) {
  const std::vector<Span> s = {{"a.x", 0, 4, 0, -1, ""},
                               {"b.y", 2, 6, 1, -1, ""}};
  EXPECT_DOUBLE_EQ(unattributed_frac(s, 0, 10), 0.4);
  EXPECT_DOUBLE_EQ(unattributed_frac(s, 1, 5), 0.0);
}

TEST(Tracer, MergeRenumbersAndReparentsRoots) {
  Tracer t(true);
  const int root = t.add("bench.root", 0, 10);
  t.merge({{"a.x", 1, 2, 7, -1, ""}, {"a.y", 1, 2, 9, 7, ""}}, root);
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, spans[1].id);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t(false);
  EXPECT_EQ(t.begin("a.x"), -1);
  t.end(-1);
  EXPECT_TRUE(t.spans().empty());
}

TEST(ClosedLoop, RefusedOrFailedSubmissionsMissEveryLatency) {
  std::vector<Submission> subs;
  for (int i = 0; i < 20; ++i) {
    Submission s;
    s.submit = i;
    s.ack = i + 0.001;
    s.first_result = i + 0.002;
    s.done = i + 0.010;
    s.ok = true;
    subs.push_back(s);
  }
  Submission refused;  // connection refused: no frame ever arrived
  refused.submit = 30;
  subs.push_back(refused);
  Submission wrong = subs.front();  // finished, but results differed
  wrong.ok = false;
  subs.push_back(wrong);

  const LoopTally t = tally(subs);
  EXPECT_EQ(t.attempted, 22u);
  EXPECT_EQ(t.failed, 2u);
  ASSERT_EQ(t.campaign_ms.size(), 22u);
  EXPECT_EQ(std::count_if(t.campaign_ms.begin(), t.campaign_ms.end(),
                          [](double v) { return std::isinf(v); }),
            2);
  EXPECT_TRUE(std::isinf(percentile_rule(t.first_result_ms, 100, 0).value));
  EXPECT_NEAR(median(t.campaign_ms), 10.0, 1e-9);
}

TEST(Output, MetricsJsonKeepsFullPrecision) {
  Metrics m;
  m.set("latency_ms", 1.2034567890123, "ms");
  EXPECT_EQ(m.json(),
            "{\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}}");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "1e308");
}

}  // namespace
}  // namespace perfbench
