// Unit tests of the harness helpers: the tail-percentile rule, seeded
// schedule replay, span self-time arithmetic, metric names and the trace
// writer.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "trace.hpp"

using namespace perfbench;

TEST(TailPercentile, ExactlyTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(0), 1.0);
  EXPECT_EQ(tail_percentile(10), 1.0);
  EXPECT_EQ(tail_percentile(19), 1.0);  // 1 - 10/19 would sit below p50
  EXPECT_DOUBLE_EQ(tail_percentile(20), 0.5);
  EXPECT_DOUBLE_EQ(tail_percentile(80), 0.875);
  EXPECT_DOUBLE_EQ(tail_percentile(100), 0.9);
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 0.99);
  // The rule, stated on the sorted samples: the percentile's rank
  // p * (n - 1) leaves at least ten samples above it.
  for (std::size_t n : {20u, 37u, 64u, 100u, 123u, 1000u, 4321u}) {
    const double rank = tail_percentile(n) * static_cast<double>(n - 1);
    EXPECT_GE(static_cast<double>(n - 1) - rank, 9.0) << n;
    EXPECT_LT(static_cast<double>(n - 1) - rank, 10.0) << n;
  }
}

TEST(TailPercentile, SummaryUsesTheChosenPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.tail_p, 0.9);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_DOUBLE_EQ(s.tail, 90.1);
  EXPECT_EQ(percentile_label(s.tail_p), "p90");
  EXPECT_EQ(percentile_label(0.999), "p99.9");
  EXPECT_EQ(percentile_label(0.875), "p87.5");

  const Summary few = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(few.tail_p, 1.0);
  EXPECT_DOUBLE_EQ(few.tail, 3.0);
  EXPECT_EQ(percentile_label(few.tail_p), "max");
}

TEST(Schedule, SameSeedReplaysIdentically) {
  const auto a = poisson_schedule(42, 6.0, 20.0, 16);
  const auto b = poisson_schedule(42, 6.0, 20.0, 16);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].input, b[i].input);
  }
  const auto c = poisson_schedule(43, 6.0, 20.0, 16);
  ASSERT_EQ(c.size(), a.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) differs |= a[i].due_s != c[i].due_s;
  EXPECT_TRUE(differs);
}

TEST(Schedule, FixedCountSortedWithinHorizon) {
  const double rate = 6.0, seconds = 20.0;
  const auto s = poisson_schedule(7, rate, seconds, 16);
  ASSERT_EQ(s.size(), 120u);
  const double horizon = 120.0 / rate;
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s[i].due_s, 0.0);
    EXPECT_LT(s[i].due_s, horizon);
    if (i > 0) {
      EXPECT_LE(s[i - 1].due_s, s[i].due_s);
    }
    EXPECT_GE(s[i].input, 0);
    EXPECT_LT(s[i].input, 16);
  }
  // Mean gap of a rate-6 process is 1/6 s; 120 draws land well inside 2x.
  const double mean_gap = s.back().due_s / static_cast<double>(s.size() - 1);
  EXPECT_GT(mean_gap, 0.5 / rate);
  EXPECT_LT(mean_gap, 2.0 / rate);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  EXPECT_DOUBLE_EQ(self_time(0, 10, {}), 10.0);
  EXPECT_DOUBLE_EQ(self_time(0, 10, {{1, 3}, {4, 6}}), 6.0);
  // Overlapping children count once.
  EXPECT_DOUBLE_EQ(self_time(0, 10, {{2, 5}, {1, 3}}), 6.0);
  // Parts of a child outside the parent do not count.
  EXPECT_DOUBLE_EQ(self_time(0, 10, {{8, 12}, {-3, 1}}), 7.0);
  EXPECT_DOUBLE_EQ(self_time(0, 10, {{0, 10}}), 0.0);
  EXPECT_DOUBLE_EQ(self_time(0, 10, {{11, 12}}), 10.0);
}

TEST(MetricNames, DeclaredNamesAreValidAndUnique) {
  // Every workload and metric name BENCHMARK.json declares.
  std::ifstream f(PERFBENCH_SPEC);
  ASSERT_TRUE(f) << PERFBENCH_SPEC;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string spec = ss.str();
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]*)\"");
  std::set<std::string> seen;
  for (auto it = std::sregex_iterator(spec.begin(), spec.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1];
    EXPECT_TRUE(valid_metric_name(name)) << name;
    EXPECT_TRUE(seen.insert(name).second) << name;
  }
  EXPECT_GT(seen.size(), 10u);
  EXPECT_TRUE(seen.count("setup_s"));

  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("lat p50"));
  EXPECT_FALSE(valid_metric_name("goodput/s"));
  EXPECT_TRUE(valid_metric_name("runtime.compute_ms.p50"));
}

TEST(Trace, NullTracerRecordsNothingAndSpansAreWritten) {
  { ScopedSpan off(nullptr, "x", "test"); }
  Tracer t;
  { ScopedSpan span(&t, "work", "test", 7); }
  Span req;
  req.name = "request";
  req.cat = "serve";
  req.req = 7;
  req.async = true;
  req.begin_us = 1.0;
  req.end_us = 5.0;
  req.args = {{"items", 3.0}};
  t.add(req);
  const std::vector<Span> spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_LE(spans[0].begin_us, spans[0].end_us);

  const std::string path = testing::TempDir() + "perfbench_trace_test.json";
  ASSERT_TRUE(t.write_chrome_json(path));
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string json = ss.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"items\":3"), std::string::npos);
  std::remove(path.c_str());
}
