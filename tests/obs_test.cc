// Observability primitives: the sharded counter/gauge/histogram metrics,
// the process-wide registry (text + JSON exposition), and the additive
// QueryStats model EXPLAIN ANALYZE builds on.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/query_stats.h"

namespace nepal::obs {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAdds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kAdds);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, BucketAssignmentInclusiveUpperBounds) {
  Histogram h({10, 20, 30});
  for (uint64_t v : {5u, 10u, 15u, 30u, 31u}) h.Observe(v);
  Histogram::Snapshot snap = h.Snap();
  ASSERT_EQ(snap.counts.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(snap.counts[0], 2u);      // 5, 10 (bounds are inclusive)
  EXPECT_EQ(snap.counts[1], 1u);      // 15
  EXPECT_EQ(snap.counts[2], 1u);      // 30
  EXPECT_EQ(snap.counts[3], 1u);      // 31 overflows
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 91u);
  // Quantiles interpolate inside a bucket but never leave its bounds.
  EXPECT_LE(snap.Quantile(0.5), 20u);
  EXPECT_GE(snap.Quantile(0.99), 30u);
}

TEST(HistogramTest, ConcurrentObserves) {
  Histogram h(DefaultLatencyBucketsNs());
  constexpr int kThreads = 4;
  constexpr int kObserves = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kObserves; ++i) {
        h.Observe(static_cast<uint64_t>(i) * 1000);
      }
    });
  }
  for (auto& t : threads) t.join();
  Histogram::Snapshot snap = h.Snap();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kObserves);
  uint64_t bucket_total = 0;
  for (uint64_t c : snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(MetricsRegistryTest, StablePointersAndRendering) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.ResetValuesForTest();
  Counter* c = reg.GetCounter("test.obs.hits");
  EXPECT_EQ(c, reg.GetCounter("test.obs.hits"));
  c->Add(3);
  Gauge* g = reg.GetGauge("test.obs.depth");
  g->Set(5);
  Histogram* h = reg.GetHistogram("test.obs.lat", {100, 200});
  h->Observe(150);

  std::string text = reg.RenderText();
  EXPECT_NE(text.find("counter test.obs.hits 3"), std::string::npos) << text;
  EXPECT_NE(text.find("gauge test.obs.depth 5"), std::string::npos);
  EXPECT_NE(text.find("histogram test.obs.lat count=1"), std::string::npos);

  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"test.obs.hits\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+inf\""), std::string::npos);

  reg.ResetValuesForTest();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
}

TEST(MetricsRegistryTest, ViewMetricsRenderUnderCanonicalNames) {
  // The materialized-view subsystem (src/views) publishes these exact
  // names; the shell's \metrics and the JSON exposition surface them.
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.ResetValuesForTest();
  reg.GetGauge("nepal.views.registered")->Set(2);
  reg.GetGauge("nepal.views.staleness_epochs")->Set(1);
  reg.GetCounter("nepal.views.repairs")->Add(5);
  reg.GetCounter("nepal.views.rebuilds")->Add(1);
  reg.GetCounter("nepal.views.skipped_records")->Add(7);
  reg.GetCounter("nepal.views.served")->Add(3);
  reg.GetHistogram("nepal.views.repair_ns", DefaultLatencyBucketsNs())
      ->Observe(1000);

  std::string text = reg.RenderText();
  EXPECT_NE(text.find("gauge nepal.views.registered 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("gauge nepal.views.staleness_epochs 1"),
            std::string::npos);
  EXPECT_NE(text.find("counter nepal.views.repairs 5"), std::string::npos);
  EXPECT_NE(text.find("counter nepal.views.rebuilds 1"), std::string::npos);
  EXPECT_NE(text.find("counter nepal.views.skipped_records 7"),
            std::string::npos);
  EXPECT_NE(text.find("counter nepal.views.served 3"), std::string::npos);
  EXPECT_NE(text.find("histogram nepal.views.repair_ns count=1"),
            std::string::npos);

  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"nepal.views.repairs\":5"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"nepal.views.registered\":2"), std::string::npos);
  reg.ResetValuesForTest();
}

TEST(MetricsRegistryTest, ReplicationFleetMetricsRenderUnderCanonicalNames) {
  // The replication fleet (src/replication) publishes listener-wide,
  // per-follower, semi-sync, and read-router series under these exact
  // names; the shell's \replication table and CI's fleet drill read them.
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.ResetValuesForTest();
  reg.GetCounter("nepal.replication.listener.sessions")->Add(3);
  reg.GetCounter("nepal.replication.listener.resumes")->Add(1);
  reg.GetCounter("nepal.replication.listener.rebootstraps")->Add(2);
  reg.GetCounter("nepal.replication.follower.f1.frames_shipped")->Add(40);
  reg.GetCounter("nepal.replication.follower.f1.bytes_shipped")->Add(4096);
  reg.GetCounter("nepal.replication.follower.f1.acks")->Add(40);
  reg.GetGauge("nepal.replication.follower.f1.connected")->Set(1);
  reg.GetGauge("nepal.replication.follower.f1.acked_records")->Set(120);
  reg.GetGauge("nepal.replication.follower.f1.lag_records")->Set(0);
  reg.GetGauge("nepal.replication.follower.f1.staleness_ms")->Set(7);
  reg.GetCounter("nepal.replication.semisync.acked_commits")->Add(5);
  reg.GetCounter("nepal.replication.semisync.timeouts")->Add(1);
  reg.GetGauge("nepal.replication.semisync.degraded")->Set(1);
  reg.GetCounter("nepal.router.primary_reads")->Add(6);
  reg.GetCounter("nepal.router.replica_reads")->Add(9);
  reg.GetCounter("nepal.router.fallbacks")->Add(2);

  std::string text = reg.RenderText();
  EXPECT_NE(text.find("counter nepal.replication.listener.sessions 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("counter nepal.replication.listener.resumes 1"),
            std::string::npos);
  EXPECT_NE(text.find("counter nepal.replication.listener.rebootstraps 2"),
            std::string::npos);
  EXPECT_NE(
      text.find("counter nepal.replication.follower.f1.frames_shipped 40"),
      std::string::npos);
  EXPECT_NE(text.find("counter nepal.replication.follower.f1.acks 40"),
            std::string::npos);
  EXPECT_NE(text.find("gauge nepal.replication.follower.f1.connected 1"),
            std::string::npos);
  EXPECT_NE(text.find("gauge nepal.replication.follower.f1.acked_records 120"),
            std::string::npos);
  EXPECT_NE(text.find("gauge nepal.replication.follower.f1.staleness_ms 7"),
            std::string::npos);
  EXPECT_NE(text.find("gauge nepal.replication.semisync.degraded 1"),
            std::string::npos);
  EXPECT_NE(text.find("counter nepal.router.replica_reads 9"),
            std::string::npos);

  std::string json = reg.RenderJson();
  EXPECT_NE(
      json.find("\"nepal.replication.follower.f1.frames_shipped\":40"),
      std::string::npos)
      << json;
  EXPECT_NE(json.find("\"nepal.replication.follower.f1.connected\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"nepal.router.fallbacks\":2"), std::string::npos);
  reg.ResetValuesForTest();
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(QueryStatsTest, RecordSumsAcrossThreads) {
  QueryStatsBuilder builder;
  QueryStatsGroup* group = builder.AddGroup("var P");
  int op = group->AddOp("Extend VM()");
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([group, op] {
      for (int i = 0; i < kRecords; ++i) {
        OpSample s;
        s.rows_in = 2;
        s.rows_out = 1;
        s.wall_ns = 10;
        s.invocations = 1;
        group->Record(op, s);
      }
    });
  }
  for (auto& t : threads) t.join();
  QueryStats stats = builder.Snapshot();
  ASSERT_EQ(stats.operators.size(), 1u);
  EXPECT_EQ(stats.operators[0].rows_in, 2u * kThreads * kRecords);
  EXPECT_EQ(stats.operators[0].rows_out, 1u * kThreads * kRecords);
  EXPECT_EQ(stats.operators[0].invocations, 1u * kThreads * kRecords);
}

TEST(QueryStatsTest, SnapshotKeepsCreationOrder) {
  QueryStatsBuilder builder;
  QueryStatsGroup* a = builder.AddGroup("var A");
  QueryStatsGroup* b = builder.AddGroup("var B");
  a->AddOp("Select X()");
  a->AddOp("Extend Y()");
  b->AddOp("Select Z()");
  QueryStats stats = builder.Snapshot();
  ASSERT_EQ(stats.operators.size(), 3u);
  EXPECT_EQ(stats.operators[0].group, "var A");
  EXPECT_EQ(stats.operators[0].op, "Select X()");
  EXPECT_EQ(stats.operators[1].op, "Extend Y()");
  EXPECT_EQ(stats.operators[2].group, "var B");
}

TEST(QueryStatsTest, MergeFromMatchesByLabelAndAppendsRest) {
  QueryStats lhs;
  lhs.wall_ns = 100;
  lhs.result_rows = 2;
  lhs.operators.push_back({"var P", "Select VM()", 0, 5, 0, 1, 50, 1});
  QueryStats rhs;
  rhs.wall_ns = 40;
  rhs.result_rows = 1;
  rhs.operators.push_back({"var P", "Select VM()", 0, 3, 0, 1, 20, 1});
  rhs.operators.push_back({"var P", "Extend Host()", 3, 3, 0, 1, 10, 1});
  lhs.MergeFrom(rhs);
  ASSERT_EQ(lhs.operators.size(), 2u);
  EXPECT_EQ(lhs.operators[0].rows_out, 8u);
  EXPECT_EQ(lhs.operators[0].wall_ns, 70u);
  EXPECT_EQ(lhs.operators[0].invocations, 2u);
  EXPECT_EQ(lhs.operators[1].op, "Extend Host()");
  EXPECT_EQ(lhs.wall_ns, 140u);
  EXPECT_EQ(lhs.result_rows, 3u);
}

TEST(QueryStatsTest, ToStringRendersOperatorsAndTotals) {
  QueryStats stats;
  stats.backend = "relational";
  stats.parallelism = 4;
  stats.result_rows = 7;
  stats.wall_ns = 1500000;
  stats.operators.push_back({"var P", "Select VM()", 0, 5, 0, 1, 900000, 1});
  std::string text = stats.ToString();
  EXPECT_NE(text.find("Select VM()"), std::string::npos) << text;
  EXPECT_NE(text.find(" built "), std::string::npos) << text;
  EXPECT_NE(text.find("var P"), std::string::npos);
  EXPECT_NE(text.find("7 row(s)"), std::string::npos);
  EXPECT_NE(text.find("parallelism 4"), std::string::npos);
  EXPECT_NE(text.find("relational"), std::string::npos);
}

TEST(QueryStatsTest, ToStringKeepsColumnsForAnyEstimate) {
  // Every line's `built` column ends where the header's does, however wide
  // the estimate before it.
  QueryStats stats;
  for (double est : {-1.0, 5.25, 9999999.9, 26075137.8, 1e8, 1e15, 1e300}) {
    OperatorStats op{"var P", "ExtendBlock* E()", 1, 2, 0, 1, 1000, 1};
    op.est_rows = est;
    op.built = 123456789;
    stats.operators.push_back(op);
  }
  const std::string text = stats.ToString();
  std::vector<std::string> lines;
  for (size_t pos = 0, end; pos < text.size(); pos = end + 1) {
    end = text.find('\n', pos);
    lines.push_back(text.substr(pos, end - pos));
  }
  const size_t built_end = lines[0].find(" built") + 6;
  size_t checked = 0;
  for (const std::string& line : lines) {
    if (line.find("ExtendBlock") == std::string::npos) continue;
    EXPECT_EQ(line.substr(built_end - 9, 9), "123456789") << text;
    EXPECT_EQ(line.size(), lines[0].size()) << text;
    ++checked;
  }
  EXPECT_EQ(checked, 7u);
  EXPECT_NE(text.find(" 26075138 "), std::string::npos) << text;
  EXPECT_NE(text.find(" 100000000 "), std::string::npos) << text;
  EXPECT_NE(text.find(" 1.00e+15 "), std::string::npos) << text;
}

TEST(QueryStatsTest, OperatorJsonHasAllFields) {
  OperatorStats op{"var P", "Select VM()", 1, 2, 3, 4, 5, 6};
  op.built = 7;
  std::string out;
  op.AppendJson(&out);
  EXPECT_NE(out.find("\"group\":\"var P\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"rows_in\":1"), std::string::npos);
  EXPECT_NE(out.find("\"rows_out\":2"), std::string::npos);
  EXPECT_NE(out.find("\"dedup_dropped\":3"), std::string::npos);
  EXPECT_NE(out.find("\"shards\":4"), std::string::npos);
  EXPECT_NE(out.find("\"wall_ns\":5"), std::string::npos);
  EXPECT_NE(out.find("\"invocations\":6"), std::string::npos);
  EXPECT_NE(out.find("\"built\":7"), std::string::npos);
}

}  // namespace
}  // namespace nepal::obs
