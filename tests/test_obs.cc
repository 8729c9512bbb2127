/// Unit tests for the unified observability layer (src/obs): metric
/// primitives, the registry with its linked child registries, scoped spans,
/// and the NDJSON / flat-JSON export forms (validated with the serve wire
/// parser, the same one the stats command's consumers use).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/wire.h"

namespace ssjoin::obs {
namespace {

TEST(CounterTest, AddsMonotonically) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add(3);
  c.Add(0);
  c.Add(39);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentAddsAllLand) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000u);
}

TEST(GaugeTest, SetAddAndHighWater) {
  Gauge g;
  g.Set(10);
  EXPECT_EQ(g.value(), 10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.SetMax(5);  // below current: no-op
  EXPECT_EQ(g.value(), 7);
  g.SetMax(100);
  EXPECT_EQ(g.value(), 100);
  g.Set(-1);  // Set always overwrites, even downward
  EXPECT_EQ(g.value(), -1);
}

TEST(HistogramTest, CountSumMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  for (uint64_t v : {1u, 2u, 4u, 100u}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 107u);
  EXPECT_EQ(h.max_value(), 100u);
}

TEST(HistogramTest, QuantilesBracketedByData) {
  Histogram h;
  for (uint64_t i = 1; i <= 1000; ++i) h.Record(i);
  // Log2 buckets bound the relative error by the bucket width (factor 2).
  double p50 = h.Quantile(0.50);
  double p99 = h.Quantile(0.99);
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 1000.0);
  EXPECT_GE(p99, p50);
  // No quantile can exceed the recorded maximum.
  EXPECT_LE(h.Quantile(1.0), 1000.0);
  EXPECT_LE(p99, 1000.0);
}

TEST(HistogramTest, SummarizeMatchesAccessors) {
  Histogram h;
  h.Record(10);
  h.Record(30);
  HistogramData d = SummarizeHistogram(h);
  EXPECT_EQ(d.count, 2u);
  EXPECT_EQ(d.sum, 40u);
  EXPECT_EQ(d.max, 30u);
  EXPECT_DOUBLE_EQ(d.mean, 20.0);
  EXPECT_LE(d.p50, d.p95);
  EXPECT_LE(d.p95, d.p99);
}

TEST(RegistryTest, LazyCreationWithStableAddresses) {
  Registry reg;
  Counter* a1 = reg.GetCounter("a");
  a1->Add(5);
  Counter* a2 = reg.GetCounter("a");
  EXPECT_EQ(a1, a2);  // same metric, cacheable pointer
  EXPECT_EQ(a2->value(), 5u);
  // The three kinds live in separate namespaces: one name per kind is fine.
  EXPECT_NE(static_cast<void*>(reg.GetGauge("a")), static_cast<void*>(a1));
}

TEST(RegistryTest, SnapshotSortedByName) {
  Registry reg;
  reg.GetCounter("zeta")->Add(1);
  reg.GetGauge("alpha")->Set(2);
  reg.GetHistogram("mid")->Record(3);
  std::vector<MetricPoint> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[1].name, "mid");
  EXPECT_EQ(snap[2].name, "zeta");
  EXPECT_EQ(snap[0].type, MetricPoint::Type::kGauge);
  EXPECT_EQ(snap[0].gauge, 2);
  EXPECT_EQ(snap[1].type, MetricPoint::Type::kHistogram);
  EXPECT_EQ(snap[1].hist.count, 1u);
  EXPECT_EQ(snap[2].type, MetricPoint::Type::kCounter);
  EXPECT_EQ(snap[2].counter, 1u);
}

TEST(RegistryTest, ChildPointsAppearWhileLinked) {
  Registry reg;
  reg.GetCounter("owned")->Add(1);
  {
    Registry child(&reg);
    child.GetCounter("owned")->Add(7);
    child.GetGauge("child.gauge")->Set(3);
    std::vector<MetricPoint> snap = reg.Snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "child.gauge");
    EXPECT_EQ(snap[0].gauge, 3);
    // Same name, two owners: the unlabelled child's point is a second line.
    EXPECT_EQ(snap[1].name, "owned");
    EXPECT_EQ(snap[2].name, "owned");
    EXPECT_EQ(snap[1].counter + snap[2].counter, 8u);

    child.SetLabel("shard=1");
    snap = reg.Snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].label, "shard=1");
    EXPECT_EQ(snap[1].name, "owned");
    EXPECT_EQ(snap[1].label, "");
    EXPECT_EQ(snap[1].counter, 1u);
    EXPECT_EQ(snap[2].label, "shard=1");
    EXPECT_EQ(snap[2].counter, 7u);
    EXPECT_EQ(snap[2].ToJson(),
              R"({"metric": "owned", "label": "shard=1", "type": "counter", )"
              R"("value": 7})");
    auto flat = serve::ParseJsonObject(reg.ToFlatJson());
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    EXPECT_EQ(flat->at("owned").num, 1.0);
    EXPECT_EQ(flat->at("owned{shard=1}").num, 7.0);
  }
  // Destroying the child unlinks it: only the parent's own point is left.
  std::vector<MetricPoint> snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].name, "owned");
  EXPECT_EQ(snap[0].counter, 1u);
}

TEST(RegistryTest, ChildDestroyedWhileAnotherThreadSnapshots) {
  Registry reg;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      for (const MetricPoint& p : reg.Snapshot()) {
        // Read before or after the child's one Add, never from a dead one.
        if (p.name == "child.requests") EXPECT_LE(p.counter, 5u);
      }
    }
  });
  for (int i = 0; i < 500; ++i) {
    auto child = std::make_unique<Registry>(&reg);
    child->SetLabel("shard=" + std::to_string(i % 3));
    child->GetCounter("child.requests")->Add(5);
    child->GetHistogram("child.latency_us")->Record(static_cast<uint64_t>(i));
  }
  done.store(true);
  reader.join();
  EXPECT_TRUE(reg.Snapshot().empty());
}

TEST(RegistryTest, NdjsonLinesParseWithWireParser) {
  Registry reg;
  reg.GetCounter("core.result_pairs")->Add(12);
  reg.GetGauge("exec.queue_depth_hwm")->Set(4);
  reg.GetHistogram("serve.latency_us")->Record(150);
  std::string ndjson = reg.ToNdjson();

  // Each line must be a flat JSON object the wire parser accepts — the
  // served stats command streams exactly these lines to clients.
  size_t lines = 0;
  size_t pos = 0;
  while (pos < ndjson.size()) {
    size_t eol = ndjson.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
    std::string line = ndjson.substr(pos, eol - pos);
    pos = eol + 1;
    ++lines;
    auto obj = serve::ParseJsonObject(line);
    ASSERT_TRUE(obj.ok()) << obj.status().ToString() << " line: " << line;
    ASSERT_TRUE(obj->count("metric"));
    ASSERT_TRUE(obj->count("type"));
    const std::string& type = obj->at("type").str;
    if (type == "histogram") {
      for (const char* key : {"count", "sum", "max", "mean", "p50", "p95", "p99"}) {
        EXPECT_TRUE(obj->count(key)) << key << " missing: " << line;
      }
    } else {
      EXPECT_TRUE(type == "counter" || type == "gauge") << line;
      EXPECT_TRUE(obj->count("value")) << line;
    }
  }
  EXPECT_EQ(lines, 3u);
}

TEST(RegistryTest, FlatJsonFlattensHistograms) {
  Registry reg;
  reg.GetCounter("core.joins")->Add(2);
  reg.GetHistogram("serve.latency_us")->Record(64);
  std::string flat = reg.ToFlatJson();
  auto obj = serve::ParseJsonObject(flat);
  ASSERT_TRUE(obj.ok()) << obj.status().ToString() << " json: " << flat;
  EXPECT_EQ(obj->at("core.joins").num, 2.0);
  EXPECT_EQ(obj->at("serve.latency_us.count").num, 1.0);
  EXPECT_EQ(obj->at("serve.latency_us.sum").num, 64.0);
  EXPECT_EQ(obj->at("serve.latency_us.max").num, 64.0);
  EXPECT_TRUE(obj->count("serve.latency_us.p99"));
}

TEST(ObsSpanTest, RecordsIntoEachTargetOnce) {
  Counter c;
  {
    ObsSpan span(&c);
  }  // destructor stops

  Histogram h;
  {
    ObsSpan span(&h);
    uint64_t first = span.Stop();
    EXPECT_EQ(span.Stop(), 0u) << "Stop must be idempotent";
    (void)first;
  }
  EXPECT_EQ(h.count(), 1u) << "destructor after Stop must not double-record";
}

TEST(GlobalRegistryTest, SingletonIsStable) {
  Registry& a = Registry::Global();
  Registry& b = Registry::Global();
  EXPECT_EQ(&a, &b);
  // Touching a test-scoped name must not disturb anything else and the
  // pointer must be stable across lookups.
  Counter* c = a.GetCounter("test_obs.touch");
  c->Add(1);
  EXPECT_EQ(b.GetCounter("test_obs.touch"), c);
}

}  // namespace
}  // namespace ssjoin::obs
