/// Unit tests of the serve layer's latency histograms (obs::Histogram fed
/// microseconds) and StatsSnapshot — bucket edges, quantile interpolation
/// and its edge cases (empty, single sample, overflow bucket) — and of
/// LookupService::Stats reading the service's own registry.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "obs/metrics.h"
#include "serve/lookup_service.h"

namespace ssjoin::serve {
namespace {

TEST(LatencyHistogramTest, EmptyHistogramQuantilesAreZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
}

TEST(LatencyHistogramTest, SingleSample) {
  obs::Histogram h;
  h.Record(10);  // bucket 3: [8, 16)
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_EQ(h.max_value(), 10u);
  // Every quantile must stay inside [bucket lo, recorded max]: the recorded
  // maximum caps interpolation, so a 10us sample can never report p99 = 16us.
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    double v = h.Quantile(q);
    EXPECT_GE(v, 8.0) << "q=" << q;
    EXPECT_LE(v, 10.0) << "q=" << q;
  }
  EXPECT_EQ(h.Quantile(1.0), 10.0);
}

TEST(LatencyHistogramTest, SubMicrosecondSamplesLandInBucketZero) {
  obs::Histogram h;
  h.Record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_value(), 0u);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
}

TEST(LatencyHistogramTest, OverflowBucketUsesRecordedMax) {
  obs::Histogram h;
  // Way beyond the last bucket edge (2^32us): the overflow bucket absorbs
  // it, and quantiles must report up to the recorded max, not the bucket's
  // meaningless nominal edge.
  const uint64_t huge = uint64_t{1} << 40;
  h.Record(huge);
  EXPECT_EQ(h.max_value(), huge);
  EXPECT_EQ(h.Quantile(1.0), static_cast<double>(huge));
  double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, static_cast<double>(uint64_t{1} << 32));
  EXPECT_LE(p50, static_cast<double>(huge));
}

TEST(LatencyHistogramTest, QuantilesAreMonotoneAcrossBuckets) {
  obs::Histogram h;
  for (uint64_t v : {1u, 2u, 4u, 9u, 17u, 33u, 100u, 1000u, 100000u}) {
    h.Record(v);
  }
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    double v = h.Quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    EXPECT_LE(v, 100000.0) << "q=" << q;
    prev = v;
  }
  EXPECT_EQ(h.Quantile(1.0), 100000.0);
}

TEST(LatencyHistogramTest, QuantileClampsArgument) {
  obs::Histogram h;
  h.Record(100);
  EXPECT_EQ(h.Quantile(-0.5), h.Quantile(0.0));
  EXPECT_EQ(h.Quantile(1.5), h.Quantile(1.0));
}

TEST(ServiceMetricsTest, SnapshotCopiesCounters) {
  auto index = index::MutableFuzzyIndex::Create({}).MoveValueUnsafe();
  auto service = LookupService::Create(std::move(index), {}).MoveValueUnsafe();
  // Stats() reads the registry's metrics themselves: each value has one
  // source, the one the metrics export also reads.
  obs::Registry& m = service->metrics();
  m.GetCounter("serve.requests")->Add(7);
  m.GetCounter("serve.rejected_overload")->Add(1);
  m.GetCounter("serve.rejected_deadline")->Add(2);
  m.GetHistogram("serve.latency_us")->Record(50);
  StatsSnapshot s = service->Stats();
  EXPECT_EQ(s.requests, 7u);
  EXPECT_EQ(s.rejected_overload, 1u);
  EXPECT_EQ(s.rejected_deadline, 2u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_EQ(s.latency_count, 1u);
  EXPECT_EQ(s.latency_mean_us, 50.0);
  EXPECT_EQ(s.latency_max_us, 50u);
}

}  // namespace
}  // namespace ssjoin::serve
