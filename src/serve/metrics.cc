#include "serve/metrics.h"

#include <algorithm>
#include <cstdio>

namespace ssjoin::serve {

StatsSnapshot SnapshotMetrics(const ServiceMetrics& m) {
  StatsSnapshot s;
  s.requests = m.requests.load(std::memory_order_relaxed);
  s.rejected_overload = m.rejected_overload.load(std::memory_order_relaxed);
  s.rejected_deadline = m.rejected_deadline.load(std::memory_order_relaxed);
  s.cache_hits = m.cache_hits.load(std::memory_order_relaxed);
  s.cache_misses = m.cache_misses.load(std::memory_order_relaxed);
  s.latency_count = m.latency.count();
  if (s.latency_count > 0) {
    s.latency_mean_us = static_cast<double>(m.latency.sum()) /
                        static_cast<double>(s.latency_count);
  }
  s.latency_p50_us = m.latency.Quantile(0.50);
  s.latency_p95_us = m.latency.Quantile(0.95);
  s.latency_p99_us = m.latency.Quantile(0.99);
  s.latency_max_us = m.latency.max_value();
  return s;
}

std::string StatsSnapshot::ToJson() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"requests\": %llu, \"rejected_overload\": %llu, "
      "\"rejected_deadline\": %llu, \"cache_hits\": %llu, "
      "\"cache_misses\": %llu, \"cache_evictions\": %llu, "
      "\"cache_stale_purged\": %llu, \"in_flight\": %llu, "
      "\"latency_us\": {\"count\": %llu, \"mean\": %.1f, \"p50\": %.1f, "
      "\"p95\": %.1f, \"p99\": %.1f, \"max\": %llu}}",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(rejected_overload),
      static_cast<unsigned long long>(rejected_deadline),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses),
      static_cast<unsigned long long>(cache_evictions),
      static_cast<unsigned long long>(cache_stale_purged),
      static_cast<unsigned long long>(in_flight),
      static_cast<unsigned long long>(latency_count), latency_mean_us,
      latency_p50_us, latency_p95_us, latency_p99_us,
      static_cast<unsigned long long>(latency_max_us));
  return buf;
}

}  // namespace ssjoin::serve
