#ifndef SSJOIN_SERVE_METRICS_H_
#define SSJOIN_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace ssjoin::serve {

/// \brief Request counters and latency (microseconds) for one
/// LookupService, updated concurrently by its caller threads.
///
/// Metrics are value-owned per service (tests assert exact per-instance
/// counts); LookupService mirrors them into the global obs::Registry through
/// a provider callback under `serve.*` names.
struct ServiceMetrics {
  std::atomic<uint64_t> requests{0};            // answered lookups: ok + deadline-failed
  std::atomic<uint64_t> rejected_overload{0};   // admission bound full, or shutting down
  std::atomic<uint64_t> rejected_deadline{0};   // expired on entry or before LookupAt
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  obs::Histogram latency;
  /// Request lifecycle spans: admission (Lookup entry → start of LookupAt),
  /// lookup (the LookupAt call), reply (cache fill).
  obs::Histogram span_admission;
  obs::Histogram span_lookup;
  obs::Histogram span_reply;
};

/// A plain-value copy of the counters plus derived latency quantiles, taken
/// at one instant (not atomically across fields).
struct StatsSnapshot {
  uint64_t requests = 0;
  uint64_t rejected_overload = 0;
  uint64_t rejected_deadline = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  /// Stale-epoch entries reclaimed by purge-on-publication (vs. aged out).
  uint64_t cache_stale_purged = 0;
  /// Lookups admitted and not yet answered.
  uint64_t in_flight = 0;
  uint64_t latency_count = 0;
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  uint64_t latency_max_us = 0;

  /// Renders the snapshot as one JSON object (the `stats` wire response).
  std::string ToJson() const;
};

/// Fills the metric-derived fields of a snapshot (callers add the cache and
/// in-flight figures they own).
StatsSnapshot SnapshotMetrics(const ServiceMetrics& metrics);

}  // namespace ssjoin::serve

#endif  // SSJOIN_SERVE_METRICS_H_
