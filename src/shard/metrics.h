#ifndef SSJOIN_SHARD_METRICS_H_
#define SSJOIN_SHARD_METRICS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/metrics.h"

namespace ssjoin::shard {

/// \brief Fan-out instrumentation of a ShardedLookupIndex, whether its
/// shards are in-process or shard-server processes.
///
/// Value-owned per instance, mirrored into the global obs::Registry through
/// a provider callback under `shard.*` names — the same discipline
/// LookupService uses for `serve.*`.
struct ShardMetrics {
  std::atomic<uint64_t> lookups{0};           // scatter-gather lookups served
  std::atomic<uint64_t> fanouts{0};           // per-shard sub-lookups issued
  std::atomic<uint64_t> failed_lookups{0};    // lookups failed by a shard error
  std::atomic<uint64_t> deadline_rejects{0};  // budget exhausted at/after entry
  std::atomic<uint64_t> hedges{0};            // hedged retries issued
  std::atomic<uint64_t> hedge_wins{0};        // hedges that answered first
  std::atomic<uint64_t> stragglers{0};        // shards past the straggler bar
  std::atomic<uint64_t> degraded{0};          // partial (shard-down) responses
  obs::Histogram latency_us;                  // full scatter-gather wall time
  obs::Histogram slowest_us;                  // slowest shard per lookup
  obs::Histogram merge_us;                    // merge + truncate step
};

/// Appends the metrics as `shard.*` points (for a Registry provider).
void CollectShardMetrics(const ShardMetrics& m, uint32_t num_shards,
                         std::vector<obs::MetricPoint>* out);

}  // namespace ssjoin::shard

#endif  // SSJOIN_SHARD_METRICS_H_
