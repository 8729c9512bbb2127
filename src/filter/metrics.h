#ifndef SSJOIN_FILTER_METRICS_H_
#define SSJOIN_FILTER_METRICS_H_

#include "obs/metrics.h"

namespace ssjoin::filter {

/// Process-wide `filter.*` observability counters, created once and cached
/// (registry lookups are mutex-guarded; lookup paths must not re-resolve
/// names per call).
struct FilterCounters {
  obs::Counter* lookups;           // lookups carrying a non-empty filter
  obs::Counter* candidates_in;     // similarity candidates before filtering
  obs::Counter* candidates_kept;   // candidates whose attributes match
};

const FilterCounters& FilterMetrics();

/// Pre-creates the filter.* counters so they appear in metric dumps before
/// the first filtered lookup (mirrors kernels::RegisterKernelMetrics).
void RegisterFilterMetrics();

}  // namespace ssjoin::filter

#endif  // SSJOIN_FILTER_METRICS_H_
