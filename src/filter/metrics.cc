#include "filter/metrics.h"

namespace ssjoin::filter {

const FilterCounters& FilterMetrics() {
  static const FilterCounters counters = [] {
    obs::Registry& r = obs::Registry::Global();
    FilterCounters c;
    c.lookups = r.GetCounter("filter.lookups");
    c.candidates_in = r.GetCounter("filter.candidates_in");
    c.candidates_kept = r.GetCounter("filter.candidates_kept");
    return c;
  }();
  return counters;
}

void RegisterFilterMetrics() { (void)FilterMetrics(); }

}  // namespace ssjoin::filter
