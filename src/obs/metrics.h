#ifndef SSJOIN_OBS_METRICS_H_
#define SSJOIN_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ssjoin::obs {

/// \brief Unified observability primitives shared by core, exec and serve.
///
/// Three metric kinds — Counter (monotone), Gauge (last/high-water value) and
/// Histogram (log2-bucketed distribution) — live in a Registry keyed by name.
/// Process-wide layers (core, exec, kernels) update metrics of the global
/// registry; a per-instance component (a LookupService, a MutableFuzzyIndex,
/// a ShardedLookupIndex) owns a child Registry linked into the global one,
/// so tests keep exact per-instance counts and a destroyed instance takes
/// its metrics with it.
///
/// Determinism: work-derived counters (rows, candidates, prunes) are bridged
/// from `SSJoinStats`, which the SSJoin executors merge in morsel order —
/// so a join publishes identical counter deltas at 1, 2 or 8 threads.
/// Time-derived metrics (spans, busy/idle) naturally vary run to run; only
/// their *names and ordering* are deterministic, never their values.

/// Monotonically increasing counter; relaxed atomics (observability tolerates
/// torn cross-metric snapshots).
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written (or high-water, via SetMax) signed value.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if above the current value (high-water mark).
  void SetMax(int64_t v) {
    int64_t prev = value_.load(std::memory_order_relaxed);
    while (prev < v &&
           !value_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Fixed-bucket log-scale histogram, safe for concurrent Record calls.
///
/// Bucket b covers [2^b, 2^(b+1)) units, with bucket 0 also absorbing
/// sub-unit samples and the last bucket absorbing everything above 2^32.
/// Quantiles interpolate linearly inside the hit bucket, which bounds the
/// relative error by the bucket width (a factor of 2) — plenty for
/// p50/p95/p99 dashboards.
class Histogram {
 public:
  static constexpr size_t kBuckets = 33;

  void Record(uint64_t value) {
    size_t b = 0;
    while (b + 1 < kBuckets && (uint64_t{1} << (b + 1)) <= value) ++b;
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value &&
           !max_.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
    }
  }

  /// The value at quantile `q` in [0, 1] (clamped); 0 when empty.
  double Quantile(double q) const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max_value() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Plain-value histogram summary inside a snapshot.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

HistogramData SummarizeHistogram(const Histogram& h);

/// One metric's value at snapshot time.
struct MetricPoint {
  enum class Type { kCounter, kGauge, kHistogram };

  std::string name;
  /// The owning registry's instance label ("shard=2"); empty for none.
  std::string label;
  Type type = Type::kCounter;
  uint64_t counter = 0;   // kCounter
  int64_t gauge = 0;      // kGauge
  HistogramData hist;     // kHistogram

  static MetricPoint FromCounter(std::string name, uint64_t value);
  static MetricPoint FromGauge(std::string name, int64_t value);
  static MetricPoint FromHistogram(std::string name, const Histogram& h);

  /// One JSON object (no trailing newline); a labelled point adds a
  /// `"label"` string after the name:
  ///   {"metric": "...", "type": "counter", "value": N}
  ///   {"metric": "...", "label": "shard=0", "type": "gauge", "value": N}
  ///   {"metric": "...", "type": "histogram", "count": N, ..., "p99": X}
  std::string ToJson() const;
};

/// Points rendered as a single flat JSON object for embedding:
/// counters/gauges as `"name": N`, histograms flattened to `"name.count"`,
/// `"name.sum"`, `"name.max"`, `"name.mean"`, `"name.p50"`, `"name.p95"`,
/// `"name.p99"`. A labelled point's name becomes `name{label}`.
std::string ToFlatJson(const std::vector<MetricPoint>& points);

/// \brief Metric registry: the process-wide one, or an instance's own.
///
/// Metrics are created lazily on first Get*(name) and live for the life of
/// the registry (addresses are stable — cache the pointer, don't re-look-up
/// on hot paths). A child registry (constructed with a parent) is linked
/// into its parent's Snapshot() for its whole lifetime, its points carrying
/// its label; the destructor unlinks it under the parent's mutex, so a
/// snapshot never reads a child's metrics once they start to die.
class Registry {
 public:
  /// A root registry: Global(), or a standalone one.
  Registry() = default;
  /// A child of `parent`, which must outlive it.
  explicit Registry(Registry* parent);
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Names this registry's instance ("shard=2") in every point it
  /// contributes from now on.
  void SetLabel(std::string label);

  /// All metrics, this registry's and its children's, sorted by name and
  /// then label.
  std::vector<MetricPoint> Snapshot() const;

  /// Snapshot rendered as NDJSON: one MetricPoint::ToJson() line per metric.
  std::string ToNdjson() const;

  /// Snapshot rendered by the free ToFlatJson below (bench output).
  std::string ToFlatJson() const;

  /// The process-wide registry. Never destroyed, so metrics stay recordable
  /// from leaked ThreadPool workers during static teardown.
  static Registry& Global();

 private:
  /// Appends this registry's points, then its children's. Takes mu_, and
  /// each child's mu_ inside it: locks are only ever taken parent first.
  void AppendPoints(std::vector<MetricPoint>* out) const;

  Registry* const parent_ = nullptr;
  mutable std::mutex mu_;
  std::string label_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::vector<const Registry*> children_;
};

/// \brief RAII scoped span: measures wall-clock micros from construction to
/// Stop()/destruction and records them into a Counter or Histogram.
/// Cheap enough for per-request use; not for per-element inner loops.
class ObsSpan {
 public:
  explicit ObsSpan(Counter* counter) : counter_(counter) { Start(); }
  explicit ObsSpan(Histogram* hist) : hist_(hist) { Start(); }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;
  ~ObsSpan() { Stop(); }

  /// Records the elapsed micros into the target and disarms the span;
  /// idempotent (later calls return 0 and record nothing).
  uint64_t Stop();

 private:
  void Start() { start_ = std::chrono::steady_clock::now(); }

  Counter* counter_ = nullptr;
  Histogram* hist_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
};

}  // namespace ssjoin::obs

#endif  // SSJOIN_OBS_METRICS_H_
