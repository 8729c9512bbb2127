#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>

namespace ssjoin::obs {

namespace {

/// JSON-safe fixed-point rendering (quantiles are always finite).
std::string JsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string JsonUint(uint64_t v) { return std::to_string(v); }

}  // namespace

double Histogram::Quantile(double q) const {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Snapshot the buckets once; concurrent Records may land in between the
  // count_ read and the bucket reads, so clamp rather than assume equality.
  std::array<uint64_t, kBuckets> counts;
  uint64_t total = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  double target = q * static_cast<double>(total);
  uint64_t running = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    if (counts[b] == 0) continue;
    if (static_cast<double>(running + counts[b]) >= target) {
      double lo = b == 0 ? 0.0 : static_cast<double>(uint64_t{1} << b);
      double hi = static_cast<double>(uint64_t{1} << (b + 1));
      // The recorded maximum is the distribution's true upper edge: it
      // tightens interpolation inside the maximum's own bucket and replaces
      // the overflow bucket's nominal edge entirely (that bucket absorbs
      // everything above 2^32, so its edge would understate the tail).
      double max_v = static_cast<double>(max_value());
      if (b + 1 == kBuckets || (max_v >= lo && max_v < hi)) {
        hi = std::max(lo, max_v);
      }
      double frac = (target - static_cast<double>(running)) /
                    static_cast<double>(counts[b]);
      return lo + frac * (hi - lo);
    }
    running += counts[b];
  }
  return static_cast<double>(max_value());
}

HistogramData SummarizeHistogram(const Histogram& h) {
  HistogramData d;
  d.count = h.count();
  d.sum = h.sum();
  d.max = h.max_value();
  if (d.count > 0) {
    d.mean = static_cast<double>(d.sum) / static_cast<double>(d.count);
  }
  d.p50 = h.Quantile(0.50);
  d.p95 = h.Quantile(0.95);
  d.p99 = h.Quantile(0.99);
  return d;
}

MetricPoint MetricPoint::FromCounter(std::string name, uint64_t value) {
  MetricPoint p;
  p.name = std::move(name);
  p.type = Type::kCounter;
  p.counter = value;
  return p;
}

MetricPoint MetricPoint::FromGauge(std::string name, int64_t value) {
  MetricPoint p;
  p.name = std::move(name);
  p.type = Type::kGauge;
  p.gauge = value;
  return p;
}

MetricPoint MetricPoint::FromHistogram(std::string name, const Histogram& h) {
  MetricPoint p;
  p.name = std::move(name);
  p.type = Type::kHistogram;
  p.hist = SummarizeHistogram(h);
  return p;
}

std::string MetricPoint::ToJson() const {
  // Metric names are code-chosen identifiers ([a-z0-9._] by convention), so
  // they embed in JSON without escaping.
  std::string out = "{\"metric\": \"" + name + "\", ";
  if (!label.empty()) out += "\"label\": \"" + label + "\", ";
  switch (type) {
    case Type::kCounter:
      out += "\"type\": \"counter\", \"value\": " + JsonUint(counter);
      break;
    case Type::kGauge:
      out += "\"type\": \"gauge\", \"value\": " + std::to_string(gauge);
      break;
    case Type::kHistogram:
      out += "\"type\": \"histogram\", \"count\": " + JsonUint(hist.count) +
             ", \"sum\": " + JsonUint(hist.sum) +
             ", \"max\": " + JsonUint(hist.max) +
             ", \"mean\": " + JsonDouble(hist.mean) +
             ", \"p50\": " + JsonDouble(hist.p50) +
             ", \"p95\": " + JsonDouble(hist.p95) +
             ", \"p99\": " + JsonDouble(hist.p99);
      break;
  }
  out += "}";
  return out;
}

Counter* Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

Registry::Registry(Registry* parent) : parent_(parent) {
  std::lock_guard<std::mutex> lock(parent_->mu_);
  parent_->children_.push_back(this);
}

Registry::~Registry() {
  if (parent_ == nullptr) return;
  // Under the parent's mutex: a snapshot reading this registry finishes
  // first, and none starts after, so the metrics below die unobserved.
  std::lock_guard<std::mutex> lock(parent_->mu_);
  auto& siblings = parent_->children_;
  siblings.erase(std::find(siblings.begin(), siblings.end(), this));
}

void Registry::SetLabel(std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  label_ = std::move(label);
}

void Registry::AppendPoints(std::vector<MetricPoint>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t first = out->size();
  for (const auto& [name, c] : counters_) {
    out->push_back(MetricPoint::FromCounter(name, c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    out->push_back(MetricPoint::FromGauge(name, g->value()));
  }
  for (const auto& [name, h] : histograms_) {
    out->push_back(MetricPoint::FromHistogram(name, *h));
  }
  for (size_t i = first; i < out->size(); ++i) (*out)[i].label = label_;
  for (const Registry* child : children_) child->AppendPoints(out);
}

std::vector<MetricPoint> Registry::Snapshot() const {
  std::vector<MetricPoint> out;
  AppendPoints(&out);
  std::stable_sort(out.begin(), out.end(),
                   [](const MetricPoint& a, const MetricPoint& b) {
                     return std::tie(a.name, a.label) <
                            std::tie(b.name, b.label);
                   });
  return out;
}

std::string Registry::ToNdjson() const {
  std::string out;
  for (const MetricPoint& p : Snapshot()) {
    out += p.ToJson();
    out += '\n';
  }
  return out;
}

std::string Registry::ToFlatJson() const {
  return obs::ToFlatJson(Snapshot());
}

std::string ToFlatJson(const std::vector<MetricPoint>& points) {
  std::string out = "{";
  bool first = true;
  auto field = [&](const std::string& key, const std::string& value) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + key + "\": " + value;
  };
  for (const MetricPoint& p : points) {
    const std::string key =
        p.label.empty() ? p.name : p.name + "{" + p.label + "}";
    switch (p.type) {
      case MetricPoint::Type::kCounter:
        field(key, JsonUint(p.counter));
        break;
      case MetricPoint::Type::kGauge:
        field(key, std::to_string(p.gauge));
        break;
      case MetricPoint::Type::kHistogram:
        field(key + ".count", JsonUint(p.hist.count));
        field(key + ".sum", JsonUint(p.hist.sum));
        field(key + ".max", JsonUint(p.hist.max));
        field(key + ".mean", JsonDouble(p.hist.mean));
        field(key + ".p50", JsonDouble(p.hist.p50));
        field(key + ".p95", JsonDouble(p.hist.p95));
        field(key + ".p99", JsonDouble(p.hist.p99));
        break;
    }
  }
  out += "}";
  return out;
}

Registry& Registry::Global() {
  // Leaked on purpose: ThreadPool::Shared's workers are leaked too and may
  // record metrics during static teardown.
  static Registry* registry = new Registry();
  return *registry;
}

uint64_t ObsSpan::Stop() {
  if (stopped_) return 0;
  stopped_ = true;
  uint64_t micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  if (counter_ != nullptr) counter_->Add(micros);
  if (hist_ != nullptr) hist_->Record(micros);
  return micros;
}

}  // namespace ssjoin::obs
