#include "serve/lookup_service.h"

#include <cstdio>
#include <utility>

#include "common/logging.h"

namespace ssjoin::serve {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
          .count());
}

}  // namespace

Result<std::unique_ptr<LookupService>> LookupService::Create(
    std::unique_ptr<index::MutableFuzzyIndex> index,
    const LookupServiceOptions& options) {
  if (index == nullptr) {
    return Status::Invalid("index must not be null");
  }
  if (options.max_queue == 0) {
    return Status::Invalid("max_queue must be at least 1");
  }
  return std::unique_ptr<LookupService>(
      new LookupService(std::move(index), options));
}

LookupService::LookupService(std::unique_ptr<index::MutableFuzzyIndex> index,
                             const LookupServiceOptions& options)
    : options_(options),
      requests_(metrics_.GetCounter("serve.requests")),
      rejected_overload_(metrics_.GetCounter("serve.rejected_overload")),
      rejected_deadline_(metrics_.GetCounter("serve.rejected_deadline")),
      latency_(metrics_.GetHistogram("serve.latency_us")),
      span_admission_(metrics_.GetHistogram("serve.span.admission_us")),
      span_lookup_(metrics_.GetHistogram("serve.span.lookup_us")),
      index_(std::move(index)),
      in_flight_(metrics_.GetGauge("serve.in_flight")) {}

LookupService::~LookupService() { Shutdown(); }

Result<LookupResult> LookupService::Lookup(
    const std::string& query, size_t k, std::chrono::milliseconds deadline,
    const filter::FilterPredicate& filter) {
  Clock::time_point start = Clock::now();
  if (deadline.count() < 0) {
    // An already-expired deadline can never be met; reject on entry so it
    // is neither admitted nor touches the index.
    requests_->Add(1);
    rejected_deadline_->Add(1);
    return Status::DeadlineExceeded("deadline expired before admission");
  }
  SSJOIN_ASSIGN_OR_RETURN(std::shared_ptr<index::MutableFuzzyIndex> pinned,
                          Admit());
  // Returns the in-flight slot on every way out, after this call's last use
  // of the service and of the index it pinned.
  struct Slot {
    LookupService* service;
    std::shared_ptr<index::MutableFuzzyIndex> index;
    ~Slot() {
      index.reset();
      service->Release();
    }
  } slot{this, std::move(pinned)};
  const index::MutableFuzzyIndex& idx = *slot.index;
  // Capture the published epoch once: LookupAt and the values both read
  // this one view, so a concurrent mutation cannot tear a request across
  // epochs.
  std::shared_ptr<const index::EpochState> state = idx.Snapshot();
  if (lookup_hook_) lookup_hook_();
  if (deadline.count() > 0 && start + deadline <= Clock::now()) {
    // Deadline expiries are requests the service answered (with an error),
    // not load shedding: they count toward requests, unlike overload
    // rejections.
    requests_->Add(1);
    rejected_deadline_->Add(1);
    return Status::DeadlineExceeded("deadline expired before lookup");
  }
  // Admission span: entry to the start of LookupAt (admission and epoch
  // capture). Rejections are not admissions.
  span_admission_->Record(MicrosSince(start));
  std::vector<index::MutableFuzzyIndex::Match> found;
  {
    obs::ObsSpan span(span_lookup_);
    found = idx.LookupAt(*state, query, k, filter);
  }
  LookupResult out;
  out.matches.reserve(found.size());
  for (const index::MutableFuzzyIndex::Match& m : found) {
    out.matches.push_back(
        {m.id, m.similarity, idx.ValueAt(*state, m.id).value_or("")});
  }
  requests_->Add(1);
  latency_->Record(MicrosSince(start));
  return out;
}

Result<std::shared_ptr<index::MutableFuzzyIndex>> LookupService::Admit() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    rejected_overload_->Add(1);
    return Status::Unavailable("lookup service is shutting down");
  }
  if (static_cast<size_t>(in_flight_->value()) >= options_.max_queue) {
    rejected_overload_->Add(1);
    return Status::Unavailable("admission bound reached (" +
                               std::to_string(options_.max_queue) +
                               " lookups in flight)");
  }
  in_flight_->Add(1);
  return index_;
}

void LookupService::Release() {
  // Notify under mu_: once Shutdown sees zero under the same lock, no caller
  // touches this service again.
  std::lock_guard<std::mutex> lock(mu_);
  in_flight_->Add(-1);
  if (in_flight_->value() == 0 && stopping_) {
    drained_cv_.notify_all();
  }
}

void LookupService::Replace(std::unique_ptr<index::MutableFuzzyIndex> index) {
  SSJOIN_DCHECK(index != nullptr);
  std::shared_ptr<index::MutableFuzzyIndex> fresh(std::move(index));
  {
    std::lock_guard<std::mutex> lock(mu_);
    index_.swap(fresh);
  }
  // `fresh` now holds the old index: unless a running call still pins it,
  // it is destroyed here, outside the lock.
}

StatsSnapshot LookupService::Stats() const {
  StatsSnapshot s;
  s.requests = requests_->value();
  s.rejected_overload = rejected_overload_->value();
  s.rejected_deadline = rejected_deadline_->value();
  s.in_flight = static_cast<uint64_t>(in_flight_->value());
  obs::HistogramData latency = obs::SummarizeHistogram(*latency_);
  s.latency_count = latency.count;
  s.latency_mean_us = latency.mean;
  s.latency_p50_us = latency.p50;
  s.latency_p95_us = latency.p95;
  s.latency_p99_us = latency.p99;
  s.latency_max_us = latency.max;
  return s;
}

std::string StatsSnapshot::ToJson() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"requests\": %llu, \"rejected_overload\": %llu, "
      "\"rejected_deadline\": %llu, \"in_flight\": %llu, "
      "\"latency_us\": {\"count\": %llu, \"mean\": %.1f, \"p50\": %.1f, "
      "\"p95\": %.1f, \"p99\": %.1f, \"max\": %llu}}",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(rejected_overload),
      static_cast<unsigned long long>(rejected_deadline),
      static_cast<unsigned long long>(in_flight),
      static_cast<unsigned long long>(latency_count), latency_mean_us,
      latency_p50_us, latency_p95_us, latency_p99_us,
      static_cast<unsigned long long>(latency_max_us));
  return buf;
}

void LookupService::Shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  drained_cv_.wait(lock, [this] { return in_flight_->value() == 0; });
}

}  // namespace ssjoin::serve
