#include "shard/sharded_index.h"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <thread>

#include "common/atomic_file.h"
#include "common/string_util.h"

namespace ssjoin::shard {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr char kShardsFileName[] = "SHARDS";

std::string ShardDir(const std::string& root, uint32_t i) {
  return root + "/shard-" + std::to_string(i);
}

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
          .count());
}

index::MutableIndexOptions ShardIndexOptions(const ShardedIndexOptions& options,
                                             uint32_t i) {
  index::MutableIndexOptions mopts;
  mopts.match = options.match;
  mopts.seal_threshold = options.seal_threshold;
  mopts.max_generations = options.max_generations;
  // Background maintenance would make epoch numbering timing-dependent per
  // shard; the sharded tier keeps maintenance inline for the same
  // determinism reasons the differential tests rely on.
  mopts.background_maintenance = false;
  if (!options.data_dir.empty()) mopts.data_dir = ShardDir(options.data_dir, i);
  return mopts;
}

}  // namespace

ShardedLookupIndex::ShardedLookupIndex(const ShardedIndexOptions& options)
    : options_(options), num_shards_(options.num_shards) {}

Result<std::unique_ptr<ShardedLookupIndex>> ShardedLookupIndex::Create(
    const ShardedIndexOptions& options) {
  if (options.num_shards == 0) {
    return Status::Invalid("num_shards must be at least 1");
  }
  std::unique_ptr<ShardedLookupIndex> sharded(new ShardedLookupIndex(options));
  if (!options.data_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options.data_dir, ec);
    if (ec) {
      return Status::IOError("cannot create data directory '" +
                             options.data_dir + "': " + ec.message());
    }
    std::string shards_path = options.data_dir + "/" + kShardsFileName;
    if (fs::exists(shards_path)) {
      return Status::Invalid("data directory '" + options.data_dir +
                             "' is already sharded; use Open");
    }
    SSJOIN_RETURN_NOT_OK(common::WriteFileAtomic(
        shards_path, std::to_string(options.num_shards) + "\n"));
  }
  for (uint32_t i = 0; i < options.num_shards; ++i) {
    SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                            index::MutableFuzzyIndex::Create(
                                ShardIndexOptions(options, i)));
    SSJOIN_ASSIGN_OR_RETURN(
        std::unique_ptr<serve::LookupService> service,
        serve::LookupService::Create(std::move(index), options.service));
    sharded->services_.push_back(std::move(service));
  }
  {
    std::lock_guard<std::mutex> lock(sharded->mutation_mu_);
    SSJOIN_RETURN_NOT_OK(sharded->RebuildGlobalStatsLocked());
  }
  sharded->provider_id_.store(obs::Registry::Global().RegisterProvider(
      [s = sharded.get()](std::vector<obs::MetricPoint>* out) {
        CollectShardMetrics(s->metrics_, s->num_shards_, out);
      }));
  return sharded;
}

Result<std::unique_ptr<ShardedLookupIndex>> ShardedLookupIndex::Open(
    const ShardedIndexOptions& options) {
  if (options.data_dir.empty()) {
    return Status::Invalid("Open requires a data directory");
  }
  std::string shards_path = options.data_dir + "/" + kShardsFileName;
  std::string contents;
  SSJOIN_RETURN_NOT_OK(common::ReadFile(shards_path, &contents));
  while (!contents.empty() &&
         (contents.back() == '\n' || contents.back() == '\r')) {
    contents.pop_back();
  }
  SSJOIN_ASSIGN_OR_RETURN(uint64_t persisted, ParseUint64(contents));
  if (persisted == 0) {
    return Status::IOError("SHARDS file holds a zero shard count");
  }
  ShardedIndexOptions effective = options;
  if (options.num_shards == 0) {
    effective.num_shards = static_cast<uint32_t>(persisted);
  } else if (options.num_shards != persisted) {
    // Re-sharding is not supported: documents live where ShardOf(id, N) put
    // them, so opening with a different N would silently misroute.
    return Status::Invalid("data directory is sharded " +
                           std::to_string(persisted) + " ways, not " +
                           std::to_string(options.num_shards));
  }
  std::unique_ptr<ShardedLookupIndex> sharded(new ShardedLookupIndex(effective));
  for (uint32_t i = 0; i < effective.num_shards; ++i) {
    SSJOIN_ASSIGN_OR_RETURN(
        std::unique_ptr<index::MutableFuzzyIndex> index,
        index::MutableFuzzyIndex::Open(ShardIndexOptions(effective, i)));
    SSJOIN_ASSIGN_OR_RETURN(
        std::unique_ptr<serve::LookupService> service,
        serve::LookupService::Create(std::move(index), effective.service));
    sharded->services_.push_back(std::move(service));
  }
  {
    std::lock_guard<std::mutex> lock(sharded->mutation_mu_);
    SSJOIN_RETURN_NOT_OK(sharded->RebuildGlobalStatsLocked());
  }
  sharded->provider_id_.store(obs::Registry::Global().RegisterProvider(
      [s = sharded.get()](std::vector<obs::MetricPoint>* out) {
        CollectShardMetrics(s->metrics_, s->num_shards_, out);
      }));
  return sharded;
}

ShardedLookupIndex::~ShardedLookupIndex() {
  if (uint64_t pid = provider_id_.exchange(0); pid != 0) {
    obs::Registry::Global().UnregisterProvider(pid);
  }
}

Status ShardedLookupIndex::RebuildGlobalStatsLocked() {
  // Global statistics are in-memory only; after Create/Open they are
  // re-derived from the one durable source of truth — the shards' live
  // document sets — in ascending doc_id order so dictionary interning is
  // deterministic across runs.
  std::vector<std::pair<uint64_t, std::string>> all;
  for (const auto& service : services_) {
    std::vector<std::pair<uint64_t, std::string>> docs = service->LiveDocs();
    all.insert(all.end(), std::make_move_iterator(docs.begin()),
               std::make_move_iterator(docs.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> values;
  values.reserve(all.size());
  for (auto& [id, value] : all) values.push_back(std::move(value));
  for (const auto& service : services_) {
    SSJOIN_RETURN_NOT_OK(service->ResetGlobalStats(values));
  }
  return Status::OK();
}

Result<std::vector<ShardedLookupIndex::Match>> ShardedLookupIndex::LookupShard(
    uint32_t si, const std::string& query, size_t k, bool has_deadline,
    Clock::time_point abs_deadline, const filter::FilterPredicate& filter) {
  std::chrono::milliseconds remaining{0};
  if (has_deadline) {
    // Remaining-budget propagation: the shard gets what is left NOW, not the
    // caller's original allowance — queueing ahead of this dispatch (and the
    // hedge delay, for hedges) is charged, never re-granted.
    Clock::time_point now = Clock::now();
    if (now >= abs_deadline) {
      return Status::DeadlineExceeded("shard budget exhausted before dispatch");
    }
    remaining = std::chrono::ceil<std::chrono::milliseconds>(abs_deadline - now);
  }
  return services_[si]->Lookup(query, k, remaining, filter);
}

Result<std::vector<ShardedLookupIndex::Match>> ShardedLookupIndex::Lookup(
    const std::string& query, size_t k, std::chrono::milliseconds deadline,
    const filter::FilterPredicate& filter) {
  Clock::time_point start = Clock::now();
  if (deadline.count() < 0) {
    metrics_.deadline_rejects.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded("deadline expired before scatter");
  }
  bool has_deadline = deadline.count() > 0;
  Clock::time_point abs_deadline = start + deadline;
  metrics_.lookups.fetch_add(1, std::memory_order_relaxed);
  metrics_.fanouts.fetch_add(num_shards_, std::memory_order_relaxed);

  struct Gather {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::optional<Result<std::vector<Match>>>> first;
    std::vector<uint64_t> elapsed_us;
    size_t completed = 0;
  } gather;
  gather.first.resize(num_shards_);
  gather.elapsed_us.assign(num_shards_, 0);

  std::vector<std::thread> threads;
  threads.reserve(num_shards_ + 1);
  auto launch = [&](uint32_t si, bool is_hedge) {
    threads.emplace_back([&, si, is_hedge] {
      Result<std::vector<Match>> r =
          LookupShard(si, query, k, has_deadline, abs_deadline, filter);
      std::lock_guard<std::mutex> lock(gather.mu);
      if (!gather.first[si].has_value()) {
        gather.first[si] = std::move(r);
        gather.elapsed_us[si] = MicrosSince(start);
        ++gather.completed;
        if (is_hedge) {
          metrics_.hedge_wins.fetch_add(1, std::memory_order_relaxed);
        }
        gather.cv.notify_all();
      }
    });
  };
  for (uint32_t si = 0; si < num_shards_; ++si) launch(si, /*is_hedge=*/false);

  std::chrono::milliseconds hedge_delay = options_.hedge_delay;
  if (hedge_delay.count() > 0) {
    std::vector<uint32_t> laggards;
    {
      std::unique_lock<std::mutex> lock(gather.mu);
      if (!gather.cv.wait_for(lock, hedge_delay, [&] {
            return gather.completed == num_shards_;
          })) {
        for (uint32_t si = 0; si < num_shards_; ++si) {
          if (!gather.first[si].has_value()) laggards.push_back(si);
        }
      }
    }
    // Launch outside the lock: hedge threads take gather.mu immediately.
    for (uint32_t si : laggards) {
      metrics_.hedges.fetch_add(1, std::memory_order_relaxed);
      launch(si, /*is_hedge=*/true);
    }
  }
  {
    std::unique_lock<std::mutex> lock(gather.mu);
    gather.cv.wait(lock, [&] { return gather.completed == num_shards_; });
  }
  // Join everything, hedges included: a lost hedge race still references
  // this frame. Bounded — every LookupService call runs on the scatter
  // thread that made it and returns a result or an error.
  for (std::thread& t : threads) t.join();

  std::chrono::milliseconds straggler_bar = options_.straggler_threshold;
  if (straggler_bar.count() == 0) straggler_bar = options_.hedge_delay;
  uint64_t slowest_us = 0;
  for (uint32_t si = 0; si < num_shards_; ++si) {
    uint64_t us = gather.elapsed_us[si];
    slowest_us = std::max(slowest_us, us);
    if (straggler_bar.count() > 0 &&
        us > static_cast<uint64_t>(straggler_bar.count()) * 1000) {
      metrics_.stragglers.fetch_add(1, std::memory_order_relaxed);
    }
  }
  metrics_.slowest_us.Record(slowest_us);

  // Strict gather: any shard failure fails the lookup (a silent partial
  // merge would violate bit-identity). Deadline errors win the report since
  // they describe the request, not the cluster.
  for (uint32_t si = 0; si < num_shards_; ++si) {
    const Result<std::vector<Match>>& r = *gather.first[si];
    if (r.ok()) continue;
    if (r.status().code() == StatusCode::kDeadlineExceeded) {
      metrics_.deadline_rejects.fetch_add(1, std::memory_order_relaxed);
    } else {
      metrics_.failed_lookups.fetch_add(1, std::memory_order_relaxed);
    }
    return r.status();
  }

  obs::ObsSpan merge_span(&metrics_.merge_us);
  std::vector<Match> merged;
  for (uint32_t si = 0; si < num_shards_; ++si) {
    const std::vector<Match>& part = gather.first[si]->ValueOrDie();
    merged.insert(merged.end(), part.begin(), part.end());
  }
  // The exact comparator of the per-shard sort; ids are unique across the
  // disjoint partition, so this total order reproduces the unsharded sort.
  std::sort(merged.begin(), merged.end(), [](const Match& a, const Match& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.id < b.id;
  });
  if (merged.size() > k) merged.resize(k);
  merge_span.Stop();
  metrics_.latency_us.Record(MicrosSince(start));
  return merged;
}

Status ShardedLookupIndex::Upsert(uint64_t doc_id, const std::string& value,
                                  const filter::AttrSet& attrs) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  uint32_t owner = ShardOf(doc_id, num_shards_);
  index::GlobalDelta delta;
  SSJOIN_RETURN_NOT_OK(
      services_[owner]->UpsertGlobal(doc_id, value, attrs, &delta));
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (i == owner) continue;
    SSJOIN_RETURN_NOT_OK(services_[i]->ApplyGlobalDelta(delta));
  }
  return Status::OK();
}

Status ShardedLookupIndex::Delete(uint64_t doc_id) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  uint32_t owner = ShardOf(doc_id, num_shards_);
  index::GlobalDelta delta;
  SSJOIN_RETURN_NOT_OK(services_[owner]->DeleteGlobal(doc_id, &delta));
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (i == owner) continue;
    SSJOIN_RETURN_NOT_OK(services_[i]->ApplyGlobalDelta(delta));
  }
  return Status::OK();
}

Status ShardedLookupIndex::BulkLoad(
    const std::vector<std::pair<uint64_t, std::string>>& records) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  std::vector<std::vector<std::pair<uint64_t, std::string>>> parts(num_shards_);
  for (const auto& rec : records) {
    parts[ShardOf(rec.first, num_shards_)].push_back(rec);
  }
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (parts[i].empty()) continue;
    SSJOIN_RETURN_NOT_OK(services_[i]->BulkLoad(parts[i]));
  }
  return RebuildGlobalStatsLocked();
}

Status ShardedLookupIndex::Seal() {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  for (const auto& service : services_) SSJOIN_RETURN_NOT_OK(service->Seal());
  return Status::OK();
}

Status ShardedLookupIndex::Compact() {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  for (const auto& service : services_) SSJOIN_RETURN_NOT_OK(service->Compact());
  return Status::OK();
}

std::optional<std::string> ShardedLookupIndex::ValueOf(uint64_t doc_id) const {
  return services_[ShardOf(doc_id, num_shards_)]->ValueOf(doc_id);
}

uint64_t ShardedLookupIndex::epoch() const {
  uint64_t sum = 0;
  for (const auto& service : services_) sum += service->epoch();
  return sum;
}

serve::StatsSnapshot ShardedLookupIndex::Stats() const {
  serve::StatsSnapshot agg;
  for (const auto& service : services_) {
    serve::StatsSnapshot s = service->Stats();
    agg.requests += s.requests;
    agg.rejected_overload += s.rejected_overload;
    agg.rejected_deadline += s.rejected_deadline;
    agg.cache_hits += s.cache_hits;
    agg.cache_misses += s.cache_misses;
    agg.cache_evictions += s.cache_evictions;
    agg.cache_stale_purged += s.cache_stale_purged;
    agg.latency_count += s.latency_count;
    // Quantiles do not sum; report the worst shard's figures.
    agg.latency_mean_us = std::max(agg.latency_mean_us, s.latency_mean_us);
    agg.latency_p50_us = std::max(agg.latency_p50_us, s.latency_p50_us);
    agg.latency_p95_us = std::max(agg.latency_p95_us, s.latency_p95_us);
    agg.latency_p99_us = std::max(agg.latency_p99_us, s.latency_p99_us);
    agg.latency_max_us = std::max(agg.latency_max_us, s.latency_max_us);
  }
  return agg;
}

}  // namespace ssjoin::shard
