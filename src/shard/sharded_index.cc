#include "shard/sharded_index.h"

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <optional>
#include <thread>

#include "common/atomic_file.h"
#include "common/string_util.h"

namespace ssjoin::shard {

using serve::ValuedMatch;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr char kShardsFileName[] = "SHARDS";

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
          .count());
}

/// The number of shards a data dir was created with (Open), or writes the
/// SHARDS file of a fresh one (Create).
Result<uint32_t> ResolveShardCount(const ShardedIndexOptions& options,
                                   bool open) {
  std::string shards_path = options.data_dir + "/" + kShardsFileName;
  if (!open) {
    if (options.num_shards == 0) {
      return Status::Invalid("num_shards must be at least 1");
    }
    if (options.data_dir.empty()) return options.num_shards;
    std::error_code ec;
    fs::create_directories(options.data_dir, ec);
    if (ec) {
      return Status::IOError("cannot create data directory '" +
                             options.data_dir + "': " + ec.message());
    }
    if (fs::exists(shards_path)) {
      return Status::Invalid("data directory '" + options.data_dir +
                             "' is already sharded; use Open");
    }
    SSJOIN_RETURN_NOT_OK(common::WriteFileAtomic(
        shards_path, std::to_string(options.num_shards) + "\n"));
    return options.num_shards;
  }
  if (options.data_dir.empty()) {
    return Status::Invalid("Open requires a data directory");
  }
  std::string contents;
  SSJOIN_RETURN_NOT_OK(common::ReadFile(shards_path, &contents));
  SSJOIN_ASSIGN_OR_RETURN(uint64_t persisted,
                          ParseUint64(TrimAscii(contents)));
  if (persisted == 0) {
    return Status::IOError("SHARDS file holds a zero shard count");
  }
  if (options.num_shards != 0 && options.num_shards != persisted) {
    // Re-sharding is not supported: documents live where ShardOf(id, N) put
    // them, so opening with a different N would silently misroute.
    return Status::Invalid("data directory is sharded " +
                           std::to_string(persisted) + " ways, not " +
                           std::to_string(options.num_shards));
  }
  return static_cast<uint32_t>(persisted);
}

/// A shard that cannot be reached (vs. one that answered with an
/// application error) — the only failures degraded mode may drop.
bool IsUnreachable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kIOError;
}

/// Create and Open: one LookupService per partition, then a Resync.
Result<std::unique_ptr<ShardedLookupIndex>> BuildLocal(
    const ShardedIndexOptions& options, bool open) {
  SSJOIN_ASSIGN_OR_RETURN(uint32_t num_shards,
                          ResolveShardCount(options, open));
  index::MutableIndexOptions mopts;
  mopts.match = options.match;
  mopts.seal_threshold = options.seal_threshold;
  mopts.max_generations = options.max_generations;
  std::vector<std::unique_ptr<ShardClient>> shards;
  for (uint32_t i = 0; i < num_shards; ++i) {
    if (!options.data_dir.empty()) {
      mopts.data_dir = options.data_dir + "/shard-" + std::to_string(i);
    }
    SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                            open ? index::MutableFuzzyIndex::Open(mopts)
                                 : index::MutableFuzzyIndex::Create(mopts));
    SSJOIN_ASSIGN_OR_RETURN(
        std::unique_ptr<serve::LookupService> service,
        serve::LookupService::Create(std::move(index), options.service));
    // Every shard exports the same `serve.*` and `index.*` names; the label
    // tells them apart in the metrics export.
    const std::string label = "shard=" + std::to_string(i);
    service->metrics().SetLabel(label);
    service->index()->metrics().SetLabel(label);
    shards.push_back(std::move(service));
  }
  SSJOIN_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardedLookupIndex> sharded,
      ShardedLookupIndex::FromShards(std::move(shards), options.fanout,
                                     /*allow_degraded=*/false));
  SSJOIN_RETURN_NOT_OK(sharded->Resync());
  return sharded;
}

}  // namespace

ShardedLookupIndex::ShardedLookupIndex(
    std::vector<std::unique_ptr<ShardClient>> shards,
    const FanoutOptions& fanout, bool allow_degraded)
    : shards_(std::move(shards)),
      fanout_(fanout),
      allow_degraded_(allow_degraded),
      lookups_(metrics_.GetCounter("shard.lookups")),
      fanouts_(metrics_.GetCounter("shard.fanouts")),
      failed_lookups_(metrics_.GetCounter("shard.failed_lookups")),
      deadline_rejects_(metrics_.GetCounter("shard.deadline_rejects")),
      hedges_(metrics_.GetCounter("shard.hedges")),
      hedge_wins_(metrics_.GetCounter("shard.hedge_wins")),
      stragglers_(metrics_.GetCounter("shard.stragglers")),
      degraded_(metrics_.GetCounter("shard.degraded")),
      latency_us_(metrics_.GetHistogram("shard.latency_us")),
      slowest_us_(metrics_.GetHistogram("shard.slowest_us")),
      merge_us_(metrics_.GetHistogram("shard.merge_us")) {
  metrics_.GetGauge("shard.num_shards")->Set(num_shards());
}

Result<std::unique_ptr<ShardedLookupIndex>> ShardedLookupIndex::FromShards(
    std::vector<std::unique_ptr<ShardClient>> shards,
    const FanoutOptions& fanout, bool allow_degraded) {
  if (shards.empty()) return Status::Invalid("a sharded index needs a shard");
  return std::unique_ptr<ShardedLookupIndex>(
      new ShardedLookupIndex(std::move(shards), fanout, allow_degraded));
}

Result<std::unique_ptr<ShardedLookupIndex>> ShardedLookupIndex::Create(
    const ShardedIndexOptions& options) {
  return BuildLocal(options, /*open=*/false);
}

Result<std::unique_ptr<ShardedLookupIndex>> ShardedLookupIndex::Open(
    const ShardedIndexOptions& options) {
  return BuildLocal(options, /*open=*/true);
}

Result<std::unique_ptr<ShardedLookupIndex>> ShardedLookupIndex::Connect(
    const std::vector<std::string>& sockets,
    std::chrono::milliseconds admin_timeout, const FanoutOptions& fanout,
    bool allow_degraded) {
  std::vector<std::unique_ptr<ShardClient>> shards;
  for (const std::string& socket : sockets) {
    shards.push_back(std::make_unique<RemoteShard>(socket, admin_timeout));
  }
  return FromShards(std::move(shards), fanout, allow_degraded);
}

Status ShardedLookupIndex::Resync() {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  return ResyncLocked();
}

Status ShardedLookupIndex::ResyncLocked() {
  // Global statistics are in-memory only; they are re-derived from the one
  // durable source of truth — the shards' live document sets — in ascending
  // doc_id order so dictionary interning is deterministic across runs.
  std::vector<std::pair<uint64_t, std::string>> all;
  for (const auto& shard : shards_) {
    SSJOIN_ASSIGN_OR_RETURN(auto docs, shard->LiveDocs());
    all.insert(all.end(), std::make_move_iterator(docs.begin()),
               std::make_move_iterator(docs.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> values;
  values.reserve(all.size());
  for (auto& [id, value] : all) values.push_back(std::move(value));
  for (const auto& shard : shards_) {
    SSJOIN_RETURN_NOT_OK(shard->ResetGlobalStats(values));
  }
  return Status::OK();
}

Result<serve::LookupResult> ShardedLookupIndex::Lookup(
    const std::string& query, size_t k, std::chrono::milliseconds deadline,
    const filter::FilterPredicate& filter) {
  Clock::time_point start = Clock::now();
  if (deadline.count() < 0) {
    deadline_rejects_->Add(1);
    return Status::DeadlineExceeded("deadline expired before scatter");
  }
  bool has_deadline = deadline.count() > 0;
  Clock::time_point abs_deadline = start + deadline;
  const uint32_t n = num_shards();
  lookups_->Add(1);
  fanouts_->Add(n);

  // One shard sub-lookup with remaining-budget propagation: the shard gets
  // what is left NOW, not the caller's original allowance — queueing ahead
  // of this dispatch (and the hedge delay, for hedges) is charged, never
  // re-granted.
  auto lookup_shard = [&](uint32_t si) -> Result<serve::LookupResult> {
    std::chrono::milliseconds remaining{0};
    if (has_deadline) {
      Clock::time_point now = Clock::now();
      if (now >= abs_deadline) {
        return Status::DeadlineExceeded("shard budget exhausted before dispatch");
      }
      remaining = std::chrono::ceil<std::chrono::milliseconds>(abs_deadline - now);
    }
    return shards_[si]->Lookup(query, k, remaining, filter);
  };

  struct Gather {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::optional<Result<serve::LookupResult>>> first;
    std::vector<uint64_t> elapsed_us;
    size_t completed = 0;
  } gather;
  gather.first.resize(n);
  gather.elapsed_us.assign(n, 0);

  std::vector<std::thread> threads;
  threads.reserve(n + 1);
  auto launch = [&](uint32_t si, bool is_hedge) {
    threads.emplace_back([&, si, is_hedge] {
      Result<serve::LookupResult> r = lookup_shard(si);
      std::lock_guard<std::mutex> lock(gather.mu);
      if (!gather.first[si].has_value()) {
        gather.first[si] = std::move(r);
        gather.elapsed_us[si] = MicrosSince(start);
        ++gather.completed;
        if (is_hedge) {
          hedge_wins_->Add(1);
        }
        gather.cv.notify_all();
      }
    });
  };
  for (uint32_t si = 0; si < n; ++si) launch(si, /*is_hedge=*/false);

  if (fanout_.hedge_delay.count() > 0) {
    std::vector<uint32_t> laggards;
    {
      std::unique_lock<std::mutex> lock(gather.mu);
      if (!gather.cv.wait_for(lock, fanout_.hedge_delay,
                              [&] { return gather.completed == n; })) {
        for (uint32_t si = 0; si < n; ++si) {
          if (!gather.first[si].has_value()) laggards.push_back(si);
        }
      }
    }
    // Launch outside the lock: hedge threads take gather.mu immediately.
    for (uint32_t si : laggards) {
      hedges_->Add(1);
      launch(si, /*is_hedge=*/true);
    }
  }
  {
    std::unique_lock<std::mutex> lock(gather.mu);
    gather.cv.wait(lock, [&] { return gather.completed == n; });
  }
  // Join everything, hedges included: a lost hedge race still references
  // this frame. Bounded — every shard call returns a result or an error
  // (remote calls within their wire budget).
  for (std::thread& t : threads) t.join();

  std::chrono::milliseconds straggler_bar = fanout_.straggler_threshold;
  if (straggler_bar.count() == 0) straggler_bar = fanout_.hedge_delay;
  uint64_t slowest_us = 0;
  for (uint32_t si = 0; si < n; ++si) {
    uint64_t us = gather.elapsed_us[si];
    slowest_us = std::max(slowest_us, us);
    if (straggler_bar.count() > 0 &&
        us > static_cast<uint64_t>(straggler_bar.count()) * 1000) {
      stragglers_->Add(1);
    }
  }
  slowest_us_->Record(slowest_us);

  // Any failure fails the lookup, except an unreachable shard under
  // allow_degraded. Shards are visited in id order, so the reported status
  // is deterministic.
  serve::LookupResult out;
  out.shards_ok = 0;
  for (uint32_t si = 0; si < n; ++si) {
    const Result<serve::LookupResult>& r = *gather.first[si];
    if (r.ok()) {
      ++out.shards_ok;
      continue;
    }
    if (allow_degraded_ && IsUnreachable(r.status())) {
      out.degraded = true;
      degraded_->Add(1);
      continue;
    }
    if (r.status().code() == StatusCode::kDeadlineExceeded) {
      deadline_rejects_->Add(1);
    } else {
      failed_lookups_->Add(1);
    }
    return r.status();
  }
  if (out.shards_ok == 0) {
    failed_lookups_->Add(1);
    return Status::Unavailable("no shard is reachable");
  }

  obs::ObsSpan merge_span(merge_us_);
  for (auto& r : gather.first) {
    if (!r->ok()) continue;
    std::vector<ValuedMatch>& part = r->ValueOrDie().matches;
    out.matches.insert(out.matches.end(), std::make_move_iterator(part.begin()),
                       std::make_move_iterator(part.end()));
  }
  // The exact comparator of the per-shard sort; ids are unique across the
  // disjoint partition, so this total order reproduces the unsharded sort.
  std::sort(out.matches.begin(), out.matches.end(),
            [](const ValuedMatch& a, const ValuedMatch& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.id < b.id;
            });
  if (out.matches.size() > k) out.matches.resize(k);
  merge_span.Stop();
  latency_us_->Record(MicrosSince(start));
  return out;
}

Result<uint64_t> ShardedLookupIndex::BroadcastLocked(
    uint32_t owner, uint64_t owner_epoch, const index::GlobalDelta& delta) {
  // An empty delta (a delete of an absent id) changes no statistics.
  bool empty = !delta.added.has_value() && !delta.removed.has_value();
  uint64_t cluster_epoch = owner_epoch;
  for (uint32_t si = 0; si < num_shards(); ++si) {
    if (si == owner) continue;
    SSJOIN_ASSIGN_OR_RETURN(uint64_t epoch,
                            empty ? shards_[si]->Epoch()
                                  : shards_[si]->ApplyGlobalDelta(delta));
    cluster_epoch += epoch;
  }
  return cluster_epoch;
}

Result<uint64_t> ShardedLookupIndex::Upsert(uint64_t doc_id,
                                            const std::string& value,
                                            const filter::AttrSet& attrs) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  uint32_t owner = ShardOf(doc_id, num_shards());
  index::GlobalDelta delta;
  SSJOIN_ASSIGN_OR_RETURN(
      uint64_t epoch, shards_[owner]->UpsertGlobal(doc_id, value, attrs, &delta));
  return BroadcastLocked(owner, epoch, delta);
}

Result<uint64_t> ShardedLookupIndex::Delete(uint64_t doc_id) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  uint32_t owner = ShardOf(doc_id, num_shards());
  index::GlobalDelta delta;
  SSJOIN_ASSIGN_OR_RETURN(uint64_t epoch,
                          shards_[owner]->DeleteGlobal(doc_id, &delta));
  return BroadcastLocked(owner, epoch, delta);
}

Status ShardedLookupIndex::BulkLoad(
    const std::vector<std::pair<uint64_t, std::string>>& records) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  std::vector<std::vector<std::pair<uint64_t, std::string>>> parts(
      num_shards());
  for (const auto& rec : records) {
    parts[ShardOf(rec.first, num_shards())].push_back(rec);
  }
  for (uint32_t i = 0; i < num_shards(); ++i) {
    if (parts[i].empty()) continue;
    SSJOIN_RETURN_NOT_OK(shards_[i]->BulkLoad(parts[i]));
  }
  return ResyncLocked();
}

std::string ShardedLookupIndex::StatsFields() {
  return ", \"shards\": " + std::to_string(num_shards()) +
         ", \"stats\": " + metrics_.ToFlatJson();
}

Result<uint64_t> ShardedLookupIndex::SumOverShards(
    Result<uint64_t> (ShardClient::*op)()) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  uint64_t sum = 0;
  for (const auto& shard : shards_) {
    SSJOIN_ASSIGN_OR_RETURN(uint64_t epoch, (shard.get()->*op)());
    sum += epoch;
  }
  return sum;
}

void InstallResync(serve::Handler* handler, ShardedLookupIndex* sharded) {
  handler->Install("resync", false,
                   [sharded](const serve::Request&) -> Result<std::string> {
                     SSJOIN_RETURN_NOT_OK(sharded->Resync());
                     return std::string("{\"ok\": true, \"resynced\": true}");
                   });
}

}  // namespace ssjoin::shard
