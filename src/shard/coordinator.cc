#include "shard/coordinator.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <optional>
#include <thread>

#include "common/string_util.h"

#include "serve/wire.h"
#include "shard/wire_client.h"

namespace ssjoin::shard {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
          .count());
}

/// Rehydrates the status a shard server reported in its error response, so
/// wire hops do not flatten "deadline exceeded on the shard" into a generic
/// IO error (the coordinator's failure policy keys on the code).
Status StatusFromWire(const std::string& code, const std::string& message) {
  if (code == "Deadline exceeded") return Status::DeadlineExceeded(message);
  if (code == "Unavailable") return Status::Unavailable(message);
  if (code == "Invalid argument") return Status::Invalid(message);
  if (code == "Key error") return Status::KeyError(message);
  return Status::IOError(code + ": " + message);
}

using JsonObject = std::map<std::string, serve::JsonScalar>;

Result<std::string> GetString(const JsonObject& obj, const char* key) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.type != serve::JsonScalar::Type::kString) {
    return Status::IOError(std::string("shard response lacks string '") + key +
                           "'");
  }
  return it->second.str;
}

Result<uint64_t> GetUint(const JsonObject& obj, const char* key) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.type != serve::JsonScalar::Type::kNumber ||
      it->second.num < 0) {
    return Status::IOError(std::string("shard response lacks number '") + key +
                           "'");
  }
  return static_cast<uint64_t>(it->second.num);
}

bool GetBool(const JsonObject& obj, const char* key) {
  auto it = obj.find(key);
  return it != obj.end() &&
         it->second.type == serve::JsonScalar::Type::kBool && it->second.boolean;
}

/// One request/response round trip on a fresh connection. Connection-level
/// problems come back as Unavailable/IOError; an {"ok": false} response is
/// rehydrated via StatusFromWire.
Result<JsonObject> CallShard(const std::string& socket_path,
                             const std::string& line,
                             std::chrono::milliseconds timeout) {
  SSJOIN_ASSIGN_OR_RETURN(WireClient client, WireClient::Connect(socket_path));
  SSJOIN_ASSIGN_OR_RETURN(std::string reply, client.Call(line, timeout));
  SSJOIN_ASSIGN_OR_RETURN(JsonObject obj, serve::ParseJsonObject(reply));
  auto ok = obj.find("ok");
  if (ok == obj.end() || ok->second.type != serve::JsonScalar::Type::kBool) {
    return Status::IOError("shard response lacks 'ok'");
  }
  if (!ok->second.boolean) {
    std::string code = "IO error", message = "shard reported failure";
    if (auto c = GetString(obj, "code"); c.ok()) code = *c;
    if (auto m = GetString(obj, "error"); m.ok()) message = *m;
    return StatusFromWire(code, message);
  }
  return obj;
}

/// A shard whose process is dead or unreachable (vs. one that answered with
/// an application error) — the only failures degraded mode may drop.
bool IsUnreachable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kIOError;
}

std::vector<std::string> SplitCommaList(const std::string& s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i <= s.size()) {
    size_t comma = s.find(',', i);
    if (comma == std::string::npos) comma = s.size();
    if (comma > i) out.push_back(s.substr(i, comma - i));
    i = comma + 1;
  }
  return out;
}

Result<std::vector<WireMatch>> ParseMatches(const JsonObject& obj) {
  SSJOIN_ASSIGN_OR_RETURN(uint64_t n, GetUint(obj, "n"));
  SSJOIN_ASSIGN_OR_RETURN(std::string ids_s, GetString(obj, "ids"));
  SSJOIN_ASSIGN_OR_RETURN(std::string sims_s, GetString(obj, "sims"));
  SSJOIN_ASSIGN_OR_RETURN(std::string values_s, GetString(obj, "values"));
  std::vector<std::string> ids = SplitCommaList(ids_s);
  std::vector<std::string> sims = SplitCommaList(sims_s);
  SSJOIN_ASSIGN_OR_RETURN(std::vector<std::string> values,
                          UnpackNetstrings(values_s));
  if (ids.size() != n || sims.size() != n || values.size() != n) {
    return Status::IOError("shard lookup response fields disagree on count");
  }
  std::vector<WireMatch> matches(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    SSJOIN_ASSIGN_OR_RETURN(matches[i].id, ParseUint64(ids[i]));
    SSJOIN_ASSIGN_OR_RETURN(matches[i].similarity, ParseHexDouble(sims[i]));
    matches[i].value = std::move(values[i]);
  }
  return matches;
}

}  // namespace

Coordinator::Coordinator(const CoordinatorOptions& options)
    : options_(options) {}

Coordinator::~Coordinator() {
  if (uint64_t pid = provider_id_.exchange(0); pid != 0) {
    obs::Registry::Global().UnregisterProvider(pid);
  }
}

Result<std::unique_ptr<Coordinator>> Coordinator::Create(
    const CoordinatorOptions& options) {
  if (options.shard_sockets.empty()) {
    return Status::Invalid("coordinator needs at least one shard socket");
  }
  std::unique_ptr<Coordinator> coord(new Coordinator(options));
  coord->provider_id_.store(obs::Registry::Global().RegisterProvider(
      [c = coord.get()](std::vector<obs::MetricPoint>* out) {
        CollectShardMetrics(c->metrics_, c->num_shards(), out);
      }));
  return coord;
}

Result<std::vector<WireMatch>> Coordinator::LookupShard(
    uint32_t si, const std::string& query, size_t k, bool has_deadline,
    Clock::time_point abs_deadline, const filter::FilterPredicate& filter) {
  std::string line = "{\"op\": \"slookup\", \"query\": \"" +
                     serve::JsonEscape(query) +
                     "\", \"k\": " + std::to_string(k);
  std::chrono::milliseconds wire_budget = options_.admin_timeout;
  if (has_deadline) {
    Clock::time_point now = Clock::now();
    if (now >= abs_deadline) {
      return Status::DeadlineExceeded("shard budget exhausted before dispatch");
    }
    auto remaining =
        std::chrono::ceil<std::chrono::milliseconds>(abs_deadline - now);
    line += ", \"deadline_ms\": " + std::to_string(remaining.count());
    // The shard enforces the deadline itself; the wire budget adds transport
    // slack so its DeadlineExceeded response beats our socket timeout.
    wire_budget = remaining + std::chrono::milliseconds(1000);
  }
  if (!filter.empty()) {
    // The canonical form both sides agree on: the shard re-parses it into
    // the same predicate, and its own cache keys use the same bytes.
    line += ", \"filter\": " + filter.CanonicalJson();
  }
  line += "}";
  SSJOIN_ASSIGN_OR_RETURN(
      JsonObject obj,
      CallShard(options_.shard_sockets[si], line, wire_budget));
  return ParseMatches(obj);
}

Result<CoordinatorLookup> Coordinator::Lookup(const std::string& query,
                                              size_t k,
                                              std::chrono::milliseconds deadline,
                                              const filter::FilterPredicate& filter) {
  Clock::time_point start = Clock::now();
  if (deadline.count() < 0) {
    metrics_.deadline_rejects.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded("deadline expired before scatter");
  }
  bool has_deadline = deadline.count() > 0;
  Clock::time_point abs_deadline = start + deadline;
  uint32_t n = num_shards();
  metrics_.lookups.fetch_add(1, std::memory_order_relaxed);
  metrics_.fanouts.fetch_add(n, std::memory_order_relaxed);

  struct Gather {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::optional<Result<std::vector<WireMatch>>>> first;
    std::vector<uint64_t> elapsed_us;
    size_t completed = 0;
  } gather;
  gather.first.resize(n);
  gather.elapsed_us.assign(n, 0);

  std::vector<std::thread> threads;
  threads.reserve(n + 1);
  auto launch = [&](uint32_t si, bool is_hedge) {
    threads.emplace_back([&, si, is_hedge] {
      Result<std::vector<WireMatch>> r = LookupShard(
          si, query, k, has_deadline, abs_deadline, filter);
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
  for (uint32_t si = 0; si < n; ++si) launch(si, /*is_hedge=*/false);

  if (options_.hedge_delay.count() > 0) {
    std::vector<uint32_t> laggards;
    {
      std::unique_lock<std::mutex> lock(gather.mu);
      if (!gather.cv.wait_for(lock, options_.hedge_delay,
                              [&] { return gather.completed == n; })) {
        for (uint32_t si = 0; si < n; ++si) {
          if (!gather.first[si].has_value()) laggards.push_back(si);
        }
      }
    }
    for (uint32_t si : laggards) {
      metrics_.hedges.fetch_add(1, std::memory_order_relaxed);
      launch(si, /*is_hedge=*/true);
    }
  }
  {
    std::unique_lock<std::mutex> lock(gather.mu);
    gather.cv.wait(lock, [&] { return gather.completed == n; });
  }
  for (std::thread& t : threads) t.join();

  std::chrono::milliseconds straggler_bar = options_.straggler_threshold;
  if (straggler_bar.count() == 0) straggler_bar = options_.hedge_delay;
  uint64_t slowest_us = 0;
  for (uint32_t si = 0; si < n; ++si) {
    uint64_t us = gather.elapsed_us[si];
    slowest_us = std::max(slowest_us, us);
    if (straggler_bar.count() > 0 &&
        us > static_cast<uint64_t>(straggler_bar.count()) * 1000) {
      metrics_.stragglers.fetch_add(1, std::memory_order_relaxed);
    }
  }
  metrics_.slowest_us.Record(slowest_us);

  CoordinatorLookup out;
  std::vector<const std::vector<WireMatch>*> parts;
  for (uint32_t si = 0; si < n; ++si) {
    const Result<std::vector<WireMatch>>& r = *gather.first[si];
    if (r.ok()) {
      parts.push_back(&r.ValueOrDie());
      ++out.shards_ok;
      continue;
    }
    if (options_.allow_degraded && IsUnreachable(r.status())) {
      out.degraded = true;
      metrics_.degraded.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (r.status().code() == StatusCode::kDeadlineExceeded) {
      metrics_.deadline_rejects.fetch_add(1, std::memory_order_relaxed);
    } else {
      metrics_.failed_lookups.fetch_add(1, std::memory_order_relaxed);
    }
    return r.status();
  }
  if (out.shards_ok == 0) {
    metrics_.failed_lookups.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("no shard is reachable");
  }

  obs::ObsSpan merge_span(&metrics_.merge_us);
  for (const auto* part : parts) {
    out.matches.insert(out.matches.end(), part->begin(), part->end());
  }
  std::sort(out.matches.begin(), out.matches.end(),
            [](const WireMatch& a, const WireMatch& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.id < b.id;
            });
  if (out.matches.size() > k) out.matches.resize(k);
  merge_span.Stop();
  metrics_.latency_us.Record(MicrosSince(start));
  return out;
}

Result<uint64_t> Coordinator::Upsert(uint64_t doc_id, const std::string& value,
                                     const filter::AttrSet& attrs) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  uint32_t owner = ShardOf(doc_id, num_shards());
  std::string line = "{\"op\": \"upsert\", \"id\": " + std::to_string(doc_id) +
                     ", \"value\": \"" + serve::JsonEscape(value) +
                     "\", \"global\": true";
  if (!attrs.empty()) {
    line += ", \"attrs\": " + serve::AttrsToJson(attrs);
  }
  line += "}";
  SSJOIN_ASSIGN_OR_RETURN(
      JsonObject reply,
      CallShard(options_.shard_sockets[owner], line, options_.admin_timeout));
  SSJOIN_ASSIGN_OR_RETURN(uint64_t epoch_sum, GetUint(reply, "epoch"));

  std::string delta = "{\"op\": \"gstats\", \"has_added\": true, \"added\": \"" +
                      serve::JsonEscape(value) + "\"";
  if (GetBool(reply, "had_prev")) {
    SSJOIN_ASSIGN_OR_RETURN(std::string prev, GetString(reply, "prev"));
    delta += ", \"has_removed\": true, \"removed\": \"" +
             serve::JsonEscape(prev) + "\"";
  }
  delta += "}";
  for (uint32_t si = 0; si < num_shards(); ++si) {
    if (si == owner) continue;
    SSJOIN_ASSIGN_OR_RETURN(
        JsonObject r,
        CallShard(options_.shard_sockets[si], delta, options_.admin_timeout));
    SSJOIN_ASSIGN_OR_RETURN(uint64_t e, GetUint(r, "epoch"));
    epoch_sum += e;
  }
  return epoch_sum;
}

Result<uint64_t> Coordinator::Delete(uint64_t doc_id) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  uint32_t owner = ShardOf(doc_id, num_shards());
  std::string line = "{\"op\": \"delete\", \"id\": " + std::to_string(doc_id) +
                     ", \"global\": true}";
  SSJOIN_ASSIGN_OR_RETURN(
      JsonObject reply,
      CallShard(options_.shard_sockets[owner], line, options_.admin_timeout));
  SSJOIN_ASSIGN_OR_RETURN(uint64_t epoch_sum, GetUint(reply, "epoch"));
  if (!GetBool(reply, "had_prev")) return epoch_sum;  // no-op tombstone

  SSJOIN_ASSIGN_OR_RETURN(std::string prev, GetString(reply, "prev"));
  std::string delta =
      "{\"op\": \"gstats\", \"has_removed\": true, \"removed\": \"" +
      serve::JsonEscape(prev) + "\"}";
  for (uint32_t si = 0; si < num_shards(); ++si) {
    if (si == owner) continue;
    SSJOIN_ASSIGN_OR_RETURN(
        JsonObject r,
        CallShard(options_.shard_sockets[si], delta, options_.admin_timeout));
    SSJOIN_ASSIGN_OR_RETURN(uint64_t e, GetUint(r, "epoch"));
    epoch_sum += e;
  }
  return epoch_sum;
}

Status Coordinator::Resync() {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  std::vector<std::pair<uint64_t, std::string>> all;
  for (uint32_t si = 0; si < num_shards(); ++si) {
    SSJOIN_ASSIGN_OR_RETURN(
        JsonObject reply,
        CallShard(options_.shard_sockets[si], "{\"op\": \"dump\"}",
                  options_.admin_timeout));
    SSJOIN_ASSIGN_OR_RETURN(uint64_t count, GetUint(reply, "n"));
    SSJOIN_ASSIGN_OR_RETURN(std::string ids_s, GetString(reply, "ids"));
    SSJOIN_ASSIGN_OR_RETURN(std::string values_s, GetString(reply, "values"));
    std::vector<std::string> ids = SplitCommaList(ids_s);
    SSJOIN_ASSIGN_OR_RETURN(std::vector<std::string> values,
                            UnpackNetstrings(values_s));
    if (ids.size() != count || values.size() != count) {
      return Status::IOError("shard dump fields disagree on count");
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      SSJOIN_ASSIGN_OR_RETURN(uint64_t id, ParseUint64(ids[i]));
      all.emplace_back(id, std::move(values[i]));
    }
  }
  // Same deterministic order ShardedLookupIndex::RebuildGlobalStatsLocked
  // feeds ResetGlobalStats, so both tiers intern identically after recovery.
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> values;
  values.reserve(all.size());
  for (auto& [id, value] : all) values.push_back(std::move(value));
  std::string line = "{\"op\": \"gstats_reset\", \"values\": \"" +
                     serve::JsonEscape(PackNetstrings(values)) + "\"}";
  for (uint32_t si = 0; si < num_shards(); ++si) {
    SSJOIN_RETURN_NOT_OK(
        CallShard(options_.shard_sockets[si], line, options_.admin_timeout)
            .status());
  }
  return Status::OK();
}

Status Coordinator::Broadcast(const std::string& op) {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  std::string line = "{\"op\": \"" + serve::JsonEscape(op) + "\"}";
  for (uint32_t si = 0; si < num_shards(); ++si) {
    SSJOIN_RETURN_NOT_OK(
        CallShard(options_.shard_sockets[si], line, options_.admin_timeout)
            .status());
  }
  return Status::OK();
}

Result<uint64_t> Coordinator::ClusterEpoch() {
  uint64_t sum = 0;
  for (uint32_t si = 0; si < num_shards(); ++si) {
    SSJOIN_ASSIGN_OR_RETURN(
        JsonObject reply,
        CallShard(options_.shard_sockets[si], "{\"op\": \"epoch\"}",
                  options_.admin_timeout));
    SSJOIN_ASSIGN_OR_RETURN(uint64_t e, GetUint(reply, "epoch"));
    sum += e;
  }
  return sum;
}

}  // namespace ssjoin::shard
