/// ssjoin_served — online fuzzy-lookup server over a unix domain socket.
///
/// Serves MutableFuzzyIndex lookups (the paper's §6 record-lookup scenario)
/// through serve::LookupService: each lookup runs on its connection's
/// thread behind a bounded admission limit, with a query cache and latency
/// metrics. The protocol is newline-delimited JSON (see src/serve/wire.h).
///
/// Examples:
///   # warm-start from a data dir built by `ssjoin_cli snapshot --out DIR`
///   ssjoin_served --data orgs.d --socket /tmp/ssjoin.sock
///
///   # cold-start straight from a CSV column
///   ssjoin_served --reference orgs.csv --col name --alpha 0.5
///                 --socket /tmp/ssjoin.sock
///
///   # then, from any client (or `ssjoin_cli lookup --socket ...`):
///   printf '{"op": "lookup", "query": "Mcrosoft Corp", "k": 3}\n'
///       | nc -U /tmp/ssjoin.sock

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/ssjoin.h"
#include "engine/csv.h"
#include "exec/metrics.h"
#include "filter/attr.h"
#include "filter/metrics.h"
#include "filter/predicate.h"
#include "index/manifest.h"
#include "index/mutable_index.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "serve/lookup_service.h"
#include "serve/wire.h"
#include "shard/coordinator.h"
#include "shard/replication.h"
#include "shard/router.h"
#include "shard/sharded_index.h"
#include "shard/wire_client.h"

namespace {

using namespace ssjoin;

struct Args {
  std::map<std::string, std::string> flags;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) continue;
    flag = flag.substr(2);
    // --flag=value binds tighter than the lookahead form, so "--cache=abc"
    // reaches the checked parser instead of becoming an unknown flag.
    if (size_t eq = flag.find('='); eq != std::string::npos) {
      args.flags[flag.substr(0, eq)] = flag.substr(eq + 1);
      continue;
    }
    if (i + 1 < argc && argv[i + 1][0] != '-') {
      args.flags[flag] = argv[++i];
    } else {
      args.flags[flag] = "true";
    }
  }
  return args;
}

/// Checked flag accessors: absent flags fall back, present flags must parse
/// completely (`--cache=abc` is a loud startup error, not a 0-entry cache).
Result<size_t> SizeFlag(const Args& args, const std::string& name,
                        size_t fallback) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) return fallback;
  Result<uint64_t> v = ParseUint64(it->second);
  if (!v.ok()) {
    return Status::Invalid("--" + name + ": " + v.status().message());
  }
  return static_cast<size_t>(*v);
}

Result<double> DoubleFlag(const Args& args, const std::string& name,
                          double fallback) {
  auto it = args.flags.find(name);
  if (it == args.flags.end()) return fallback;
  Result<double> v = ParseDouble(it->second);
  if (!v.ok()) {
    return Status::Invalid("--" + name + ": " + v.status().message());
  }
  return *v;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: ssjoin_served (--data DIR | --reference FILE --col COL)\n"
      "                     --socket PATH [--alpha A] [--qgrams Q]\n"
      "                     [--max-queue N] [--cache N] [--cache-shards N]\n"
      "                     [--k-default N] [--seal-threshold N]\n"
      "                     [--max-generations N] [--shards N]\n"
      "       ssjoin_served --coordinator SOCK1,SOCK2,... --socket PATH\n"
      "                     [--hedge-ms N] [--straggler-ms N] [--no-degraded]\n"
      "       ssjoin_served --follow LEADER_SOCK --data DIR --socket PATH\n"
      "                     [--sync-interval-ms N]\n"
      "  --data DIR       durable index directory: reopened (WAL replay) if it\n"
      "                   holds a MANIFEST (e.g. one written by ssjoin_cli\n"
      "                   snapshot), initialized from --reference otherwise\n"
      "  --reference FILE cold-start: build the index from this CSV\n"
      "  --col COL        CSV column holding the reference strings\n"
      "  --alpha A        min resemblance for a match (default 0.5)\n"
      "  --qgrams Q       use q-gram tokens instead of word tokens\n"
      "  --max-queue N    max lookups in flight; more are rejected with\n"
      "                   Unavailable (default 1024)\n"
      "  --cache N        query cache entries, 0 disables (default 4096)\n"
      "  --cache-shards N query cache shard count (default 8)\n"
      "  --k-default N    k when a lookup omits it (default 3)\n"
      "  --kernel T       intersection kernel tier: scalar|gallop|simd|auto\n"
      "                   (default auto; also via the SSJOIN_KERNEL env var)\n"
      "  --seal-threshold N   auto-seal the mutable tail at N docs (default 256)\n"
      "  --max-generations N  auto-compact beyond N sealed segments (default 4)\n"
      "modes:\n"
      "  --shards N       serve an in-process N-way sharded index (scatter-\n"
      "                   gather per lookup; results bit-identical to N=1)\n"
      "  --coordinator L  scatter-gather over shard SERVER processes at the\n"
      "                   listed sockets (position = shard id); --hedge-ms\n"
      "                   hedges stragglers, degraded partial responses when\n"
      "                   a shard is down unless --no-degraded\n"
      "  --follow SOCK    replicate the leader's sealed snapshots into --data\n"
      "                   and serve them read-only at the last sealed epoch\n"
      "ops: ping, lookup, upsert, delete, compact, seal, epoch, stats\n"
      "     (one-line JSON), metrics / stats+format=ndjson (header line, then\n"
      "     one NDJSON metric object per line), shutdown\n"
      "shard-server ops (single mode): slookup (exact hex-float scores),\n"
      "     upsert/delete with \"global\": true, gstats, gstats_reset, dump,\n"
      "     getvalue, repl_fetch; coordinator adds resync, follower adds sync\n");
  return 2;
}

struct ServerState {
  /// Exactly one backend is set, selecting the serving mode. `service` is a
  /// shared_ptr because the follower's sync loop swaps in a freshly opened
  /// service after each replicated epoch; requests pin the one they started
  /// on via Service().
  std::shared_ptr<serve::LookupService> service;
  std::mutex service_mu;
  shard::ShardedLookupIndex* sharded = nullptr;
  shard::Coordinator* coordinator = nullptr;

  /// Data directory served by repl_fetch (replication leader role); empty
  /// disables the op.
  std::string data_dir;
  /// Follower: every mutating op is rejected with Unavailable.
  bool read_only = false;
  /// Follower: forced replication round; returns (updated, epoch).
  std::function<Result<std::pair<bool, uint64_t>>()> sync_now;

  size_t default_k = 3;
  int listen_fd = -1;
  std::atomic<bool> stop{false};
  std::mutex conn_mu;
  std::set<int> conn_fds;

  std::shared_ptr<serve::LookupService> Service() {
    std::lock_guard<std::mutex> lock(service_mu);
    return service;
  }
};

std::string ErrorResponse(const Status& status) {
  return "{\"ok\": false, \"code\": \"" +
         serve::JsonEscape(StatusCodeToString(status.code())) +
         "\", \"error\": \"" + serve::JsonEscape(status.message()) + "\"}";
}

using JsonObj = std::map<std::string, serve::JsonValue>;

struct LookupParams {
  std::string query;
  size_t k = 3;
  std::chrono::milliseconds deadline{0};
  filter::FilterPredicate filter;
};

/// Largest integer a JSON number (a double) holds exactly.
constexpr uint64_t kMaxExactInteger = uint64_t{1} << 53;
/// Largest `deadline_ms`: one day. Far larger budgets overflow the
/// steady_clock nanosecond arithmetic of an absolute deadline.
constexpr uint64_t kMaxDeadlineMs = 86'400'000;

/// The numeric field `key`, or `fallback` when it is absent (absent with no
/// fallback is an error). Only integral numbers in [0, max] are accepted, so
/// the cast from double is exact: a fraction, a negative or out-of-range
/// value, or a non-number is an Invalid naming the field.
Result<uint64_t> UintField(const JsonObj& obj, const char* key, uint64_t max,
                           std::optional<uint64_t> fallback = std::nullopt) {
  auto it = obj.find(key);
  if (it == obj.end()) {
    if (fallback.has_value()) return *fallback;
  } else if (!it->second.is_object &&
             it->second.scalar.type == serve::JsonScalar::Type::kNumber) {
    double v = it->second.scalar.num;
    if (v >= 0.0 && v <= static_cast<double>(max) && v == std::floor(v)) {
      return static_cast<uint64_t>(v);
    }
  }
  return Status::Invalid(std::string("field '") + key +
                         "' must be an integer in [0, " + std::to_string(max) +
                         "]");
}

Result<LookupParams> ParseLookupParams(const JsonObj& obj, size_t default_k) {
  LookupParams p;
  auto query_it = obj.find("query");
  if (query_it == obj.end() || query_it->second.is_object ||
      query_it->second.scalar.type != serve::JsonScalar::Type::kString) {
    return Status::Invalid("lookup requires string field 'query'");
  }
  p.query = query_it->second.scalar.str;
  SSJOIN_ASSIGN_OR_RETURN(p.k, UintField(obj, "k", kMaxExactInteger, default_k));
  SSJOIN_ASSIGN_OR_RETURN(uint64_t deadline_ms,
                          UintField(obj, "deadline_ms", kMaxDeadlineMs, 0));
  p.deadline = std::chrono::milliseconds(deadline_ms);
  if (auto it = obj.find("filter"); it != obj.end()) {
    SSJOIN_ASSIGN_OR_RETURN(p.filter, serve::FilterFromWire(it->second));
  }
  return p;
}

Result<std::string> StringField(const JsonObj& obj, const char* key) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.is_object ||
      it->second.scalar.type != serve::JsonScalar::Type::kString) {
    return Status::Invalid(std::string("op requires string field '") + key +
                           "'");
  }
  return it->second.scalar.str;
}

bool BoolField(const JsonObj& obj, const char* key) {
  auto it = obj.find(key);
  return it != obj.end() && !it->second.is_object &&
         it->second.scalar.type == serve::JsonScalar::Type::kBool &&
         it->second.scalar.boolean;
}

/// The optional "attrs" object of an upsert; absent = no attributes.
/// Validation (control bytes, name length, leading '!') happens inside
/// AttrsFromWire, so malformed attributes are rejected at the wire before
/// they can reach the WAL.
Result<filter::AttrSet> AttrsField(const JsonObj& obj) {
  auto it = obj.find("attrs");
  if (it == obj.end()) return filter::AttrSet{};
  return serve::AttrsFromWire(it->second);
}

/// The human-facing match list: decimal similarity for display plus the
/// document value. Each entry is (id, similarity, value).
std::string MatchesResponse(
    const std::vector<std::tuple<uint64_t, double, std::string>>& matches,
    const char* extra) {
  std::string out = "{\"ok\": true";
  out += extra;
  out += ", \"matches\": [";
  for (size_t i = 0; i < matches.size(); ++i) {
    const auto& [id, similarity, value] = matches[i];
    if (i > 0) out += ", ";
    char sim[32];
    std::snprintf(sim, sizeof(sim), "%.6f", similarity);
    out += "{\"ref\": " + std::to_string(id) + ", \"similarity\": " + sim +
           ", \"value\": \"" + serve::JsonEscape(value) + "\"}";
  }
  out += "]}";
  return out;
}

std::string HandleLine(const std::string& line, ServerState* state,
                       bool* stop_after_reply) {
  auto parsed = serve::ParseJsonRequest(line);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const auto& obj = *parsed;

  auto op_it = obj.find("op");
  if (op_it == obj.end() || op_it->second.is_object ||
      op_it->second.scalar.type != serve::JsonScalar::Type::kString) {
    return ErrorResponse(Status::Invalid("missing string field 'op'"));
  }
  const std::string& op = op_it->second.scalar.str;

  if (op == "ping") return "{\"ok\": true}";

  // The registry NDJSON export: a header object announcing the line count,
  // then one {"metric": ...} object per line. Reachable as {"op": "metrics"}
  // or {"op": "stats", "format": "ndjson"}.
  auto ndjson_metrics = [] {
    std::string nd = obs::Registry::Global().ToNdjson();
    size_t lines = 0;
    for (char c : nd) lines += c == '\n';
    if (!nd.empty()) nd.pop_back();  // ServeConnection appends the last '\n'
    std::string out = "{\"ok\": true, \"format\": \"ndjson\", \"metrics\": " +
                      std::to_string(lines) + "}";
    if (lines > 0) out += "\n" + nd;
    return out;
  };

  if (op == "metrics") return ndjson_metrics();

  if (op == "shutdown") {
    *stop_after_reply = true;
    return "{\"ok\": true, \"stopping\": true}";
  }

  if (op == "stats") {
    auto fmt = obj.find("format");
    if (fmt != obj.end() && !fmt->second.is_object &&
        fmt->second.scalar.type == serve::JsonScalar::Type::kString &&
        fmt->second.scalar.str == "ndjson") {
      return ndjson_metrics();
    }
  }

  // ---- Coordinator mode: scatter-gather over shard server processes. ----
  if (state->coordinator != nullptr) {
    shard::Coordinator* coord = state->coordinator;
    if (op == "stats") {
      // The coordinator owns no LookupService; its observable surface is the
      // shard.* fan-out metrics, already in the registry export above.
      return "{\"ok\": true, \"mode\": \"coordinator\", \"shards\": " +
             std::to_string(coord->num_shards()) + "}";
    }
    if (op == "lookup") {
      auto params = ParseLookupParams(obj, state->default_k);
      if (!params.ok()) return ErrorResponse(params.status());
      auto result = coord->Lookup(params->query, params->k, params->deadline,
                                  params->filter);
      if (!result.ok()) return ErrorResponse(result.status());
      std::vector<std::tuple<uint64_t, double, std::string>> matches;
      matches.reserve(result->matches.size());
      for (const auto& m : result->matches) {
        matches.emplace_back(m.id, m.similarity, m.value);
      }
      std::string extra = std::string(", \"degraded\": ") +
                          (result->degraded ? "true" : "false") +
                          ", \"shards_ok\": " +
                          std::to_string(result->shards_ok);
      return MatchesResponse(matches, extra.c_str());
    }
    if (op == "upsert" || op == "delete") {
      auto id = UintField(obj, "id", kMaxExactInteger);
      if (!id.ok()) return ErrorResponse(id.status());
      auto epoch_response = [](const Result<uint64_t>& epoch) {
        if (!epoch.ok()) return ErrorResponse(epoch.status());
        return "{\"ok\": true, \"epoch\": " + std::to_string(*epoch) + "}";
      };
      if (op == "upsert") {
        auto value = StringField(obj, "value");
        if (!value.ok()) return ErrorResponse(value.status());
        auto attrs = AttrsField(obj);
        if (!attrs.ok()) return ErrorResponse(attrs.status());
        return epoch_response(coord->Upsert(*id, *value, *attrs));
      }
      return epoch_response(coord->Delete(*id));
    }
    if (op == "resync") {
      Status s = coord->Resync();
      if (!s.ok()) return ErrorResponse(s);
      return "{\"ok\": true, \"resynced\": true}";
    }
    if (op == "seal" || op == "compact") {
      Status s = coord->Broadcast(op);
      if (!s.ok()) return ErrorResponse(s);
      return "{\"ok\": true}";
    }
    if (op == "epoch") {
      auto epoch = coord->ClusterEpoch();
      if (!epoch.ok()) return ErrorResponse(epoch.status());
      return "{\"ok\": true, \"epoch\": " + std::to_string(*epoch) + "}";
    }
    return ErrorResponse(Status::Invalid("unknown coordinator op '" + op + "'"));
  }

  // ---- In-process sharded mode. ----
  if (state->sharded != nullptr) {
    shard::ShardedLookupIndex* sharded = state->sharded;
    auto epoch_reply = [sharded](const Status& status) {
      if (!status.ok()) return ErrorResponse(status);
      return "{\"ok\": true, \"epoch\": " + std::to_string(sharded->epoch()) +
             "}";
    };
    if (op == "stats") {
      return "{\"ok\": true, \"stats\": " + sharded->Stats().ToJson() + "}";
    }
    if (op == "lookup") {
      auto params = ParseLookupParams(obj, state->default_k);
      if (!params.ok()) return ErrorResponse(params.status());
      auto result = sharded->Lookup(params->query, params->k, params->deadline,
                                    params->filter);
      if (!result.ok()) return ErrorResponse(result.status());
      std::vector<std::tuple<uint64_t, double, std::string>> matches;
      matches.reserve(result->size());
      for (const auto& m : *result) {
        matches.emplace_back(m.id, m.similarity,
                             sharded->ValueOf(m.id).value_or(""));
      }
      return MatchesResponse(matches, "");
    }
    if (op == "upsert") {
      auto id = UintField(obj, "id", kMaxExactInteger);
      if (!id.ok()) return ErrorResponse(id.status());
      auto value = StringField(obj, "value");
      if (!value.ok()) return ErrorResponse(value.status());
      auto attrs = AttrsField(obj);
      if (!attrs.ok()) return ErrorResponse(attrs.status());
      return epoch_reply(sharded->Upsert(*id, *value, *attrs));
    }
    if (op == "delete") {
      auto id = UintField(obj, "id", kMaxExactInteger);
      if (!id.ok()) return ErrorResponse(id.status());
      return epoch_reply(sharded->Delete(*id));
    }
    if (op == "seal") return epoch_reply(sharded->Seal());
    if (op == "compact") return epoch_reply(sharded->Compact());
    if (op == "epoch") return epoch_reply(Status::OK());
    return ErrorResponse(Status::Invalid("unknown sharded op '" + op + "'"));
  }

  // ---- Single-service modes: standalone server, shard server, follower. --
  std::shared_ptr<serve::LookupService> service = state->Service();
  auto epoch_reply = [&service](const Status& status) {
    if (!status.ok()) return ErrorResponse(status);
    return "{\"ok\": true, \"epoch\": " + std::to_string(service->epoch()) +
           "}";
  };
  auto read_only_error = [] {
    return ErrorResponse(
        Status::Unavailable("follower is read-only; mutate the leader"));
  };

  if (op == "stats") {
    return "{\"ok\": true, \"stats\": " + service->Stats().ToJson() + "}";
  }

  if (op == "lookup" || op == "slookup") {
    auto params = ParseLookupParams(obj, state->default_k);
    if (!params.ok()) return ErrorResponse(params.status());
    auto result = service->Lookup(params->query, params->k, params->deadline,
                                  params->filter);
    if (!result.ok()) return ErrorResponse(result.status());
    if (op == "lookup") {
      std::vector<std::tuple<uint64_t, double, std::string>> matches;
      matches.reserve(result->size());
      for (const auto& m : *result) {
        matches.emplace_back(m.id, m.similarity,
                             service->ValueOf(m.id).value_or(""));
      }
      return MatchesResponse(matches, "");
    }
    // slookup: the machine-facing flat encoding of the same result. Scores
    // cross as hex-float literals, which round-trip the exact doubles — the
    // coordinator's merge stays bit-identical to an unsharded lookup.
    std::string ids, sims;
    std::vector<std::string> values;
    values.reserve(result->size());
    for (size_t i = 0; i < result->size(); ++i) {
      const auto& m = (*result)[i];
      if (i > 0) {
        ids += ',';
        sims += ',';
      }
      ids += std::to_string(m.id);
      sims += shard::FormatHexDouble(m.similarity);
      values.push_back(service->ValueOf(m.id).value_or(""));
    }
    return "{\"ok\": true, \"n\": " + std::to_string(result->size()) +
           ", \"ids\": \"" + ids + "\", \"sims\": \"" + sims +
           "\", \"values\": \"" +
           serve::JsonEscape(shard::PackNetstrings(values)) + "\"}";
  }

  if (op == "upsert" || op == "delete") {
    if (state->read_only) return read_only_error();
    auto id = UintField(obj, "id", kMaxExactInteger);
    if (!id.ok()) return ErrorResponse(id.status());
    if (!BoolField(obj, "global")) {
      if (op == "upsert") {
        auto value = StringField(obj, "value");
        if (!value.ok()) return ErrorResponse(value.status());
        auto attrs = AttrsField(obj);
        if (!attrs.ok()) return ErrorResponse(attrs.status());
        return epoch_reply(service->Upsert(*id, *value, *attrs));
      }
      return epoch_reply(service->Delete(*id));
    }
    // Shard-server role ("global": true): apply through the Global API and
    // report the replaced value, so the coordinator can broadcast the
    // global-stats delta to the other shards.
    index::GlobalDelta delta;
    Status status;
    if (op == "upsert") {
      auto value = StringField(obj, "value");
      if (!value.ok()) return ErrorResponse(value.status());
      auto attrs = AttrsField(obj);
      if (!attrs.ok()) return ErrorResponse(attrs.status());
      status = service->UpsertGlobal(*id, *value, *attrs, &delta);
    } else {
      status = service->DeleteGlobal(*id, &delta);
    }
    if (!status.ok()) return ErrorResponse(status);
    std::string out = "{\"ok\": true, \"epoch\": " +
                      std::to_string(service->epoch()) + ", \"had_prev\": ";
    out += delta.removed.has_value() ? "true" : "false";
    if (delta.removed.has_value()) {
      out += ", \"prev\": \"" + serve::JsonEscape(*delta.removed) + "\"";
    }
    out += "}";
    return out;
  }

  if (op == "gstats") {
    if (state->read_only) return read_only_error();
    index::GlobalDelta delta;
    if (BoolField(obj, "has_added")) {
      auto added = StringField(obj, "added");
      if (!added.ok()) return ErrorResponse(added.status());
      delta.added = *added;
    }
    if (BoolField(obj, "has_removed")) {
      auto removed = StringField(obj, "removed");
      if (!removed.ok()) return ErrorResponse(removed.status());
      delta.removed = *removed;
    }
    return epoch_reply(service->ApplyGlobalDelta(delta));
  }

  if (op == "gstats_reset") {
    if (state->read_only) return read_only_error();
    auto packed = StringField(obj, "values");
    if (!packed.ok()) return ErrorResponse(packed.status());
    auto values = shard::UnpackNetstrings(*packed);
    if (!values.ok()) return ErrorResponse(values.status());
    return epoch_reply(service->ResetGlobalStats(*values));
  }

  if (op == "dump") {
    std::vector<std::pair<uint64_t, std::string>> docs = service->LiveDocs();
    std::string ids;
    std::vector<std::string> values;
    values.reserve(docs.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      if (i > 0) ids += ',';
      ids += std::to_string(docs[i].first);
      values.push_back(std::move(docs[i].second));
    }
    return "{\"ok\": true, \"n\": " + std::to_string(values.size()) +
           ", \"ids\": \"" + ids + "\", \"values\": \"" +
           serve::JsonEscape(shard::PackNetstrings(values)) + "\"}";
  }

  if (op == "getvalue") {
    auto id = UintField(obj, "id", kMaxExactInteger);
    if (!id.ok()) return ErrorResponse(id.status());
    std::optional<std::string> value = service->ValueOf(*id);
    if (!value.has_value()) return "{\"ok\": true, \"found\": false}";
    std::string out = "{\"ok\": true, \"found\": true, \"value\": \"" +
                      serve::JsonEscape(*value) + "\"";
    std::optional<filter::AttrSet> attrs = service->AttrsOf(*id);
    if (attrs.has_value() && !attrs->empty()) {
      out += ", \"attrs\": " + serve::AttrsToJson(*attrs);
    }
    out += "}";
    return out;
  }

  if (op == "repl_fetch") {
    if (state->data_dir.empty()) {
      return ErrorResponse(
          Status::Invalid("repl_fetch requires a --data directory"));
    }
    auto name = StringField(obj, "name");
    if (!name.ok()) return ErrorResponse(name.status());
    if (name->empty() || *name == "." || *name == ".." ||
        name->find('/') != std::string::npos ||
        name->find('\\') != std::string::npos) {
      return ErrorResponse(
          Status::Invalid("repl_fetch name must be a basename"));
    }
    std::string path = state->data_dir + "/" + *name;
    if (!std::filesystem::exists(path)) {
      return ErrorResponse(Status::KeyError("no file '" + *name + "'"));
    }
    std::string bytes;
    Status read = common::ReadFile(path, &bytes);
    if (!read.ok()) return ErrorResponse(read);
    // Header line, then the raw body. ServeConnection's trailing newline
    // lands after the body; WireClient::ReadRaw consumes exactly `len`.
    return "{\"ok\": true, \"len\": " + std::to_string(bytes.size()) + "}\n" +
           bytes;
  }

  if (op == "sync") {
    if (!state->sync_now) {
      return ErrorResponse(Status::Invalid("sync is a follower-mode op"));
    }
    auto result = state->sync_now();
    if (!result.ok()) return ErrorResponse(result.status());
    return std::string("{\"ok\": true, \"updated\": ") +
           (result->first ? "true" : "false") +
           ", \"epoch\": " + std::to_string(result->second) + "}";
  }

  if (op == "seal") {
    if (state->read_only) return read_only_error();
    return epoch_reply(service->Seal());
  }
  if (op == "compact") {
    if (state->read_only) return read_only_error();
    return epoch_reply(service->Compact());
  }
  if (op == "epoch") return epoch_reply(Status::OK());

  return ErrorResponse(Status::Invalid("unknown op '" + op + "'"));
}

/// Writes the whole buffer, riding out EINTR and short writes. Returns false
/// only when the peer is genuinely gone (EPIPE/ECONNRESET/EOF-like), which
/// tears down this one connection — never the accept loop. The previous
/// `n <= 0` check treated a signal interruption as a dead client, silently
/// dropping every byte after the interrupt point mid-response.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // cannot make progress; avoid spinning
    off += static_cast<size_t>(n);
  }
  return true;
}

void ServeConnection(int fd, ServerState* state) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    size_t newline = buffer.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      bool stop_after_reply = false;
      bool sent = WriteAll(fd, HandleLine(line, state, &stop_after_reply) + "\n");
      if (stop_after_reply) {
        // Response is on the wire; now unblock the accept loop. The sweep in
        // RunServer nudges every other open connection.
        state->stop.store(true);
        ::shutdown(state->listen_fd, SHUT_RDWR);
      }
      if (!sent) break;
      continue;
    }
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;  // signal, not a dead client
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  {
    // Deregister before close so the shutdown sweep never touches a
    // recycled descriptor.
    std::lock_guard<std::mutex> lock(state->conn_mu);
    state->conn_fds.erase(fd);
  }
  ::close(fd);
}

Result<std::vector<std::pair<uint64_t, std::string>>> ReadReferenceRecords(
    const std::string& csv_path, const std::string& col) {
  SSJOIN_ASSIGN_OR_RETURN(engine::Table table, engine::ReadCsvFile(csv_path));
  SSJOIN_ASSIGN_OR_RETURN(size_t c, table.schema().FieldIndex(col));
  std::vector<std::pair<uint64_t, std::string>> records;
  records.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    records.emplace_back(r, table.GetValue(c, r).ToString());
  }
  return records;
}

Result<std::unique_ptr<index::MutableFuzzyIndex>> BuildOrLoadIndex(
    const Args& args) {
  index::MutableIndexOptions mopts;
  if (auto data = args.flags.find("data"); data != args.flags.end()) {
    mopts.data_dir = data->second;
  }
  SSJOIN_ASSIGN_OR_RETURN(mopts.seal_threshold,
                          SizeFlag(args, "seal-threshold", 256));
  SSJOIN_ASSIGN_OR_RETURN(mopts.max_generations,
                          SizeFlag(args, "max-generations", 4));

  // A data dir that already holds a manifest wins over every other source:
  // reopen it (sealed segments + WAL replay).
  if (!mopts.data_dir.empty() &&
      std::filesystem::exists(mopts.data_dir + "/" + index::kManifestFileName)) {
    Timer t;
    auto index = index::MutableFuzzyIndex::Open(mopts);
    if (index.ok()) {
      auto stats = (*index)->GetStats();
      std::fprintf(stderr,
                   "opened data dir %s (%llu live docs, epoch %llu) in %.1f ms\n",
                   mopts.data_dir.c_str(),
                   static_cast<unsigned long long>(stats.live_docs),
                   static_cast<unsigned long long>(stats.epoch),
                   t.ElapsedMillis());
    }
    return index;
  }

  auto ref = args.flags.find("reference");
  auto col = args.flags.find("col");
  SSJOIN_ASSIGN_OR_RETURN(mopts.match.alpha, DoubleFlag(args, "alpha", 0.5));
  if (args.flags.count("qgrams") > 0) {
    mopts.match.word_tokens = false;
    SSJOIN_ASSIGN_OR_RETURN(mopts.match.q, SizeFlag(args, "qgrams", 3));
  }
  if (ref == args.flags.end() || col == args.flags.end()) {
    // A bare --data dir starts an empty index to be filled over the wire —
    // how a fresh shard server in a coordinator deployment comes up.
    if (!mopts.data_dir.empty()) {
      SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                              index::MutableFuzzyIndex::Create(mopts));
      std::fprintf(stderr, "created empty index in %s\n",
                   mopts.data_dir.c_str());
      return index;
    }
    return Status::Invalid("either --data or --reference/--col is required");
  }
  SSJOIN_ASSIGN_OR_RETURN(auto records,
                          ReadReferenceRecords(ref->second, col->second));
  Timer t;
  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                          index::MutableFuzzyIndex::Create(mopts));
  SSJOIN_RETURN_NOT_OK(index->BulkLoad(records));
  SSJOIN_RETURN_NOT_OK(index->Seal());
  std::fprintf(stderr, "built index over %zu reference strings in %.1f ms\n",
               records.size(), t.ElapsedMillis());
  return index;
}

/// Binds the unix socket and serves connections until an op (or signal)
/// stops the server. Backend-agnostic: HandleLine routes per state's mode.
Result<int> ServeLoop(const std::string& socket_path, ServerState* state) {
  state->listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (state->listen_fd < 0) return Status::IOError("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(socket_path.c_str());
  if (::bind(state->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(state->listen_fd);
    return Status::IOError("cannot bind '" + socket_path + "'");
  }
  if (::listen(state->listen_fd, 64) != 0) {
    ::close(state->listen_fd);
    return Status::IOError("listen() failed");
  }
  std::printf("listening on %s\n", socket_path.c_str());
  std::fflush(stdout);

  std::vector<std::thread> connections;
  for (;;) {
    int fd = ::accept(state->listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (state->stop.load() || errno != EINTR) break;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(state->conn_mu);
      state->conn_fds.insert(fd);
    }
    connections.emplace_back(ServeConnection, fd, state);
  }
  ::close(state->listen_fd);
  // Nudge lingering connections so their threads observe EOF and exit.
  {
    std::lock_guard<std::mutex> lock(state->conn_mu);
    for (int fd : state->conn_fds) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : connections) t.join();
  ::unlink(socket_path.c_str());
  state->stop.store(true);
  return 0;
}

/// Follower-side Fetcher speaking the leader's repl_fetch op: header line
/// with the byte count, then the raw body. One fresh connection per file.
class WireFetcher : public shard::Fetcher {
 public:
  explicit WireFetcher(std::string leader_socket)
      : leader_socket_(std::move(leader_socket)) {}

  Result<std::string> Fetch(const std::string& name) override {
    SSJOIN_ASSIGN_OR_RETURN(shard::WireClient client,
                            shard::WireClient::Connect(leader_socket_));
    std::string line = "{\"op\": \"repl_fetch\", \"name\": \"" +
                       serve::JsonEscape(name) + "\"}";
    SSJOIN_ASSIGN_OR_RETURN(
        std::string header, client.Call(line, std::chrono::milliseconds(30000)));
    using FlatObj = std::map<std::string, serve::JsonScalar>;
    SSJOIN_ASSIGN_OR_RETURN(FlatObj obj, serve::ParseJsonObject(header));
    auto ok = obj.find("ok");
    if (ok == obj.end() || ok->second.type != serve::JsonScalar::Type::kBool) {
      return Status::IOError("repl_fetch header lacks 'ok'");
    }
    if (!ok->second.boolean) {
      auto code = obj.find("code");
      auto msg = obj.find("error");
      std::string message =
          msg != obj.end() && msg->second.type == serve::JsonScalar::Type::kString
              ? msg->second.str
              : "repl_fetch failed";
      if (code != obj.end() && code->second.str == "Key error") {
        return Status::KeyError(message);
      }
      return Status::IOError(message);
    }
    auto len = obj.find("len");
    if (len == obj.end() || len->second.type != serve::JsonScalar::Type::kNumber ||
        len->second.num < 0) {
      return Status::IOError("repl_fetch header lacks 'len'");
    }
    return client.ReadRaw(static_cast<size_t>(len->second.num),
                          std::chrono::milliseconds(60000));
  }

 private:
  std::string leader_socket_;
};

Result<int> RunCoordinator(const Args& args, const std::string& socket_path,
                           const std::string& shard_list, size_t default_k) {
  shard::CoordinatorOptions copts;
  copts.shard_sockets = SplitAndDropEmpty(shard_list, ",");
  SSJOIN_ASSIGN_OR_RETURN(size_t hedge_ms, SizeFlag(args, "hedge-ms", 0));
  SSJOIN_ASSIGN_OR_RETURN(size_t straggler_ms, SizeFlag(args, "straggler-ms", 0));
  SSJOIN_ASSIGN_OR_RETURN(size_t admin_ms,
                          SizeFlag(args, "admin-timeout-ms", 30000));
  copts.hedge_delay = std::chrono::milliseconds(hedge_ms);
  copts.straggler_threshold = std::chrono::milliseconds(straggler_ms);
  copts.admin_timeout = std::chrono::milliseconds(admin_ms);
  copts.allow_degraded = args.flags.count("no-degraded") == 0;
  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<shard::Coordinator> coordinator,
                          shard::Coordinator::Create(copts));
  std::fprintf(stderr, "coordinating %u shard servers\n",
               coordinator->num_shards());
  ServerState state;
  state.coordinator = coordinator.get();
  state.default_k = default_k;
  return ServeLoop(socket_path, &state);
}

Result<int> RunFollower(const Args& args, const std::string& socket_path,
                        const std::string& leader_socket, size_t default_k,
                        const serve::LookupServiceOptions& options) {
  auto data = args.flags.find("data");
  if (data == args.flags.end()) {
    return Status::Invalid("--follow requires --data DIR");
  }
  const std::string& dir = data->second;
  SSJOIN_ASSIGN_OR_RETURN(size_t interval_ms,
                          SizeFlag(args, "sync-interval-ms", 500));

  WireFetcher fetcher(leader_socket);
  // First sync before serving. An unreachable leader is tolerated only when
  // a previously replicated manifest exists — stale reads beat no reads.
  Result<shard::SyncResult> first = shard::SyncFromLeader(fetcher, dir);
  if (!first.ok() &&
      !std::filesystem::exists(dir + "/" + index::kManifestFileName)) {
    return first.status();
  }

  index::MutableIndexOptions mopts;
  mopts.data_dir = dir;
  auto open_service = [&]() -> Result<std::shared_ptr<serve::LookupService>> {
    SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                            index::MutableFuzzyIndex::Open(mopts));
    SSJOIN_ASSIGN_OR_RETURN(
        std::unique_ptr<serve::LookupService> svc,
        serve::LookupService::Create(std::move(index), options));
    return std::shared_ptr<serve::LookupService>(std::move(svc));
  };
  SSJOIN_ASSIGN_OR_RETURN(std::shared_ptr<serve::LookupService> service,
                          open_service());
  std::fprintf(stderr, "following %s at epoch %llu\n", leader_socket.c_str(),
               static_cast<unsigned long long>(service->epoch()));

  ServerState state;
  state.service = std::move(service);
  state.read_only = true;
  state.data_dir = dir;  // chained followers may repl_fetch from us
  state.default_k = default_k;

  std::mutex sync_mu;
  auto sync_once = [&]() -> Result<std::pair<bool, uint64_t>> {
    std::lock_guard<std::mutex> lock(sync_mu);
    SSJOIN_ASSIGN_OR_RETURN(shard::SyncResult sr,
                            shard::SyncFromLeader(fetcher, dir));
    if (!sr.updated) return std::make_pair(false, state.Service()->epoch());
    SSJOIN_ASSIGN_OR_RETURN(std::shared_ptr<serve::LookupService> fresh,
                            open_service());
    uint64_t epoch = fresh->epoch();
    {
      std::lock_guard<std::mutex> swap_lock(state.service_mu);
      state.service = std::move(fresh);
    }
    return std::make_pair(true, epoch);
  };
  state.sync_now = sync_once;

  std::thread syncer([&] {
    while (!state.stop.load()) {
      for (size_t waited = 0; waited < interval_ms && !state.stop.load();
           waited += 50) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (state.stop.load()) break;
      Result<std::pair<bool, uint64_t>> r = sync_once();
      if (!r.ok()) {
        std::fprintf(stderr, "sync: %s\n", r.status().ToString().c_str());
      }
    }
  });
  Result<int> rc = ServeLoop(socket_path, &state);
  state.stop.store(true);
  syncer.join();
  std::shared_ptr<serve::LookupService> final_service = state.Service();
  final_service->Shutdown();
  std::fprintf(stderr, "final stats: %s\n",
               final_service->Stats().ToJson().c_str());
  return rc;
}

Result<int> RunSharded(const Args& args, const std::string& socket_path,
                       size_t num_shards, size_t default_k,
                       const serve::LookupServiceOptions& options) {
  shard::ShardedIndexOptions sopts;
  sopts.num_shards = static_cast<uint32_t>(num_shards);
  sopts.service = options;
  if (auto it = args.flags.find("data"); it != args.flags.end()) {
    sopts.data_dir = it->second;
  }
  SSJOIN_ASSIGN_OR_RETURN(sopts.seal_threshold,
                          SizeFlag(args, "seal-threshold", 256));
  SSJOIN_ASSIGN_OR_RETURN(sopts.max_generations,
                          SizeFlag(args, "max-generations", 4));
  SSJOIN_ASSIGN_OR_RETURN(sopts.match.alpha, DoubleFlag(args, "alpha", 0.5));
  if (args.flags.count("qgrams") > 0) {
    sopts.match.word_tokens = false;
    SSJOIN_ASSIGN_OR_RETURN(sopts.match.q, SizeFlag(args, "qgrams", 3));
  }
  SSJOIN_ASSIGN_OR_RETURN(size_t hedge_ms, SizeFlag(args, "hedge-ms", 0));
  SSJOIN_ASSIGN_OR_RETURN(size_t straggler_ms, SizeFlag(args, "straggler-ms", 0));
  sopts.hedge_delay = std::chrono::milliseconds(hedge_ms);
  sopts.straggler_threshold = std::chrono::milliseconds(straggler_ms);

  std::unique_ptr<shard::ShardedLookupIndex> sharded;
  if (!sopts.data_dir.empty() &&
      std::filesystem::exists(sopts.data_dir + "/SHARDS")) {
    Timer t;
    SSJOIN_ASSIGN_OR_RETURN(sharded, shard::ShardedLookupIndex::Open(sopts));
    std::fprintf(stderr, "opened %u-shard data dir %s in %.1f ms\n",
                 sharded->num_shards(), sopts.data_dir.c_str(),
                 t.ElapsedMillis());
  } else {
    SSJOIN_ASSIGN_OR_RETURN(sharded, shard::ShardedLookupIndex::Create(sopts));
    auto ref = args.flags.find("reference");
    auto col = args.flags.find("col");
    if (ref != args.flags.end() && col != args.flags.end()) {
      Timer t;
      SSJOIN_ASSIGN_OR_RETURN(
          auto records, ReadReferenceRecords(ref->second, col->second));
      SSJOIN_RETURN_NOT_OK(sharded->BulkLoad(records));
      SSJOIN_RETURN_NOT_OK(sharded->Seal());
      std::fprintf(stderr,
                   "built %u-shard index over %zu reference strings in %.1f ms\n",
                   sharded->num_shards(), records.size(), t.ElapsedMillis());
    }
  }

  ServerState state;
  state.sharded = sharded.get();
  state.default_k = default_k;
  Result<int> rc = ServeLoop(socket_path, &state);
  std::fprintf(stderr, "final stats: %s\n",
               sharded->Stats().ToJson().c_str());
  return rc;
}

Result<int> RunServer(const Args& args) {
  auto socket_it = args.flags.find("socket");
  if (socket_it == args.flags.end()) {
    return Status::Invalid("--socket PATH is required");
  }
  const std::string& socket_path = socket_it->second;
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::Invalid("socket path too long");
  }
  SSJOIN_ASSIGN_OR_RETURN(size_t default_k, SizeFlag(args, "k-default", 3));

  if (auto it = args.flags.find("coordinator"); it != args.flags.end()) {
    return RunCoordinator(args, socket_path, it->second, default_k);
  }

  // Validate every numeric flag before the (possibly slow) index build, so
  // a typo'd flag fails in milliseconds instead of after a CSV load.
  serve::LookupServiceOptions options;
  SSJOIN_ASSIGN_OR_RETURN(options.max_queue, SizeFlag(args, "max-queue", 1024));
  SSJOIN_ASSIGN_OR_RETURN(options.cache_capacity, SizeFlag(args, "cache", 4096));
  SSJOIN_ASSIGN_OR_RETURN(options.cache_shards,
                          SizeFlag(args, "cache-shards", 8));

  if (auto it = args.flags.find("follow"); it != args.flags.end()) {
    return RunFollower(args, socket_path, it->second, default_k, options);
  }

  SSJOIN_ASSIGN_OR_RETURN(size_t num_shards, SizeFlag(args, "shards", 1));
  if (num_shards > 1) {
    return RunSharded(args, socket_path, num_shards, default_k, options);
  }

  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                          BuildOrLoadIndex(args));

  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<serve::LookupService> service,
                          serve::LookupService::Create(std::move(index), options));

  ServerState state;
  state.service = std::shared_ptr<serve::LookupService>(std::move(service));
  state.default_k = default_k;
  if (auto it = args.flags.find("data"); it != args.flags.end()) {
    state.data_dir = it->second;  // serve repl_fetch (replication leader role)
  }
  Result<int> rc = ServeLoop(socket_path, &state);
  std::shared_ptr<serve::LookupService> final_service = state.Service();
  final_service->Shutdown();
  std::fprintf(stderr, "final stats: %s\n",
               final_service->Stats().ToJson().c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  // Pre-create the core and exec metric names so the NDJSON export covers
  // all three layers even before the first lookup dispatches (serve.* names
  // come from the LookupService's registry provider).
  core::RegisterCoreMetrics();
  exec::RegisterExecMetrics();
  kernels::RegisterKernelMetrics();
  filter::RegisterFilterMetrics();
  Args args = ParseArgs(argc, argv);
  if (args.flags.count("help") > 0 || argc < 2) return Usage();
  // --kernel scalar|gallop|simd|auto (or SSJOIN_KERNEL): pin the
  // intersection kernel tier; unknown names are a loud startup error.
  Status kernel_status = kernels::InitFromEnv();
  if (kernel_status.ok()) {
    if (auto it = args.flags.find("kernel"); it != args.flags.end()) {
      Result<kernels::Tier> tier = kernels::ParseTier(it->second);
      kernel_status = tier.ok() ? kernels::SetTier(*tier) : tier.status();
    }
  }
  if (!kernel_status.ok()) {
    std::fprintf(stderr, "error: %s\n", kernel_status.ToString().c_str());
    return 1;
  }
  Result<int> rc = RunServer(args);
  if (!rc.ok()) {
    std::fprintf(stderr, "error: %s\n", rc.status().ToString().c_str());
    return 1;
  }
  return *rc;
}
