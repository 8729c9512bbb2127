#include "shard/shard_client.h"

#include <map>

#include "common/string_util.h"
#include "serve/wire.h"
#include "shard/wire_client.h"

namespace ssjoin::shard {

// ---------------------------------------------------------------------------
// RemoteShard

namespace {

using JsonObject = std::map<std::string, serve::JsonScalar>;

Result<std::string> GetString(const JsonObject& obj, const char* key) {
  auto it = obj.find(key);
  if (it == obj.end() || it->second.type != serve::JsonScalar::Type::kString) {
    return Status::IOError(std::string("shard response lacks string '") + key +
                           "'");
  }
  return it->second.str;
}

/// A count or epoch from a shard reply: an exact integer, else IOError (the
/// peer is broken, never a silently truncated or undefined cast).
Result<uint64_t> GetUint(const JsonObject& obj, const char* key) {
  auto it = obj.find(key);
  Result<uint64_t> v = it == obj.end() ? Status::Invalid("missing")
                                       : serve::UintFromJson(it->second);
  if (!v.ok()) {
    return Status::IOError(std::string("shard response field '") + key +
                           "': " + v.status().message());
  }
  return v;
}

bool GetBool(const JsonObject& obj, const char* key) {
  auto it = obj.find(key);
  return it != obj.end() &&
         it->second.type == serve::JsonScalar::Type::kBool && it->second.boolean;
}

/// The "n" / comma-separated "ids" / netstring "values" triple that slookup
/// and dump replies share, checked to agree on the count.
Status ParseIdsAndValues(const JsonObject& obj, std::vector<uint64_t>* ids,
                         std::vector<std::string>* values) {
  SSJOIN_ASSIGN_OR_RETURN(uint64_t n, GetUint(obj, "n"));
  SSJOIN_ASSIGN_OR_RETURN(std::string ids_s, GetString(obj, "ids"));
  SSJOIN_ASSIGN_OR_RETURN(std::string values_s, GetString(obj, "values"));
  std::vector<std::string> id_strings = SplitAndDropEmpty(ids_s, ",");
  SSJOIN_ASSIGN_OR_RETURN(*values, UnpackNetstrings(values_s));
  if (id_strings.size() != n || values->size() != n) {
    return Status::IOError("shard response fields disagree on count");
  }
  ids->resize(n);
  for (size_t i = 0; i < n; ++i) {
    SSJOIN_ASSIGN_OR_RETURN((*ids)[i], ParseUint64(id_strings[i]));
  }
  return Status::OK();
}

/// An owner-shard reply: its epoch, and the replaced value as the delta's
/// `removed` side.
Result<uint64_t> ParseOwnerReply(const JsonObject& reply,
                                 index::GlobalDelta* delta) {
  if (GetBool(reply, "had_prev")) {
    SSJOIN_ASSIGN_OR_RETURN(delta->removed, GetString(reply, "prev"));
  }
  return GetUint(reply, "epoch");
}

}  // namespace

Result<JsonObject> RemoteShard::Call(const std::string& line,
                                     std::chrono::milliseconds timeout) const {
  SSJOIN_ASSIGN_OR_RETURN(WireClient client, WireClient::Connect(socket_path_));
  return CallExpectOk(client, line,
                      timeout.count() > 0 ? timeout : admin_timeout_);
}

Result<serve::LookupResult> RemoteShard::Lookup(
    const std::string& query, size_t k, std::chrono::milliseconds remaining,
    const filter::FilterPredicate& filter) {
  std::string line = "{\"op\": \"slookup\", \"query\": \"" +
                     serve::JsonEscape(query) +
                     "\", \"k\": " + std::to_string(k);
  std::chrono::milliseconds wire_budget{0};  // the admin timeout
  if (remaining.count() > 0) {
    line += ", \"deadline_ms\": " + std::to_string(remaining.count());
    // The shard enforces the deadline itself; the wire budget adds transport
    // slack so its DeadlineExceeded response beats our socket timeout.
    wire_budget = remaining + std::chrono::milliseconds(1000);
  }
  if (!filter.empty()) {
    // The canonical form both sides agree on: the shard re-parses it into
    // the same predicate.
    line += ", \"filter\": " + filter.CanonicalJson();
  }
  line += "}";
  SSJOIN_ASSIGN_OR_RETURN(JsonObject obj, Call(line, wire_budget));
  std::vector<uint64_t> ids;
  std::vector<std::string> values;
  SSJOIN_RETURN_NOT_OK(ParseIdsAndValues(obj, &ids, &values));
  SSJOIN_ASSIGN_OR_RETURN(std::string sims_s, GetString(obj, "sims"));
  std::vector<std::string> sims = SplitAndDropEmpty(sims_s, ",");
  if (sims.size() != ids.size()) {
    return Status::IOError("shard lookup response fields disagree on count");
  }
  serve::LookupResult out;
  out.matches.resize(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    serve::ValuedMatch& m = out.matches[i];
    m.id = ids[i];
    SSJOIN_ASSIGN_OR_RETURN(m.similarity, ParseHexDouble(sims[i]));
    m.value = std::move(values[i]);
  }
  return out;
}

Result<uint64_t> RemoteShard::UpsertGlobal(uint64_t doc_id,
                                           const std::string& value,
                                           const filter::AttrSet& attrs,
                                           index::GlobalDelta* delta) {
  std::string line = "{\"op\": \"upsert\", \"id\": " + std::to_string(doc_id) +
                     ", \"value\": \"" + serve::JsonEscape(value) +
                     "\", \"global\": true";
  if (!attrs.empty()) line += ", \"attrs\": " + serve::AttrsToJson(attrs);
  line += "}";
  SSJOIN_ASSIGN_OR_RETURN(JsonObject reply, Call(line));
  delta->added = value;
  return ParseOwnerReply(reply, delta);
}

Result<uint64_t> RemoteShard::DeleteGlobal(uint64_t doc_id,
                                           index::GlobalDelta* delta) {
  std::string line = "{\"op\": \"delete\", \"id\": " + std::to_string(doc_id) +
                     ", \"global\": true}";
  SSJOIN_ASSIGN_OR_RETURN(JsonObject reply, Call(line));
  return ParseOwnerReply(reply, delta);
}

Result<uint64_t> RemoteShard::ApplyGlobalDelta(const index::GlobalDelta& delta) {
  std::string line = "{\"op\": \"gstats\"";
  if (delta.added.has_value()) {
    line += ", \"has_added\": true, \"added\": \"" +
            serve::JsonEscape(*delta.added) + "\"";
  }
  if (delta.removed.has_value()) {
    line += ", \"has_removed\": true, \"removed\": \"" +
            serve::JsonEscape(*delta.removed) + "\"";
  }
  line += "}";
  return CallForEpoch(line);
}

Status RemoteShard::ResetGlobalStats(const std::vector<std::string>& values) {
  std::string line = "{\"op\": \"gstats_reset\", \"values\": \"" +
                     serve::JsonEscape(PackNetstrings(values)) + "\"}";
  return Call(line).status();
}

Result<std::vector<std::pair<uint64_t, std::string>>> RemoteShard::LiveDocs() {
  SSJOIN_ASSIGN_OR_RETURN(JsonObject reply, Call("{\"op\": \"dump\"}"));
  std::vector<uint64_t> ids;
  std::vector<std::string> values;
  SSJOIN_RETURN_NOT_OK(ParseIdsAndValues(reply, &ids, &values));
  std::vector<std::pair<uint64_t, std::string>> docs;
  docs.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    docs.emplace_back(ids[i], std::move(values[i]));
  }
  return docs;
}

Result<uint64_t> RemoteShard::CallForEpoch(const std::string& line) const {
  SSJOIN_ASSIGN_OR_RETURN(JsonObject reply, Call(line));
  return GetUint(reply, "epoch");
}

// ---------------------------------------------------------------------------
// Shard-server ops: the other end of every RemoteShard call above

namespace {

/// True only for a present boolean `true`.
bool BoolField(const serve::Request& req, const char* key) {
  auto it = req.find(key);
  return it != req.end() && !it->second.is_object &&
         it->second.scalar.type == serve::JsonScalar::Type::kBool &&
         it->second.scalar.boolean;
}

/// The "ids" list of a slookup or dump reply.
std::string JoinIds(const std::vector<uint64_t>& ids) {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(ids[i]);
  }
  return out;
}

/// The reply ParseIdsAndValues reads; `extra` (slookup's "sims") sits
/// between the ids and the values.
std::string IdsAndValuesReply(const std::vector<uint64_t>& ids,
                              const std::string& extra,
                              const std::vector<std::string>& values) {
  return "{\"ok\": true, \"n\": " + std::to_string(ids.size()) +
         ", \"ids\": \"" + JoinIds(ids) + "\"" + extra + ", \"values\": \"" +
         serve::JsonEscape(PackNetstrings(values)) + "\"}";
}

/// The reply ParseOwnerReply reads.
std::string OwnerReply(uint64_t epoch, const index::GlobalDelta& delta) {
  std::string out = "{\"ok\": true, \"epoch\": " + std::to_string(epoch) +
                    ", \"had_prev\": ";
  out += delta.removed.has_value() ? "true" : "false";
  if (delta.removed.has_value()) {
    out += ", \"prev\": \"" + serve::JsonEscape(*delta.removed) + "\"";
  }
  return out + "}";
}

}  // namespace

void InstallShardServerOps(serve::Handler* handler,
                           serve::LookupService* service) {
  using serve::Request;
  using Reply = Result<std::string>;
  const uint64_t kMaxId = serve::kMaxExactInteger;

  handler->Install("slookup", false, [=](const Request& req) -> Reply {
    SSJOIN_ASSIGN_OR_RETURN(serve::LookupParams p,
                            serve::ParseLookupParams(req, handler->default_k()));
    SSJOIN_ASSIGN_OR_RETURN(serve::LookupResult result,
                            service->Lookup(p.query, p.k, p.deadline, p.filter));
    std::vector<uint64_t> ids;
    std::vector<std::string> values;
    std::string sims;
    for (serve::ValuedMatch& m : result.matches) {
      if (!ids.empty()) sims += ',';
      ids.push_back(m.id);
      // Hex floats round-trip the exact doubles, so the fan-out's merge stays
      // bit-identical to an unsharded lookup.
      sims += FormatHexDouble(m.similarity);
      values.push_back(std::move(m.value));
    }
    return IdsAndValuesReply(ids, ", \"sims\": \"" + sims + "\"", values);
  });
  // The "global": true forms of upsert and delete; a request without the
  // flag goes to the common op they wrap.
  auto with_global = [handler](const char* op, serve::OpFn global) {
    handler->Install(op, true, [plain = handler->Find(op), global](
                                   const Request& req) -> Reply {
      return BoolField(req, "global") ? global(req) : plain(req);
    });
  };
  with_global("upsert", [=](const Request& req) -> Reply {
    SSJOIN_ASSIGN_OR_RETURN(uint64_t id, serve::UintField(req, "id", kMaxId));
    SSJOIN_ASSIGN_OR_RETURN(std::string value, serve::StringField(req, "value"));
    SSJOIN_ASSIGN_OR_RETURN(filter::AttrSet attrs, serve::AttrsField(req));
    index::GlobalDelta delta;
    SSJOIN_ASSIGN_OR_RETURN(uint64_t epoch,
                            service->UpsertGlobal(id, value, attrs, &delta));
    return OwnerReply(epoch, delta);
  });
  with_global("delete", [=](const Request& req) -> Reply {
    SSJOIN_ASSIGN_OR_RETURN(uint64_t id, serve::UintField(req, "id", kMaxId));
    index::GlobalDelta delta;
    SSJOIN_ASSIGN_OR_RETURN(uint64_t epoch, service->DeleteGlobal(id, &delta));
    return OwnerReply(epoch, delta);
  });
  handler->Install("gstats", true, [=](const Request& req) -> Reply {
    index::GlobalDelta delta;
    if (BoolField(req, "has_added")) {
      SSJOIN_ASSIGN_OR_RETURN(delta.added, serve::StringField(req, "added"));
    }
    if (BoolField(req, "has_removed")) {
      SSJOIN_ASSIGN_OR_RETURN(delta.removed, serve::StringField(req, "removed"));
    }
    SSJOIN_ASSIGN_OR_RETURN(uint64_t epoch, service->ApplyGlobalDelta(delta));
    return serve::EpochReply(epoch);
  });
  handler->Install("gstats_reset", true, [=](const Request& req) -> Reply {
    SSJOIN_ASSIGN_OR_RETURN(std::string packed, serve::StringField(req, "values"));
    SSJOIN_ASSIGN_OR_RETURN(std::vector<std::string> values,
                            UnpackNetstrings(packed));
    SSJOIN_RETURN_NOT_OK(service->ResetGlobalStats(values));
    SSJOIN_ASSIGN_OR_RETURN(uint64_t epoch, service->Epoch());
    return serve::EpochReply(epoch);
  });
  handler->Install("dump", false, [=](const Request&) -> Reply {
    SSJOIN_ASSIGN_OR_RETURN(auto docs, service->LiveDocs());
    std::vector<uint64_t> ids;
    std::vector<std::string> values;
    for (auto& [id, value] : docs) {
      ids.push_back(id);
      values.push_back(std::move(value));
    }
    return IdsAndValuesReply(ids, "", values);
  });
  handler->Install("getvalue", false, [=](const Request& req) -> Reply {
    SSJOIN_ASSIGN_OR_RETURN(uint64_t id, serve::UintField(req, "id", kMaxId));
    std::shared_ptr<const index::MutableFuzzyIndex> idx = service->index();
    std::shared_ptr<const index::EpochState> state = idx->Snapshot();
    std::optional<std::string> value = idx->ValueAt(*state, id);
    if (!value.has_value()) return std::string("{\"ok\": true, \"found\": false}");
    std::string out = "{\"ok\": true, \"found\": true, \"value\": \"" +
                      serve::JsonEscape(*value) + "\"";
    std::optional<filter::AttrSet> attrs = idx->AttrsAt(*state, id);
    if (attrs.has_value() && !attrs->empty()) {
      out += ", \"attrs\": " + serve::AttrsToJson(*attrs);
    }
    return out + "}";
  });
}

}  // namespace ssjoin::shard
