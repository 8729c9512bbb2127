#include "shard/shard_client.h"

#include <map>

#include "common/string_util.h"
#include "serve/wire.h"
#include "shard/wire_client.h"

namespace ssjoin::shard {

// ---------------------------------------------------------------------------
// LocalShard

Result<std::vector<ShardMatch>> LocalShard::Lookup(
    const std::string& query, size_t k, std::chrono::milliseconds remaining,
    const filter::FilterPredicate& filter) {
  std::vector<std::string> values;
  SSJOIN_ASSIGN_OR_RETURN(
      std::vector<serve::LookupService::Match> found,
      service_->Lookup(query, k, remaining, filter, &values));
  std::vector<ShardMatch> matches(found.size());
  for (size_t i = 0; i < found.size(); ++i) {
    matches[i] = {found[i].id, found[i].similarity, std::move(values[i])};
  }
  return matches;
}

// ---------------------------------------------------------------------------
// RemoteShard

namespace {

using JsonObject = std::map<std::string, serve::JsonScalar>;

/// Rehydrates the status a shard server reported in its error response, so
/// wire hops do not flatten "deadline exceeded on the shard" into a generic
/// IO error (the fan-out's failure policy keys on the code).
Status StatusFromWire(const std::string& code, const std::string& message) {
  if (code == "Deadline exceeded") return Status::DeadlineExceeded(message);
  if (code == "Unavailable") return Status::Unavailable(message);
  if (code == "Invalid argument") return Status::Invalid(message);
  if (code == "Key error") return Status::KeyError(message);
  return Status::IOError(code + ": " + message);
}

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
  SSJOIN_ASSIGN_OR_RETURN(
      std::string reply,
      client.Call(line, timeout.count() > 0 ? timeout : admin_timeout_));
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

Result<std::vector<ShardMatch>> RemoteShard::Lookup(
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
    // the same predicate, and its own cache keys use the same bytes.
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
  std::vector<ShardMatch> matches(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    matches[i].id = ids[i];
    SSJOIN_ASSIGN_OR_RETURN(matches[i].similarity, ParseHexDouble(sims[i]));
    matches[i].value = std::move(values[i]);
  }
  return matches;
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

}  // namespace ssjoin::shard
