#include "serve/handler.h"

#include <cstdio>
#include <utility>

#include "obs/metrics.h"

namespace ssjoin::serve {

namespace {

/// Largest `deadline_ms`: one day. Far larger budgets overflow the
/// steady_clock nanosecond arithmetic of an absolute deadline.
constexpr uint64_t kMaxDeadlineMs = 86'400'000;

/// The registry NDJSON export: a header object announcing the line count,
/// then one {"metric": ...} object per line.
std::string NdjsonMetrics() {
  std::string nd = obs::Registry::Global().ToNdjson();
  size_t lines = 0;
  for (char c : nd) lines += c == '\n';
  if (!nd.empty()) nd.pop_back();  // the server appends the last '\n'
  std::string out = "{\"ok\": true, \"format\": \"ndjson\", \"metrics\": " +
                    std::to_string(lines) + "}";
  if (lines > 0) out += "\n" + nd;
  return out;
}

/// The human-facing lookup reply: completeness, then each match with its
/// similarity in decimal for display and its value.
std::string LookupReply(const LookupResult& result) {
  std::string out = std::string("{\"ok\": true, \"degraded\": ") +
                    (result.degraded ? "true" : "false") + ", \"shards_ok\": " +
                    std::to_string(result.shards_ok) + ", \"matches\": [";
  for (size_t i = 0; i < result.matches.size(); ++i) {
    const ValuedMatch& m = result.matches[i];
    if (i > 0) out += ", ";
    char sim[32];
    std::snprintf(sim, sizeof(sim), "%.6f", m.similarity);
    out += "{\"ref\": " + std::to_string(m.id) + ", \"similarity\": " + sim +
           ", \"value\": \"" + JsonEscape(m.value) + "\"}";
  }
  return out + "]}";
}

std::string ErrorReply(const Status& status) {
  return "{\"ok\": false, \"code\": \"" +
         JsonEscape(StatusCodeToString(status.code())) + "\", \"error\": \"" +
         JsonEscape(status.message()) + "\"}";
}

}  // namespace

// ---------------------------------------------------------------------------
// Request fields and replies

Result<uint64_t> UintField(const Request& req, const char* key, uint64_t max,
                           std::optional<uint64_t> fallback) {
  auto it = req.find(key);
  if (it == req.end()) {
    if (fallback.has_value()) return *fallback;
  } else if (!it->second.is_object) {
    Result<uint64_t> v = UintFromJson(it->second.scalar, max);
    if (v.ok()) return v;
  }
  return Status::Invalid(std::string("field '") + key +
                         "' must be an integer in [0, " + std::to_string(max) +
                         "]");
}

Result<std::string> StringField(const Request& req, const char* key) {
  auto it = req.find(key);
  if (it == req.end() || it->second.is_object ||
      it->second.scalar.type != JsonScalar::Type::kString) {
    return Status::Invalid(std::string("op requires string field '") + key +
                           "'");
  }
  return it->second.scalar.str;
}

Result<filter::AttrSet> AttrsField(const Request& req) {
  auto it = req.find("attrs");
  if (it == req.end()) return filter::AttrSet{};
  // AttrsFromWire enforces the byte rules, so malformed attributes are
  // rejected here, before they can reach the WAL.
  return AttrsFromWire(it->second);
}

Result<LookupParams> ParseLookupParams(const Request& req, size_t default_k) {
  LookupParams p;
  auto query_it = req.find("query");
  if (query_it == req.end() || query_it->second.is_object ||
      query_it->second.scalar.type != JsonScalar::Type::kString) {
    return Status::Invalid("lookup requires string field 'query'");
  }
  p.query = query_it->second.scalar.str;
  SSJOIN_ASSIGN_OR_RETURN(p.k, UintField(req, "k", kMaxExactInteger, default_k));
  SSJOIN_ASSIGN_OR_RETURN(uint64_t deadline_ms,
                          UintField(req, "deadline_ms", kMaxDeadlineMs, 0));
  p.deadline = std::chrono::milliseconds(deadline_ms);
  if (auto it = req.find("filter"); it != req.end()) {
    SSJOIN_ASSIGN_OR_RETURN(p.filter, FilterFromWire(it->second));
  }
  return p;
}

std::string EpochReply(uint64_t epoch) {
  return "{\"ok\": true, \"epoch\": " + std::to_string(epoch) + "}";
}

// ---------------------------------------------------------------------------
// Handler

Handler::Handler(Backend* backend, size_t default_k, bool read_only)
    : backend_(backend), default_k_(default_k), read_only_(read_only) {
  using Reply = Result<std::string>;
  auto epoch_op = [this](Result<uint64_t> (Backend::*fn)()) {
    return [this, fn](const Request&) -> Reply {
      SSJOIN_ASSIGN_OR_RETURN(uint64_t epoch, (backend_->*fn)());
      return EpochReply(epoch);
    };
  };
  Install("ping", false,
          [](const Request&) -> Reply { return std::string("{\"ok\": true}"); });
  Install("metrics", false,
          [](const Request&) -> Reply { return NdjsonMetrics(); });
  Install("shutdown", false, [](const Request&) -> Reply {
    return std::string("{\"ok\": true, \"stopping\": true}");
  });
  Install("stats", false, [this](const Request& req) -> Reply {
    Result<std::string> format = StringField(req, "format");
    if (format.ok() && *format == "ndjson") return NdjsonMetrics();
    return "{\"ok\": true" + backend_->StatsFields() + "}";
  });
  Install("lookup", false, [this](const Request& req) -> Reply {
    SSJOIN_ASSIGN_OR_RETURN(LookupParams p, ParseLookupParams(req, default_k_));
    SSJOIN_ASSIGN_OR_RETURN(LookupResult result, backend_->Lookup(
                                p.query, p.k, p.deadline, p.filter));
    return LookupReply(result);
  });
  Install("upsert", true, [this](const Request& req) -> Reply {
    SSJOIN_ASSIGN_OR_RETURN(uint64_t id, UintField(req, "id", kMaxExactInteger));
    SSJOIN_ASSIGN_OR_RETURN(std::string value, StringField(req, "value"));
    SSJOIN_ASSIGN_OR_RETURN(filter::AttrSet attrs, AttrsField(req));
    SSJOIN_ASSIGN_OR_RETURN(uint64_t epoch, backend_->Upsert(id, value, attrs));
    return EpochReply(epoch);
  });
  Install("delete", true, [this](const Request& req) -> Reply {
    SSJOIN_ASSIGN_OR_RETURN(uint64_t id, UintField(req, "id", kMaxExactInteger));
    SSJOIN_ASSIGN_OR_RETURN(uint64_t epoch, backend_->Delete(id));
    return EpochReply(epoch);
  });
  Install("seal", true, epoch_op(&Backend::Seal));
  Install("compact", true, epoch_op(&Backend::Compact));
  Install("epoch", false, epoch_op(&Backend::Epoch));
}

void Handler::Install(const std::string& op, bool mutates, OpFn fn) {
  ops_[op] = Op{mutates, std::move(fn)};
}

OpFn Handler::Find(const std::string& op) const {
  auto it = ops_.find(op);
  return it == ops_.end() ? OpFn() : it->second.fn;
}

std::string Handler::Handle(std::string_view line,
                            bool* stop_after_reply) const {
  Result<Request> req = ParseJsonRequest(line);
  if (!req.ok()) return ErrorReply(req.status());
  auto name = req->find("op");
  if (name == req->end() || name->second.is_object ||
      name->second.scalar.type != JsonScalar::Type::kString) {
    return ErrorReply(Status::Invalid("missing string field 'op'"));
  }
  const std::string& op_name = name->second.scalar.str;
  auto it = ops_.find(op_name);
  if (it == ops_.end()) {
    return ErrorReply(Status::Invalid("unknown op '" + op_name + "'"));
  }
  if (read_only_ && it->second.mutates) {
    return ErrorReply(
        Status::Unavailable("follower is read-only; mutate the leader"));
  }
  Result<std::string> reply = it->second.fn(*req);
  if (!reply.ok()) return ErrorReply(reply.status());
  *stop_after_reply = op_name == "shutdown";
  return std::move(*reply);
}

}  // namespace ssjoin::serve
