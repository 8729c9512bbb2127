#ifndef SSJOIN_SERVE_HANDLER_H_
#define SSJOIN_SERVE_HANDLER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "filter/attr.h"
#include "filter/predicate.h"
#include "serve/wire.h"

namespace ssjoin::serve {

/// A match with its document value, read from the epoch the lookup scored
/// against.
struct ValuedMatch {
  uint64_t id = 0;
  double similarity = 0.0;
  std::string value;
};

/// A lookup answer in every serving mode. `degraded` is true when an
/// unreachable shard was left out of the merge; `shards_ok` counts the
/// shards that answered (a single service is one shard that always does).
struct LookupResult {
  std::vector<ValuedMatch> matches;
  bool degraded = false;
  uint32_t shards_ok = 1;
};

/// \brief What the request dispatcher serves: one index, however it is
/// deployed. One LookupService and the fan-out (shard::ShardedLookupIndex)
/// implement it. Every call may come from any connection thread. Mutations,
/// seal and compact return the epoch after them; Epoch() the current one.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual Result<LookupResult> Lookup(const std::string& query, size_t k,
                                      std::chrono::milliseconds deadline,
                                      const filter::FilterPredicate& filter) = 0;
  virtual Result<uint64_t> Upsert(uint64_t doc_id, const std::string& value,
                                  const filter::AttrSet& attrs) = 0;
  virtual Result<uint64_t> Delete(uint64_t doc_id) = 0;
  virtual Result<uint64_t> Seal() = 0;
  virtual Result<uint64_t> Compact() = 0;
  virtual Result<uint64_t> Epoch() = 0;
  /// The fields of the `stats` reply after `"ok": true`, each preceded by
  /// ", " (e.g. `, "stats": {...}`).
  virtual std::string StatsFields() = 0;
};

/// A request's top-level fields, as ParseJsonRequest returns them.
using Request = std::map<std::string, JsonValue>;

/// \name Request fields and reply shapes shared by every op
/// @{
/// The integer field `key` in [0, max], or `fallback` when it is absent
/// (absent with no fallback is an error).
Result<uint64_t> UintField(const Request& req, const char* key, uint64_t max,
                           std::optional<uint64_t> fallback = std::nullopt);
Result<std::string> StringField(const Request& req, const char* key);
/// The optional "attrs" object of an upsert; absent = no attributes.
Result<filter::AttrSet> AttrsField(const Request& req);

struct LookupParams {
  std::string query;
  size_t k = 3;
  std::chrono::milliseconds deadline{0};
  filter::FilterPredicate filter;
};
/// The fields of `lookup` and `slookup`: "query", "k", "deadline_ms" (at
/// most one day) and "filter".
Result<LookupParams> ParseLookupParams(const Request& req, size_t default_k);

/// {"ok": true, "epoch": N}
std::string EpochReply(uint64_t epoch);
/// @}

/// One op: the reply line(s) for a request, or the status to answer with.
using OpFn = std::function<Result<std::string>(const Request&)>;

/// \brief The request dispatcher of ssjoin_served, one per server. Every
/// request line is parsed once, its op looked up in one table, guarded by
/// one read-only check, and answered with one reply: a JSON object with a
/// boolean "ok" (a header line announcing the lines that follow, for
/// `metrics` and `repl_fetch`).
///
/// The constructor installs the ops every mode serves: ping, metrics,
/// shutdown (the server stops once its reply is written), stats, lookup,
/// upsert, delete, seal, compact and epoch. A mode adds its own ops with
/// Install before serving; the table is read-only afterwards, so Handle may
/// run on any number of threads.
class Handler {
 public:
  Handler(Backend* backend, size_t default_k, bool read_only);

  /// Adds (or replaces) `op`. A `mutates` op changes the index and is
  /// refused with Unavailable on a read-only handler.
  void Install(const std::string& op, bool mutates, OpFn fn);
  /// The op installed as `op` (empty if none), e.g. for a mode to wrap.
  OpFn Find(const std::string& op) const;

  /// The reply to one request line (no trailing newline). Sets
  /// `*stop_after_reply` when the op stops the server.
  std::string Handle(std::string_view line, bool* stop_after_reply) const;

  size_t default_k() const { return default_k_; }

 private:
  struct Op {
    bool mutates = false;
    OpFn fn;
  };

  Backend* backend_;
  size_t default_k_;
  bool read_only_;
  std::map<std::string, Op> ops_;
};

}  // namespace ssjoin::serve

#endif  // SSJOIN_SERVE_HANDLER_H_
