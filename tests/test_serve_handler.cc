/// Request dispatcher tests (serve::Handler): one reply per request in every
/// mode, values rendered from the epoch a lookup scored, the read-only guard
/// applied once at dispatch, and mode-specific ops answered only where they
/// are installed.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/handler.h"
#include "serve/lookup_service.h"
#include "shard/shard_client.h"
#include "shard/sharded_index.h"

namespace ssjoin::serve {
namespace {

std::unique_ptr<LookupService> ServiceOver(
    const std::map<uint64_t, std::string>& docs) {
  index::MutableIndexOptions options;
  options.match.alpha = 0.3;
  auto index = index::MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  for (const auto& [id, value] : docs) {
    EXPECT_TRUE(index->Upsert(id, value).ok());
  }
  return LookupService::Create(std::move(index), {}).MoveValueUnsafe();
}

std::string Handle(const Handler& handler, const std::string& line) {
  bool stop = false;
  return handler.Handle(line, &stop);
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(HandlerTest, RepliesRenderValuesFromTheScoredEpoch) {
  std::unique_ptr<LookupService> service =
      ServiceOver({{1, "Acme Widget Corporation"}, {2, "Zenith Holdings"}});
  Handler handler(service.get(), 3, /*read_only=*/false);
  shard::InstallShardServerOps(&handler, service.get());

  // The hook runs after the lookup captured its epoch and before LookupAt:
  // a writer that lands there must not leak into the reply's values.
  std::string rewrite;
  bool fired = false;
  service->SetLookupHookForTest([&] {
    if (fired) return;
    fired = true;
    Status s = rewrite.empty() ? service->index()->Delete(1)
                               : service->index()->Upsert(1, rewrite);
    ASSERT_TRUE(s.ok()) << s.ToString();
  });

  rewrite = "Completely Different Name";
  std::string reply = Handle(
      handler, R"({"op": "lookup", "query": "Acme Widget Corporation", "k": 1})");
  ASSERT_TRUE(fired);
  EXPECT_TRUE(Contains(reply, R"("ref": 1, "similarity": 1.000000, )"
                              R"("value": "Acme Widget Corporation")"))
      << reply;

  // slookup, with the doc deleted in between: the old value, never "".
  ASSERT_TRUE(service->index()->Upsert(1, "Acme Widget Corporation").ok());
  rewrite.clear();
  fired = false;
  reply = Handle(
      handler, R"({"op": "slookup", "query": "Acme Widget Corporation", "k": 1})");
  ASSERT_TRUE(fired);
  EXPECT_TRUE(Contains(reply, R"("ids": "1")")) << reply;
  EXPECT_TRUE(Contains(reply, R"("values": "23:Acme Widget Corporation,")"))
      << reply;
}

TEST(HandlerTest, EveryModeAnswersLookupsInOneShape) {
  std::unique_ptr<LookupService> single =
      ServiceOver({{1, "Acme Widget Corporation"}});
  Handler single_handler(single.get(), 3, /*read_only=*/false);
  EXPECT_EQ(Handle(single_handler,
                   R"({"op": "lookup", "query": "Acme Widget Corporation"})"),
            R"({"ok": true, "degraded": false, "shards_ok": 1, "matches": )"
            R"([{"ref": 1, "similarity": 1.000000, )"
            R"("value": "Acme Widget Corporation"}]})");

  shard::ShardedIndexOptions options;
  options.num_shards = 2;
  options.match.alpha = 0.3;
  auto sharded = shard::ShardedLookupIndex::Create(options).MoveValueUnsafe();
  ASSERT_TRUE(sharded->Upsert(1, "Acme Widget Corporation").ok());
  Handler fanout_handler(sharded.get(), 3, /*read_only=*/false);
  EXPECT_EQ(Handle(fanout_handler,
                   R"({"op": "lookup", "query": "Acme Widget Corporation"})"),
            R"({"ok": true, "degraded": false, "shards_ok": 2, "matches": )"
            R"([{"ref": 1, "similarity": 1.000000, )"
            R"("value": "Acme Widget Corporation"}]})");
  // The fan-out has no "global" form of upsert: the flag is ignored.
  EXPECT_TRUE(Contains(
      Handle(fanout_handler,
             R"({"op": "upsert", "id": 2, "value": "x", "global": true})"),
      R"({"ok": true, "epoch": )"));
  EXPECT_TRUE(Contains(Handle(fanout_handler, R"({"op": "stats"})"),
                       R"({"ok": true, "shards": 2, "stats": {)"));
}

TEST(HandlerTest, ReadOnlyRefusesEveryMutatingOpAtDispatch) {
  std::unique_ptr<LookupService> backend =
      ServiceOver({{1, "Acme Widget Corporation"}});
  Handler handler(backend.get(), 3, /*read_only=*/true);
  shard::InstallShardServerOps(&handler, backend.get());
  const std::string refused =
      R"({"ok": false, "code": "Unavailable", )"
      R"("error": "follower is read-only; mutate the leader"})";
  for (const char* line : {
           R"({"op": "upsert", "id": 9, "value": "x"})",
           R"({"op": "upsert", "id": "not even a number"})",
           R"({"op": "delete", "id": 1})",
           R"({"op": "upsert", "id": 9, "value": "x", "global": true})",
           R"({"op": "delete", "id": 1, "global": true})",
           R"({"op": "gstats", "has_added": true, "added": "x"})",
           R"({"op": "gstats_reset", "values": ""})",
           R"({"op": "seal"})",
           R"({"op": "compact"})",
       }) {
    EXPECT_EQ(Handle(handler, line), refused) << line;
  }
  EXPECT_TRUE(Contains(
      Handle(handler, R"({"op": "lookup", "query": "Acme Widget"})"),
      R"("value": "Acme Widget Corporation")"));
  EXPECT_EQ(Handle(handler, R"({"op": "dump"})"),
            R"({"ok": true, "n": 1, "ids": "1", )"
            R"("values": "23:Acme Widget Corporation,"})");
  EXPECT_EQ(Handle(handler, R"({"op": "epoch"})"),
            EpochReply(backend->index()->epoch()));
}

TEST(HandlerTest, ModeOpsAnswerOnlyWhereInstalled) {
  std::unique_ptr<LookupService> backend =
      ServiceOver({{1, "Acme Widget Corporation"}});
  Handler handler(backend.get(), 3, /*read_only=*/false);
  for (const char* op : {"slookup", "gstats", "dump", "getvalue", "resync",
                         "sync", "repl_fetch"}) {
    EXPECT_EQ(Handle(handler, std::string(R"({"op": ")") + op + "\"}"),
              std::string(R"({"ok": false, "code": "Invalid argument", )") +
                  R"("error": "unknown op ')" + op + "'\"}")
        << op;
  }
  // Without the shard-server ops, "global" is an ignored field.
  std::string reply =
      Handle(handler, R"({"op": "delete", "id": 1, "global": true})");
  EXPECT_EQ(reply, EpochReply(backend->index()->epoch()));

  shard::InstallShardServerOps(&handler, backend.get());
  reply = Handle(
      handler, R"({"op": "upsert", "id": 1, "value": "a b", "global": true})");
  EXPECT_EQ(reply,
            R"({"ok": true, "epoch": )" +
                std::to_string(backend->index()->epoch()) +
                R"(, "had_prev": false})");
  EXPECT_EQ(Handle(handler, R"({"op": "getvalue", "id": 1})"),
            R"({"ok": true, "found": true, "value": "a b"})");
}

TEST(HandlerTest, OnlyAnAnsweredShutdownStopsTheServer) {
  std::unique_ptr<LookupService> backend = ServiceOver({});
  Handler handler(backend.get(), 3, /*read_only=*/false);
  bool stop = false;
  for (const char* line : {"", "{", "[1]", R"({"op": 7})", R"({"k": 1})",
                           R"({"op": "ping"})", R"({"op": "epoch"})"}) {
    std::string reply = handler.Handle(line, &stop);
    EXPECT_EQ(reply.find('\n'), std::string::npos) << line;
    EXPECT_EQ(reply.rfind("{\"ok\": ", 0), 0u) << line << " -> " << reply;
    EXPECT_FALSE(stop) << line;
  }
  EXPECT_EQ(handler.Handle(R"({"op": "shutdown"})", &stop),
            R"({"ok": true, "stopping": true})");
  EXPECT_TRUE(stop);
}

}  // namespace
}  // namespace ssjoin::serve
