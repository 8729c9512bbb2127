/// LookupService tests: serving-path results must be bit-identical to
/// fuzz::BruteForceLookup (fresh and snapshot-reloaded), overload must be
/// rejected explicitly at the admission bound, deadlines must expire
/// admitted requests before they touch the index, shutdown must wait for
/// in-flight lookups, and metrics must add up.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "fuzz/oracles.h"
#include "lookup_corpus.h"
#include "serve/lookup_service.h"

namespace ssjoin::serve {
namespace {

constexpr double kAlpha = 0.35;

/// The answer every served lookup must equal bit for bit: the index-free
/// brute-force oracle over the master rows (doc id = row index).
std::vector<fuzz::LookupOracleMatch> OracleLookup(
    const std::vector<std::string>& master, const std::string& query,
    size_t k) {
  text::WordTokenizer tokenizer;
  return fuzz::BruteForceLookup(master, tokenizer, kAlpha, query, k);
}

/// The service-owned side of every test: a mutable index over the master
/// rows (doc_id = row index), persisted in `data_dir` when non-empty.
std::unique_ptr<index::MutableFuzzyIndex> BuildMutable(
    const std::vector<std::string>& master, const std::string& data_dir = "") {
  index::MutableIndexOptions options;
  options.match.alpha = kAlpha;
  options.data_dir = data_dir;
  auto index = index::MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  std::vector<std::pair<uint64_t, std::string>> records;
  records.reserve(master.size());
  for (size_t i = 0; i < master.size(); ++i) records.emplace_back(i, master[i]);
  EXPECT_TRUE(index->BulkLoad(records).ok());
  return index;
}

void ExpectSameMatches(const std::vector<fuzz::LookupOracleMatch>& want,
                       const std::vector<LookupService::Match>& served,
                       const std::string& query) {
  ASSERT_EQ(want.size(), served.size()) << "query: " << query;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].index, served[i].id) << "query: " << query;
    EXPECT_EQ(want[i].similarity, served[i].similarity) << "query: " << query;
  }
}

void ExpectSameMatches(const std::vector<LookupService::Match>& a,
                       const std::vector<LookupService::Match>& b,
                       const std::string& query) {
  ASSERT_EQ(a.size(), b.size()) << "query: " << query;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "query: " << query;
    EXPECT_EQ(a[i].similarity, b[i].similarity) << "query: " << query;
  }
}

TEST(LookupServiceTest, BitIdenticalToDirectLookup) {
  auto master = Master(400, 31);
  auto queries = DirtyQueries(master, 150, 7);

  auto service = LookupService::Create(BuildMutable(master), {})
                     .MoveValueUnsafe();
  for (const std::string& q : queries) {
    auto served = service->Lookup(q, 5);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ExpectSameMatches(OracleLookup(master, q, 5), *served, q);
  }
  // Replay: now every query is a cache hit and still bit-identical.
  StatsSnapshot before = service->Stats();
  for (const std::string& q : queries) {
    auto served = service->Lookup(q, 5);
    ASSERT_TRUE(served.ok());
    ExpectSameMatches(OracleLookup(master, q, 5), *served, q);
  }
  StatsSnapshot after = service->Stats();
  EXPECT_EQ(after.cache_hits - before.cache_hits, queries.size());
}

TEST(LookupServiceTest, BitIdenticalFromReloadedSnapshot) {
  auto master = Master(300, 32);
  auto queries = DirtyQueries(master, 100, 8);

  // A snapshot is a one-segment data dir: write it, then serve a reopen.
  std::string dir = ::testing::TempDir() + "/service_reload";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(BuildMutable(master, dir)->Seal().ok());
  index::MutableIndexOptions options;
  options.data_dir = dir;
  auto loaded = index::MutableFuzzyIndex::Open(options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->GetStats().sealed_segments, 1u);

  auto service =
      LookupService::Create(std::move(*loaded), {}).MoveValueUnsafe();
  for (const std::string& q : queries) {
    auto served = service->Lookup(q, 3);
    ASSERT_TRUE(served.ok());
    ExpectSameMatches(OracleLookup(master, q, 3), *served, q);
  }
  service.reset();
  std::filesystem::remove_all(dir);
}

TEST(LookupServiceTest, ConcurrentClientsAgreeWithDirectLookup) {
  auto master = Master(400, 33);
  auto queries = DirtyQueries(master, 200, 9);
  std::vector<std::vector<fuzz::LookupOracleMatch>> want;
  for (const std::string& q : queries) want.push_back(OracleLookup(master, q, 4));

  auto service = LookupService::Create(BuildMutable(master), {})
                     .MoveValueUnsafe();
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < queries.size(); i += 4) {
        auto served = service->Lookup(queries[i], 4);
        ASSERT_TRUE(served.ok());
        ExpectSameMatches(want[i], *served, queries[i]);
      }
    });
  }
  for (auto& t : clients) t.join();
  StatsSnapshot stats = service->Stats();
  EXPECT_EQ(stats.requests, queries.size());
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.latency_count, queries.size());
}

TEST(LookupServiceTest, OverloadRejectsWithUnavailable) {
  auto master = Master(100, 34);
  LookupServiceOptions options;
  options.max_queue = 2;
  options.cache_capacity = 0;  // every request must be admitted
  auto service = LookupService::Create(BuildMutable(master), options)
                     .MoveValueUnsafe();

  // Hold every admitted caller in the hook, so two callers occupy both
  // in-flight slots deterministically.
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<int> held{0};
  service->SetLookupHookForTest([&] {
    held.fetch_add(1);
    release.wait();
  });
  std::vector<std::thread> admitted;
  for (size_t i = 0; i < 2; ++i) {
    admitted.emplace_back([&, i] {
      auto r = service->Lookup(master[i], 1);
      EXPECT_TRUE(r.ok());
    });
  }
  while (held.load() < 2) std::this_thread::yield();
  EXPECT_EQ(service->Stats().in_flight, 2u);

  // The bound is full: this request must be rejected immediately with
  // Unavailable — explicit backpressure instead of blocking.
  auto rejected = service->Lookup(master[50], 1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service->Stats().rejected_overload, 1u);

  release_promise.set_value();
  for (auto& t : admitted) t.join();
  StatsSnapshot stats = service->Stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(LookupServiceTest, DeadlineExpiresQueuedRequest) {
  auto master = Master(100, 35);
  LookupServiceOptions options;
  options.cache_capacity = 0;
  auto service = LookupService::Create(BuildMutable(master), options)
                     .MoveValueUnsafe();

  // A 5ms request stalls 20ms between admission and LookupAt: the deadline
  // re-check must fail it without touching the index.
  service->SetLookupHookForTest(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  auto r = service->Lookup(master[1], 1, std::chrono::milliseconds(5));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  StatsSnapshot stats = service->Stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  // Deadline expiries are answered requests, not shed load.
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.cache_misses, 0u);   // never looked up
  EXPECT_EQ(stats.latency_count, 0u);  // no successful lookup recorded
  EXPECT_EQ(stats.in_flight, 0u);      // the slot was released
}

TEST(LookupServiceTest, AlreadyExpiredDeadlineRejectedAtAdmission) {
  auto master = Master(100, 42);
  LookupServiceOptions options;
  options.cache_capacity = 0;
  auto service = LookupService::Create(BuildMutable(master), options)
                     .MoveValueUnsafe();

  // A negative deadline is expired before the call even starts. Regression:
  // it used to be admitted as if it had no deadline and ran a full lookup;
  // it must be rejected at admission without queueing or touching the index.
  auto r = service->Lookup(master[0], 1, std::chrono::milliseconds(-1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);

  StatsSnapshot stats = service->Stats();
  EXPECT_EQ(stats.rejected_deadline, 1u);
  EXPECT_EQ(stats.requests, 1u);           // answered, with an error
  EXPECT_EQ(stats.cache_misses, 0u);       // never looked up
  EXPECT_EQ(stats.latency_count, 0u);      // no successful lookup recorded

  // The service still works normally afterwards.
  auto ok = service->Lookup(master[0], 1);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(service->Stats().requests, 2u);
}

TEST(LookupServiceTest, ShutdownFailsPendingAndRejectsNew) {
  auto master = Master(100, 36);
  LookupServiceOptions options;
  options.cache_capacity = 0;
  auto service = LookupService::Create(BuildMutable(master), options)
                     .MoveValueUnsafe();
  auto ok = service->Lookup(master[0], 1);
  EXPECT_TRUE(ok.ok());
  service->Shutdown();
  auto rejected = service->Lookup(master[1], 1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  service->Shutdown();  // idempotent
}

TEST(LookupServiceTest, ShutdownWaitsForInFlightLookups) {
  auto master = Master(100, 44);
  LookupServiceOptions options;
  options.cache_capacity = 0;
  auto service = LookupService::Create(BuildMutable(master), options)
                     .MoveValueUnsafe();

  // Hold the first admitted lookup in the hook; later ones pass straight
  // through.
  std::promise<void> entered_promise;
  std::shared_future<void> entered(entered_promise.get_future());
  std::promise<void> release_promise;
  std::shared_future<void> release(release_promise.get_future());
  std::atomic<bool> first{true};
  service->SetLookupHookForTest([&] {
    if (first.exchange(false)) {
      entered_promise.set_value();
      release.wait();
    }
  });
  std::thread held([&] {
    auto r = service->Lookup(master[0], 1);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  entered.wait();

  std::atomic<bool> shutdown_returned{false};
  std::thread stopper([&] {
    service->Shutdown();
    shutdown_returned.store(true);
  });
  // Shutdown stops admission first: wait until a new lookup is refused.
  Result<std::vector<LookupService::Match>> refused = service->Lookup(master[1], 1);
  while (refused.ok()) {
    std::this_thread::yield();
    refused = service->Lookup(master[1], 1);
  }
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  // ... but it must not return while the held lookup is in flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(shutdown_returned.load());
  EXPECT_EQ(service->Stats().in_flight, 1u);

  release_promise.set_value();
  held.join();
  stopper.join();
  EXPECT_TRUE(shutdown_returned.load());
  EXPECT_EQ(service->Stats().in_flight, 0u);
  auto later = service->Lookup(master[2], 1);
  ASSERT_FALSE(later.ok());
  EXPECT_EQ(later.status().code(), StatusCode::kUnavailable);
}

TEST(LookupServiceTest, CacheKeyCoalescesTokenizationOnly) {
  auto master = Master(100, 37);
  auto service = LookupService::Create(BuildMutable(master), {}).MoveValueUnsafe();
  auto a = service->Lookup(master[0], 2);
  ASSERT_TRUE(a.ok());
  // Same token sequence, different whitespace: must hit the cache and be
  // bit-identical (tokenization cannot distinguish the strings).
  auto b = service->Lookup("  " + master[0] + "  ", 2);
  ASSERT_TRUE(b.ok());
  ExpectSameMatches(*a, *b, master[0]);
  EXPECT_EQ(service->Stats().cache_hits, 1u);
  // Different k misses: k is part of the key.
  auto c = service->Lookup(master[0], 1);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(service->Stats().cache_hits, 1u);
  EXPECT_EQ(service->Stats().cache_misses, 2u);
}

TEST(LookupServiceTest, MutationNeverServesStaleCacheHits) {
  auto master = Master(200, 43);
  LookupServiceOptions options;
  options.cache_capacity = 256;
  auto service = LookupService::Create(BuildMutable(master), options)
                     .MoveValueUnsafe();

  // Warm the cache: the exact reference string is its own best match.
  const std::string query = master[0];
  auto first = service->Lookup(query, 3);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->empty());
  EXPECT_EQ((*first)[0].id, 0u);
  auto hit = service->Lookup(query, 3);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(service->Stats().cache_hits, 1u);

  // Delete the top match. The epoch changes, so the cached entry's key no
  // longer matches: the next lookup must be a miss and must not return doc 0.
  uint64_t epoch_before = service->epoch();
  ASSERT_TRUE(service->Delete(0).ok());
  EXPECT_GT(service->epoch(), epoch_before);
  auto after_delete = service->Lookup(query, 3);
  ASSERT_TRUE(after_delete.ok());
  for (const auto& m : *after_delete) EXPECT_NE(m.id, 0u);
  EXPECT_EQ(service->Stats().cache_hits, 1u);  // no stale hit

  // Upsert a new doc with the query's exact value: it must surface at the
  // top immediately, again bypassing the now-stale cached entries.
  ASSERT_TRUE(service->Upsert(999, query).ok());
  auto after_upsert = service->Lookup(query, 3);
  ASSERT_TRUE(after_upsert.ok());
  ASSERT_FALSE(after_upsert->empty());
  EXPECT_EQ((*after_upsert)[0].id, 999u);
  EXPECT_EQ((*after_upsert)[0].similarity, 1.0);
  EXPECT_EQ(service->ValueOf(999).value_or(""), query);

  // Within one epoch the cache works as before: an immediate replay hits.
  auto replay = service->Lookup(query, 3);
  ASSERT_TRUE(replay.ok());
  ExpectSameMatches(*after_upsert, *replay, query);
  EXPECT_EQ(service->Stats().cache_hits, 2u);

  // Seal/compact also advance the epoch without changing the answers.
  ASSERT_TRUE(service->Seal().ok());
  ASSERT_TRUE(service->Compact().ok());
  auto after_compact = service->Lookup(query, 3);
  ASSERT_TRUE(after_compact.ok());
  ExpectSameMatches(*after_upsert, *after_compact, query);
}

TEST(LookupServiceTest, RejectsZeroSizedKnobs) {
  auto master = Master(10, 38);
  LookupServiceOptions options;
  options.max_queue = 0;
  EXPECT_FALSE(LookupService::Create(BuildMutable(master), options).ok());
}

TEST(LookupServiceTest, StatsJsonIsWellFormed) {
  auto master = Master(50, 39);
  auto service = LookupService::Create(BuildMutable(master), {}).MoveValueUnsafe();
  (void)service->Lookup(master[0], 1);
  std::string json = service->Stats().ToJson();
  // Parseable by our own flat parser except the nested latency object —
  // check shape with plain string probes instead.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* field :
       {"\"requests\"", "\"rejected_overload\"", "\"rejected_deadline\"",
        "\"cache_hits\"", "\"cache_misses\"", "\"cache_evictions\"",
        "\"in_flight\"", "\"latency_us\"", "\"p50\"",
        "\"p95\"", "\"p99\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

}  // namespace
}  // namespace ssjoin::serve
