/// LookupService tests: serving-path results must be bit-identical to
/// fuzz::BruteForceLookup (fresh, snapshot-reloaded, and while the index is
/// swapped under running lookups), overload must be rejected explicitly at
/// the admission bound, deadlines must expire admitted requests before they
/// touch the index, shutdown must wait for in-flight lookups, and metrics
/// must add up.

#include <gtest/gtest.h>

#include <algorithm>
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
/// rows (doc_id = `first_id` + row index), persisted in `data_dir` when
/// non-empty.
std::unique_ptr<index::MutableFuzzyIndex> BuildMutable(
    const std::vector<std::string>& master, const std::string& data_dir = "",
    uint64_t first_id = 0) {
  index::MutableIndexOptions options;
  options.match.alpha = kAlpha;
  options.data_dir = data_dir;
  auto index = index::MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  std::vector<std::pair<uint64_t, std::string>> records;
  records.reserve(master.size());
  for (size_t i = 0; i < master.size(); ++i) {
    records.emplace_back(first_id + i, master[i]);
  }
  EXPECT_TRUE(index->BulkLoad(records).ok());
  return index;
}

void ExpectSameMatches(const std::vector<fuzz::LookupOracleMatch>& want,
                       const LookupResult& served, const std::string& query) {
  ASSERT_EQ(want.size(), served.matches.size()) << "query: " << query;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].index, served.matches[i].id) << "query: " << query;
    EXPECT_EQ(want[i].similarity, served.matches[i].similarity)
        << "query: " << query;
  }
}

void ExpectSameMatches(const std::vector<ValuedMatch>& a,
                       const std::vector<ValuedMatch>& b,
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
  // Replay: every repeat runs the lookup again and is still bit-identical.
  StatsSnapshot before = service->Stats();
  for (const std::string& q : queries) {
    auto served = service->Lookup(q, 5);
    ASSERT_TRUE(served.ok());
    ExpectSameMatches(OracleLookup(master, q, 5), *served, q);
  }
  StatsSnapshot after = service->Stats();
  EXPECT_EQ(after.requests - before.requests, queries.size());
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
  auto service = LookupService::Create(BuildMutable(master), {})
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
  EXPECT_EQ(stats.latency_count, 0u);  // no successful lookup recorded
  EXPECT_EQ(stats.in_flight, 0u);      // the slot was released
}

TEST(LookupServiceTest, AlreadyExpiredDeadlineRejectedAtAdmission) {
  auto master = Master(100, 42);
  auto service = LookupService::Create(BuildMutable(master), {})
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
  EXPECT_EQ(stats.latency_count, 0u);      // no successful lookup recorded

  // The service still works normally afterwards.
  auto ok = service->Lookup(master[0], 1);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(service->Stats().requests, 2u);
}

TEST(LookupServiceTest, ShutdownFailsPendingAndRejectsNew) {
  auto master = Master(100, 36);
  auto service = LookupService::Create(BuildMutable(master), {})
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
  auto service = LookupService::Create(BuildMutable(master), {})
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
  Result<LookupResult> refused = service->Lookup(master[1], 1);
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

TEST(LookupServiceTest, TokenizationEqualQueriesAnswerIdentically) {
  auto master = Master(100, 37);
  auto service = LookupService::Create(BuildMutable(master), {}).MoveValueUnsafe();
  auto a = service->Lookup(master[0], 2);
  ASSERT_TRUE(a.ok());
  // Same token sequence, different whitespace: tokenization cannot tell the
  // strings apart, so the answers are bit-identical.
  auto b = service->Lookup("  " + master[0] + "  ", 2);
  ASSERT_TRUE(b.ok());
  ExpectSameMatches(a->matches, b->matches, master[0]);
  // A smaller k answers the prefix of the larger one.
  auto c = service->Lookup(master[0], 1);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->matches.size(), std::min<size_t>(1, a->matches.size()));
  std::vector<ValuedMatch> top(a->matches.begin(),
                               a->matches.begin() + c->matches.size());
  ExpectSameMatches(top, c->matches, master[0]);
  EXPECT_EQ(service->Stats().requests, 3u);
}

TEST(LookupServiceTest, MutationNeverServesStaleCacheHits) {
  auto master = Master(200, 43);
  auto service = LookupService::Create(BuildMutable(master), {})
                     .MoveValueUnsafe();
  index::MutableFuzzyIndex& index = *service->index();

  // The exact reference string is its own best match, twice in a row.
  const std::string query = master[0];
  auto first = service->Lookup(query, 3);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->matches.empty());
  EXPECT_EQ(first->matches[0].id, 0u);
  auto repeat = service->Lookup(query, 3);
  ASSERT_TRUE(repeat.ok());
  ExpectSameMatches(first->matches, repeat->matches, query);

  // Delete the top match. The epoch changes, and the next lookup must not
  // return doc 0.
  uint64_t epoch_before = index.epoch();
  ASSERT_TRUE(index.Delete(0).ok());
  EXPECT_GT(index.epoch(), epoch_before);
  auto after_delete = service->Lookup(query, 3);
  ASSERT_TRUE(after_delete.ok());
  for (const auto& m : after_delete->matches) EXPECT_NE(m.id, 0u);

  // Upsert a new doc with the query's exact value: it must surface at the
  // top immediately.
  ASSERT_TRUE(index.Upsert(999, query).ok());
  auto after_upsert = service->Lookup(query, 3);
  ASSERT_TRUE(after_upsert.ok());
  ASSERT_FALSE(after_upsert->matches.empty());
  EXPECT_EQ(after_upsert->matches[0].id, 999u);
  EXPECT_EQ(after_upsert->matches[0].similarity, 1.0);
  EXPECT_EQ(index.ValueAt(*index.Snapshot(), 999).value_or(""), query);
  EXPECT_EQ(after_upsert->matches[0].value, query);

  // Within one epoch a replay answers the same, and its values are read at
  // the same epoch as the first answer's.
  auto replay = service->Lookup(query, 3);
  ASSERT_TRUE(replay.ok());
  ExpectSameMatches(after_upsert->matches, replay->matches, query);
  for (size_t i = 0; i < replay->matches.size(); ++i) {
    EXPECT_EQ(replay->matches[i].value, after_upsert->matches[i].value);
  }

  // Seal/compact also advance the epoch without changing the answers.
  ASSERT_TRUE(index.Seal().ok());
  ASSERT_TRUE(index.Compact().ok());
  auto after_compact = service->Lookup(query, 3);
  ASSERT_TRUE(after_compact.ok());
  ExpectSameMatches(after_upsert->matches, after_compact->matches, query);
}

/// True when `served` is exactly `want` over rows numbered from `first_id`,
/// each match carrying its row as the value.
bool AnswersLike(const LookupResult& served,
                 const std::vector<fuzz::LookupOracleMatch>& want,
                 const std::vector<std::string>& master, uint64_t first_id) {
  if (served.matches.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    const ValuedMatch& m = served.matches[i];
    if (m.id != first_id + want[i].index ||
        m.similarity != want[i].similarity ||
        m.value != master[want[i].index]) {
      return false;
    }
  }
  return true;
}

TEST(LookupServiceTest, ReplaceUnderConcurrentLookups) {
  // Two indexes with disjoint docs; every answer must come whole from one.
  constexpr uint64_t kFirstB = 10000;
  auto master_a = Master(150, 45);
  auto master_b = Master(150, 46);
  auto queries = DirtyQueries(master_a, 20, 10);
  for (const std::string& q : DirtyQueries(master_b, 20, 11)) {
    queries.push_back(q);
  }
  std::vector<std::vector<fuzz::LookupOracleMatch>> want_a, want_b;
  for (const std::string& q : queries) {
    want_a.push_back(OracleLookup(master_a, q, 3));
    want_b.push_back(OracleLookup(master_b, q, 3));
  }

  auto service = LookupService::Create(BuildMutable(master_a), {})
                     .MoveValueUnsafe();
  std::atomic<bool> done{false};
  std::atomic<uint64_t> answers{0};
  std::vector<std::thread> callers;
  for (size_t t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (size_t i = t; !done.load() || i < t + queries.size(); ++i) {
        const size_t j = i % queries.size();
        auto served = service->Lookup(queries[j], 3);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        answers.fetch_add(1);
        EXPECT_TRUE(AnswersLike(*served, want_a[j], master_a, 0) ||
                    AnswersLike(*served, want_b[j], master_b, kFirstB))
            << "query: " << queries[j];
      }
    });
  }
  for (int swap = 0; swap < 50; ++swap) {
    service->Replace(swap % 2 == 0 ? BuildMutable(master_b, "", kFirstB)
                                   : BuildMutable(master_a));
  }
  done.store(true);
  for (std::thread& t : callers) t.join();

  // One service counted every answer, whichever index gave it.
  EXPECT_EQ(service->metrics().GetCounter("serve.requests")->value(),
            answers.load());
  EXPECT_EQ(service->Stats().in_flight, 0u);
  service->Shutdown();
  EXPECT_FALSE(service->Lookup(queries[0], 3).ok());
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
        "\"in_flight\"", "\"latency_us\"", "\"p50\"", "\"p95\"",
        "\"p99\""}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  EXPECT_EQ(json.find("cache"), std::string::npos) << json;
}

}  // namespace
}  // namespace ssjoin::serve
