/// Sharding tests: the shard-count invariance contract (N-shard lookups are
/// bit-identical to an unsharded oracle, fresh and WAL-replayed), router
/// basics, deadline budgeting, hedged retries, cluster epochs, the fan-out
/// policies over fake shards, sealed-snapshot replication and the exact
/// wire-value encodings.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "index/manifest.h"
#include "index/mutable_index.h"
#include "lookup_corpus.h"
#include "shard/replication.h"
#include "shard/router.h"
#include "shard/shard_client.h"
#include "shard/sharded_index.h"
#include "shard/wire_client.h"

namespace ssjoin::shard {
namespace {

using index::MutableFuzzyIndex;

/// The unsharded oracle: one MutableFuzzyIndex over the same records.
std::unique_ptr<MutableFuzzyIndex> Oracle(
    const std::vector<std::pair<uint64_t, std::string>>& records, double alpha) {
  index::MutableIndexOptions options;
  options.match.alpha = alpha;
  auto index = MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  EXPECT_TRUE(index->BulkLoad(records).ok());
  return index;
}

ShardedIndexOptions ShardOptions(uint32_t n, double alpha) {
  ShardedIndexOptions options;
  options.num_shards = n;
  options.match.alpha = alpha;
  return options;
}

void ExpectBitIdentical(const std::vector<MutableFuzzyIndex::Match>& oracle,
                        const std::vector<serve::ValuedMatch>& sharded, uint32_t n,
                        const std::string& query) {
  ASSERT_EQ(oracle.size(), sharded.size())
      << "N=" << n << " query: " << query;
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(oracle[i].id, sharded[i].id) << "N=" << n << " query: " << query;
    // Bitwise, not approximate: the whole point of global-stats mode.
    EXPECT_EQ(oracle[i].similarity, sharded[i].similarity)
        << "N=" << n << " rank " << i << " query: " << query;
  }
}

TEST(ShardRouter, CoversAllShardsAndIsStable) {
  for (uint32_t n : {1u, 2u, 3u, 8u, 13u}) {
    std::vector<uint64_t> hits(n, 0);
    for (uint64_t id = 0; id < 10'000; ++id) {
      uint32_t s = ShardOf(id, n);
      ASSERT_LT(s, n);
      EXPECT_EQ(s, ShardOf(id, n));  // pure function of (id, n)
      hits[s]++;
    }
    // Mix64 spreads sequential ids: no shard may be empty or hog the keys.
    for (uint32_t s = 0; s < n; ++s) {
      EXPECT_GT(hits[s], 10'000 / (n * 4)) << "n=" << n << " shard " << s;
    }
  }
  EXPECT_EQ(ShardOf(42, 0), 0u);
  EXPECT_EQ(ShardOf(42, 1), 0u);
}

TEST(ShardedIndex, BitIdenticalToOracleAcrossShardCounts) {
  auto master = Master(120, 7);
  std::vector<std::pair<uint64_t, std::string>> records;
  for (size_t i = 0; i < master.size(); ++i) {
    records.emplace_back(i * 37 + 5, master[i]);  // non-contiguous ids
  }
  auto oracle = Oracle(records, 0.35);
  auto queries = DirtyQueries(master, 40, 11);

  for (uint32_t n : {1u, 2u, 3u, 8u}) {
    auto sharded =
        ShardedLookupIndex::Create(ShardOptions(n, 0.35)).MoveValueUnsafe();
    ASSERT_TRUE(sharded->BulkLoad(records).ok());
    ASSERT_EQ(sharded->num_shards(), n);
    for (const auto& q : queries) {
      auto got = sharded->Lookup(q, 5);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBitIdentical(oracle->Lookup(q, 5), got->matches, n, q);
    }
  }
}

TEST(ShardedIndex, BitIdenticalUnderInterleavedMutations) {
  auto master = Master(80, 3);
  auto queries = DirtyQueries(master, 20, 23);

  index::MutableIndexOptions oracle_options;
  oracle_options.match.alpha = 0.35;
  auto oracle = MutableFuzzyIndex::Create(oracle_options).MoveValueUnsafe();

  for (uint32_t n : {2u, 3u, 8u}) {
    auto sharded =
        ShardedLookupIndex::Create(ShardOptions(n, 0.35)).MoveValueUnsafe();
    // Rebuild the oracle fresh for each N so both sides see the exact same
    // mutation history.
    oracle = MutableFuzzyIndex::Create(oracle_options).MoveValueUnsafe();

    std::mt19937_64 rng(n * 1000 + 17);
    for (size_t step = 0; step < master.size(); ++step) {
      uint64_t id = rng() % 64;
      if (step % 5 == 4) {
        ASSERT_TRUE(oracle->Delete(id).ok());
        ASSERT_TRUE(sharded->Delete(id).ok());
      } else {
        ASSERT_TRUE(oracle->Upsert(id, master[step]).ok());
        ASSERT_TRUE(sharded->Upsert(id, master[step]).ok());
      }
      if (step % 10 == 9) {
        const std::string& q = queries[(step / 10) % queries.size()];
        auto got = sharded->Lookup(q, 4);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectBitIdentical(oracle->Lookup(q, 4), got->matches, n, q);
      }
    }
    // Seal + compact must not change any result, only epochs.
    ASSERT_TRUE(sharded->Seal().ok());
    ASSERT_TRUE(sharded->Compact().ok());
    for (const auto& q : queries) {
      auto got = sharded->Lookup(q, 4);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBitIdentical(oracle->Lookup(q, 4), got->matches, n, q);
    }
  }
}

TEST(ShardedIndex, BitIdenticalAfterWalReplayedReopen) {
  std::string dir = ::testing::TempDir() + "/sharded_reopen";
  std::filesystem::remove_all(dir);
  auto master = Master(60, 29);
  std::vector<std::pair<uint64_t, std::string>> records;
  for (size_t i = 0; i < master.size(); ++i) records.emplace_back(i, master[i]);
  auto oracle = Oracle(records, 0.35);
  auto queries = DirtyQueries(master, 15, 31);

  {
    auto options = ShardOptions(3, 0.35);
    options.data_dir = dir;
    options.seal_threshold = 8;  // force some sealed segments
    auto sharded = ShardedLookupIndex::Create(options).MoveValueUnsafe();
    // Half through BulkLoad (sealed), half through the WAL tail (replayed).
    std::vector<std::pair<uint64_t, std::string>> first(records.begin(),
                                                        records.begin() + 30);
    ASSERT_TRUE(sharded->BulkLoad(first).ok());
    ASSERT_TRUE(sharded->Seal().ok());
    for (size_t i = 30; i < records.size(); ++i) {
      ASSERT_TRUE(sharded->Upsert(records[i].first, records[i].second).ok());
    }
    // Destroyed WITHOUT sealing: the tail lives only in the WAL.
  }

  auto reopen_options = ShardOptions(0, 0.35);  // 0 = take persisted count
  reopen_options.data_dir = dir;
  reopen_options.seal_threshold = 8;
  auto reopened = ShardedLookupIndex::Open(reopen_options).MoveValueUnsafe();
  EXPECT_EQ(reopened->num_shards(), 3u);
  for (const auto& q : queries) {
    auto got = reopened->Lookup(q, 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(oracle->Lookup(q, 5), got->matches, 3, q);
  }

  // A different shard count must be refused, not silently rerouted.
  auto wrong = ShardOptions(5, 0.35);
  wrong.data_dir = dir;
  EXPECT_FALSE(ShardedLookupIndex::Open(wrong).ok());
}

TEST(ShardedIndex, ExpiredDeadlineIsRejected) {
  auto master = Master(40, 41);
  std::vector<std::pair<uint64_t, std::string>> records;
  for (size_t i = 0; i < master.size(); ++i) records.emplace_back(i, master[i]);
  auto sharded =
      ShardedLookupIndex::Create(ShardOptions(4, 0.35)).MoveValueUnsafe();
  ASSERT_TRUE(sharded->BulkLoad(records).ok());

  auto r = sharded->Lookup(master[0], 3, std::chrono::milliseconds(-1));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);

  // A generous deadline passes and stays bit-identical.
  auto ok = sharded->Lookup(master[0], 3, std::chrono::milliseconds(5000));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_FALSE(ok->matches.empty());
  EXPECT_EQ(ok->matches[0].id, 0u);
}

TEST(ShardedIndex, HedgingPreservesResults) {
  auto master = Master(60, 53);
  std::vector<std::pair<uint64_t, std::string>> records;
  for (size_t i = 0; i < master.size(); ++i) records.emplace_back(i, master[i]);
  auto oracle = Oracle(records, 0.35);

  auto options = ShardOptions(3, 0.35);
  // Hedge aggressively: most dispatches outlive 0ms..1ms, so duplicate
  // lookups race the originals constantly. First-completion-wins must keep
  // every result identical.
  options.fanout.hedge_delay = std::chrono::milliseconds(1);
  options.fanout.straggler_threshold = std::chrono::milliseconds(1);
  auto sharded = ShardedLookupIndex::Create(options).MoveValueUnsafe();
  ASSERT_TRUE(sharded->BulkLoad(records).ok());

  auto queries = DirtyQueries(master, 30, 59);
  for (const auto& q : queries) {
    auto got = sharded->Lookup(q, 5);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(oracle->Lookup(q, 5), got->matches, 3, q);
  }
}

TEST(ShardedIndex, ValueOfResolvesOnOwnerShard) {
  // Each shard attaches its matches' values (a LookupService reads them from
  // its own index at the epoch its lookup scored against), so a value comes
  // from the shard owning the document.
  auto sharded =
      ShardedLookupIndex::Create(ShardOptions(4, 0.5)).MoveValueUnsafe();
  ASSERT_TRUE(sharded->Upsert(7, "seven hills road").ok());
  ASSERT_TRUE(sharded->Upsert(8, "eight mile lane").ok());
  auto got = sharded->Lookup("seven hills road", 3);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_FALSE(got->matches.empty());
  EXPECT_EQ(got->matches[0].id, 7u);
  EXPECT_EQ(got->matches[0].value, "seven hills road");
  EXPECT_FALSE(got->degraded);
  EXPECT_EQ(got->shards_ok, 4u);
  ASSERT_TRUE(sharded->Delete(7).ok());
  got = sharded->Lookup("seven hills road", 3);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (const serve::ValuedMatch& m : got->matches) EXPECT_NE(m.id, 7u);
}

TEST(ShardedIndex, MutationEpochsAreClusterEpochsAndNeverDecrease) {
  // A delete of an absent id has an empty global-stats delta: only the
  // owner shard publishes, nothing is broadcast, and the returned epoch is
  // still the cluster epoch.
  auto sharded =
      ShardedLookupIndex::Create(ShardOptions(3, 0.5)).MoveValueUnsafe();
  uint64_t last = *sharded->Epoch();
  auto expect_cluster_epoch = [&](const Result<uint64_t>& epoch) {
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    EXPECT_EQ(*epoch, *sharded->Epoch());
    EXPECT_GT(*epoch, last);
    last = *epoch;
  };
  for (uint64_t id = 0; id < 6; ++id) {
    expect_cluster_epoch(sharded->Upsert(id, "road " + std::to_string(id)));
  }
  expect_cluster_epoch(sharded->Delete(77));
  expect_cluster_epoch(sharded->Delete(78));
  expect_cluster_epoch(sharded->Delete(3));
  expect_cluster_epoch(sharded->Delete(3));
  // A no-op delete advances exactly its owner shard.
  uint64_t before = *sharded->Epoch();
  expect_cluster_epoch(sharded->Delete(79));
  EXPECT_EQ(*sharded->Epoch(), before + 1);
}

// ---------------------------------------------------------------------------
// Fan-out policies over fake shards

/// A scripted shard: every lookup runs `stall` (if set) with its call
/// number, then answers `status` if that is an error, else `matches`. Only
/// lookups are scripted; everything else is unused by these tests.
class FakeShard : public ShardClient {
 public:
  Result<serve::LookupResult> Lookup(
      const std::string&, size_t, std::chrono::milliseconds,
      const filter::FilterPredicate&) override {
    int call = calls.fetch_add(1);
    if (stall) stall(call);
    if (!status.ok()) return status;
    return serve::LookupResult{matches};
  }
  Result<uint64_t> UpsertGlobal(uint64_t, const std::string&,
                                const filter::AttrSet&,
                                index::GlobalDelta*) override {
    return Unused();
  }
  Result<uint64_t> DeleteGlobal(uint64_t, index::GlobalDelta*) override {
    return Unused();
  }
  Result<uint64_t> ApplyGlobalDelta(const index::GlobalDelta&) override {
    return Unused();
  }
  Status ResetGlobalStats(const std::vector<std::string>&) override {
    return Unused();
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> LiveDocs() override {
    return Unused();
  }
  Result<uint64_t> Seal() override { return Unused(); }
  Result<uint64_t> Compact() override { return Unused(); }
  Result<uint64_t> Epoch() override { return Unused(); }

  std::vector<serve::ValuedMatch> matches;
  Status status = Status::OK();
  std::function<void(int call)> stall;
  std::atomic<int> calls{0};

 private:
  static Status Unused() { return Status::Invalid("not scripted"); }
};

/// N fake shards; shard i answers doc i at similarity 0.9 - 0.1 i.
struct FakeCluster {
  std::vector<FakeShard*> shards;
  std::unique_ptr<ShardedLookupIndex> index;
};

FakeCluster MakeFakeCluster(uint32_t n, const FanoutOptions& fanout,
                            bool allow_degraded) {
  FakeCluster cluster;
  std::vector<std::unique_ptr<ShardClient>> clients;
  for (uint32_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<FakeShard>();
    shard->matches = {{i, 0.9 - 0.1 * i, "doc " + std::to_string(i)}};
    cluster.shards.push_back(shard.get());
    clients.push_back(std::move(shard));
  }
  cluster.index =
      ShardedLookupIndex::FromShards(std::move(clients), fanout, allow_degraded)
          .MoveValueUnsafe();
  return cluster;
}

/// The fan-out's counter `name`, read from its registry's snapshot, so a
/// misspelt name fails instead of reading a freshly created zero.
uint64_t CounterOf(const FakeCluster& cluster, const std::string& name) {
  for (const obs::MetricPoint& p : cluster.index->metrics().Snapshot()) {
    if (p.name == name) return p.counter;
  }
  ADD_FAILURE() << "no metric " << name;
  return 0;
}

TEST(FanoutTest, StalledShardLosesToItsHedge) {
  FanoutOptions fanout;
  fanout.hedge_delay = std::chrono::milliseconds(50);
  FakeCluster cluster = MakeFakeCluster(2, fanout, /*allow_degraded=*/false);
  // Shard 1's first call stalls until its hedge (the second call) has
  // answered, and 100 ms beyond; shard 0 answers at once.
  std::promise<void> hedge_answered;
  std::shared_future<void> answered = hedge_answered.get_future().share();
  cluster.shards[1]->stall = [&](int call) {
    if (call == 0) {
      answered.wait_for(std::chrono::seconds(10));
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    } else {
      hedge_answered.set_value();
    }
  };
  auto got = cluster.index->Lookup("q", 3);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->matches.size(), 2u);
  EXPECT_EQ(got->matches[0].id, 0u);
  EXPECT_EQ(got->matches[1].id, 1u);
  EXPECT_EQ(got->matches[1].value, "doc 1");
  EXPECT_EQ(cluster.shards[1]->calls.load(), 2);
  EXPECT_EQ(CounterOf(cluster, "shard.hedges"), 1u);
  EXPECT_EQ(CounterOf(cluster, "shard.hedge_wins"), 1u);
  EXPECT_GE(CounterOf(cluster, "shard.stragglers"), 1u);
}

TEST(FanoutTest, UnreachableShardIsDroppedOnlyWhenDegradedReadsAreAllowed) {
  for (Status down : {Status::Unavailable("shard down"),
                      Status::IOError("connection refused")}) {
    for (bool allow_degraded : {false, true}) {
      FakeCluster cluster = MakeFakeCluster(3, {}, allow_degraded);
      cluster.shards[1]->status = down;
      auto got = cluster.index->Lookup("q", 3);
      if (!allow_degraded) {
        ASSERT_FALSE(got.ok());
        EXPECT_EQ(got.status().code(), down.code());
        EXPECT_EQ(CounterOf(cluster, "shard.failed_lookups"), 1u);
        continue;
      }
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(got->degraded);
      EXPECT_EQ(got->shards_ok, 2u);
      ASSERT_EQ(got->matches.size(), 2u);
      EXPECT_EQ(got->matches[0].id, 0u);
      EXPECT_EQ(got->matches[1].id, 2u);
      EXPECT_EQ(CounterOf(cluster, "shard.degraded"), 1u);
    }
  }
}

TEST(FanoutTest, DeadlineExceededFailsEvenWithDegradedReads) {
  FakeCluster cluster = MakeFakeCluster(3, {}, /*allow_degraded=*/true);
  cluster.shards[2]->status = Status::DeadlineExceeded("shard budget spent");
  auto got = cluster.index->Lookup("q", 3);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CounterOf(cluster, "shard.deadline_rejects"), 1u);
  EXPECT_EQ(CounterOf(cluster, "shard.degraded"), 0u);
}

TEST(FanoutTest, NoReachableShardIsUnavailable) {
  FakeCluster cluster = MakeFakeCluster(3, {}, /*allow_degraded=*/true);
  for (FakeShard* shard : cluster.shards) {
    shard->status = Status::IOError("connection refused");
  }
  auto got = cluster.index->Lookup("q", 3);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(CounterOf(cluster, "shard.failed_lookups"), 1u);
}

// ---------------------------------------------------------------------------
// Replication

/// A Fetcher that serves from a directory but can be told to corrupt or
/// drop specific files — the failure-injection double.
class FaultyFetcher : public Fetcher {
 public:
  explicit FaultyFetcher(std::string dir) : inner_(std::move(dir)) {}
  Result<std::string> Fetch(const std::string& name) override {
    fetches++;
    if (name == drop) return Status::KeyError("dropped: " + name);
    auto r = inner_.Fetch(name);
    if (r.ok() && name == corrupt) {
      std::string bytes = *r;
      bytes[bytes.size() / 2] ^= 0x5a;
      return bytes;
    }
    return r;
  }
  std::string drop;
  std::string corrupt;
  int fetches = 0;

 private:
  FileFetcher inner_;
};

struct LeaderFollower {
  std::string leader_dir;
  std::string follower_dir;
  std::unique_ptr<MutableFuzzyIndex> leader;
};

LeaderFollower MakeLeader(const std::string& tag, size_t docs) {
  LeaderFollower lf;
  lf.leader_dir = ::testing::TempDir() + "/repl_leader_" + tag;
  lf.follower_dir = ::testing::TempDir() + "/repl_follower_" + tag;
  std::filesystem::remove_all(lf.leader_dir);
  std::filesystem::remove_all(lf.follower_dir);
  index::MutableIndexOptions options;
  options.match.alpha = 0.35;
  options.data_dir = lf.leader_dir;
  lf.leader = MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  auto master = Master(docs, 61);
  for (size_t i = 0; i < master.size(); ++i) {
    EXPECT_TRUE(lf.leader->Upsert(i, master[i]).ok());
  }
  EXPECT_TRUE(lf.leader->Seal().ok());
  return lf;
}

TEST(Replication, FollowerServesLeaderSealedEpoch) {
  auto lf = MakeLeader("basic", 40);
  FileFetcher fetcher(lf.leader_dir);
  auto sync = SyncFromLeader(fetcher, lf.follower_dir);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();
  EXPECT_TRUE(sync->updated);
  EXPECT_GT(sync->segments_fetched, 0u);

  index::MutableIndexOptions options;
  options.match.alpha = 0.35;
  options.data_dir = lf.follower_dir;
  auto follower = MutableFuzzyIndex::Open(options).MoveValueUnsafe();
  auto master = Master(40, 61);
  for (const auto& q : DirtyQueries(master, 10, 67)) {
    auto want = lf.leader->Lookup(q, 3);
    auto got = follower->Lookup(q, 3);
    ASSERT_EQ(want.size(), got.size()) << q;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].id, got[i].id) << q;
      EXPECT_EQ(want[i].similarity, got[i].similarity) << q;
    }
  }
}

TEST(Replication, SecondSyncIsNoOpAndIncrementalFetchesOnlyNewSegments) {
  auto lf = MakeLeader("incr", 30);
  FileFetcher fetcher(lf.leader_dir);
  auto first = SyncFromLeader(fetcher, lf.follower_dir);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->updated);

  auto again = SyncFromLeader(fetcher, lf.follower_dir);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->updated);  // byte-identical manifest: nothing to do
  EXPECT_EQ(again->segments_fetched, 0u);

  // Advance the leader one sealed segment; the next round must fetch only
  // segments the follower does not already hold byte-correct.
  ASSERT_TRUE(lf.leader->Upsert(1000, "brand new street 7").ok());
  ASSERT_TRUE(lf.leader->Seal().ok());
  auto incr = SyncFromLeader(fetcher, lf.follower_dir);
  ASSERT_TRUE(incr.ok()) << incr.status().ToString();
  EXPECT_TRUE(incr->updated);
  EXPECT_GT(incr->segments_fetched, 0u);
  EXPECT_LT(incr->segments_fetched, first->segments_fetched + 2);
}

TEST(Replication, CorruptFetchIsRejectedAndCommitsNothing) {
  auto lf = MakeLeader("corrupt", 20);
  // Find a segment name from the leader manifest to corrupt in transit.
  auto manifest =
      index::LoadManifest(lf.leader_dir + "/" + index::kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  ASSERT_FALSE(manifest->segments.empty());
  FaultyFetcher fetcher(lf.leader_dir);
  fetcher.corrupt = manifest->segments[0].file;

  auto sync = SyncFromLeader(fetcher, lf.follower_dir);
  ASSERT_FALSE(sync.ok());
  // The manifest is committed last, so a failed round leaves no manifest —
  // the follower never serves a half-replicated epoch.
  EXPECT_FALSE(std::filesystem::exists(lf.follower_dir + "/" +
                                       index::kManifestFileName));

  fetcher.corrupt.clear();
  auto retry = SyncFromLeader(fetcher, lf.follower_dir);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry->updated);
}

TEST(Replication, MissingSegmentFailsTheRound) {
  auto lf = MakeLeader("drop", 20);
  auto manifest =
      index::LoadManifest(lf.leader_dir + "/" + index::kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  ASSERT_FALSE(manifest->segments.empty());
  FaultyFetcher fetcher(lf.leader_dir);
  fetcher.drop = manifest->segments[0].file;
  auto sync = SyncFromLeader(fetcher, lf.follower_dir);
  ASSERT_FALSE(sync.ok());
  EXPECT_EQ(sync.status().code(), StatusCode::kKeyError);
}

TEST(Replication, MaliciousManifestNamesAreRefused) {
  auto lf = MakeLeader("evil", 10);
  // Rewrite the leader manifest to point outside the follower directory.
  auto manifest =
      index::LoadManifest(lf.leader_dir + "/" + index::kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  ASSERT_FALSE(manifest->segments.empty());
  manifest->segments[0].file = "../escape.seg";
  ASSERT_TRUE(index::SaveManifest(*manifest, lf.leader_dir + "/" +
                                                 index::kManifestFileName)
                  .ok());
  FileFetcher fetcher(lf.leader_dir);
  auto sync = SyncFromLeader(fetcher, lf.follower_dir);
  ASSERT_FALSE(sync.ok());
  EXPECT_FALSE(std::filesystem::exists(::testing::TempDir() + "/escape.seg"));
}

// ---------------------------------------------------------------------------
// Wire-value encodings

TEST(WireEncoding, HexDoubleRoundTripsExactly) {
  std::mt19937_64 rng(71);
  for (int i = 0; i < 1000; ++i) {
    double v;
    if (i % 3 == 0) {
      v = std::ldexp(static_cast<double>(rng() >> 11), -52);  // [0, 2)
    } else {
      v = static_cast<double>(rng()) / static_cast<double>(rng() | 1);
    }
    auto parsed = ParseHexDouble(FormatHexDouble(v));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, v);  // bitwise: no decimal rounding anywhere
  }
  for (double v : {0.0, 1.0, 0.1, 1.0 / 3.0, 0.9999999999999999}) {
    auto parsed = ParseHexDouble(FormatHexDouble(v));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_FALSE(ParseHexDouble("").ok());
  EXPECT_FALSE(ParseHexDouble("0x1.8p1junk").ok());
}

// ParseHexDouble accepts exactly the "%a" output shape — the lenient strtod
// grammar (whitespace, '+' sign, decimal literals, inf/nan, hex without an
// exponent) indicates a corrupt or hostile peer and must be rejected.
TEST(WireEncoding, HexDoubleRejectsLenientStrtodShapes) {
  EXPECT_FALSE(ParseHexDouble(" 0x1.8p+1").ok());   // leading whitespace
  EXPECT_FALSE(ParseHexDouble("0x1.8p+1 ").ok());   // trailing whitespace
  EXPECT_FALSE(ParseHexDouble("+0x1.8p+1").ok());   // explicit plus
  EXPECT_FALSE(ParseHexDouble("1.5").ok());         // decimal literal
  EXPECT_FALSE(ParseHexDouble("+1").ok());
  EXPECT_FALSE(ParseHexDouble("01").ok());
  EXPECT_FALSE(ParseHexDouble("1e999").ok());       // inf via overflow
  EXPECT_FALSE(ParseHexDouble("inf").ok());
  EXPECT_FALSE(ParseHexDouble("nan").ok());
  EXPECT_FALSE(ParseHexDouble("0x1.8").ok());       // missing exponent
  EXPECT_FALSE(ParseHexDouble("0x").ok());          // no mantissa digits
  EXPECT_FALSE(ParseHexDouble("0x1p").ok());        // no exponent digits
  EXPECT_FALSE(ParseHexDouble("0x1p+").ok());
  EXPECT_FALSE(ParseHexDouble("0x1p+1f").ok());     // trailing junk
  EXPECT_FALSE(ParseHexDouble("0x1p+99999").ok());  // overflows to inf
  EXPECT_FALSE(ParseHexDouble("-").ok());
  // The canonical shapes still parse.
  EXPECT_TRUE(ParseHexDouble("0x0p+0").ok());
  EXPECT_TRUE(ParseHexDouble("-0x1.91eb851eb851fp-2").ok());
}

TEST(WireEncoding, NetstringsRoundTripArbitraryBytes) {
  std::vector<std::string> items = {
      "", "plain", std::string("nul\0byte", 8), "comma,colon:quote\"",
      std::string(10000, 'x')};
  items.push_back("newline\nand\r\ttab");
  auto unpacked = UnpackNetstrings(PackNetstrings(items));
  ASSERT_TRUE(unpacked.ok());
  ASSERT_EQ(unpacked->size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) EXPECT_EQ((*unpacked)[i], items[i]);

  EXPECT_TRUE(UnpackNetstrings("")->empty());
  EXPECT_FALSE(UnpackNetstrings("5:abc,").ok());    // wrong length
  EXPECT_FALSE(UnpackNetstrings("3:abc").ok());     // missing terminator
  EXPECT_FALSE(UnpackNetstrings(":abc,").ok());     // empty length
  EXPECT_FALSE(UnpackNetstrings("x:abc,").ok());    // non-digit length
  EXPECT_FALSE(UnpackNetstrings("99999999999999999999:a,").ok());
}

}  // namespace
}  // namespace ssjoin::shard
