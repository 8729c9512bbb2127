/// MutableFuzzyIndex differential tests: after ANY sequence of
/// Upsert/Delete/Seal/Compact/restart, lookups must be bitwise identical
/// (ids, similarities and order) to fuzz::BruteForceLookup over the live
/// records sorted by ascending doc_id — the subsystem's equivalence
/// contract. Also covers epoch pinning, auto-maintenance thresholds and WAL
/// replay after an unclean shutdown, and a segment's postings against a
/// brute-force scan of its sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/oracles.h"
#include "index/manifest.h"
#include "index/mutable_index.h"
#include "index/segment.h"
#include "lookup_corpus.h"
#include "obs/metrics.h"
#include "text/weights.h"

namespace ssjoin::index {
namespace {

/// The oracle: an index-free brute-force lookup over the live docs
/// (ascending doc_id); every query's answer must be bitwise equal.
void ExpectOracleEquivalent(const MutableFuzzyIndex& index,
                            const std::map<uint64_t, std::string>& live,
                            const std::vector<std::string>& queries, size_t k,
                            const std::string& context) {
  std::vector<uint64_t> ids;
  std::vector<std::string> refs;
  ids.reserve(live.size());
  refs.reserve(live.size());
  for (const auto& [id, value] : live) {
    ids.push_back(id);
    refs.push_back(value);
  }
  for (const std::string& q : queries) {
    auto got = index.Lookup(q, k);
    auto want = fuzz::BruteForceLookup(refs, index.tokenizer(),
                                       index.options().match.alpha, q, k);
    ASSERT_EQ(got.size(), want.size()) << context << " query: " << q;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, ids[want[i].index])
          << context << " query: " << q << " rank " << i;
      EXPECT_EQ(got[i].similarity, want[i].similarity)
          << context << " query: " << q << " rank " << i;
    }
  }
}

MutableIndexOptions ManualOptions() {
  MutableIndexOptions options;
  options.match.alpha = 0.35;
  options.seal_threshold = 0;    // explicit Seal only
  options.max_generations = 0;   // explicit Compact only
  return options;
}

TEST(MutableIndexTest, UpsertsMatchFreshBuild) {
  auto master = Master(200, 41);
  auto queries = DirtyQueries(master, 60, 5);
  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();

  std::map<uint64_t, std::string> live;
  for (size_t i = 0; i < master.size(); ++i) {
    ASSERT_TRUE(index->Upsert(i, master[i]).ok());
    live[i] = master[i];
  }
  ExpectOracleEquivalent(*index, live, queries, 5, "after upserts");
  EXPECT_EQ(index->GetStats().live_docs, master.size());
}

TEST(MutableIndexTest, BulkLoadMatchesIncrementalUpserts) {
  auto master = Master(250, 42);
  auto queries = DirtyQueries(master, 60, 6);

  std::vector<std::pair<uint64_t, std::string>> records;
  std::map<uint64_t, std::string> live;
  for (size_t i = 0; i < master.size(); ++i) {
    records.emplace_back(i, master[i]);
    live[i] = master[i];
  }
  // Without a seal threshold the load stays in the tail; with one at or
  // below the record count the load is sealed in place.
  MutableIndexOptions sealing = ManualOptions();
  sealing.seal_threshold = master.size() / 2;
  for (const MutableIndexOptions& options : {ManualOptions(), sealing}) {
    SCOPED_TRACE("seal_threshold " + std::to_string(options.seal_threshold));
    auto bulk = MutableFuzzyIndex::Create(options).MoveValueUnsafe();
    uint64_t epoch_before = bulk->epoch();
    ASSERT_TRUE(bulk->BulkLoad(records).ok());
    ExpectOracleEquivalent(*bulk, live, queries, 5, "bulk load");
    // One publish for the whole batch, not one per record, nor a second one
    // for the seal.
    EXPECT_EQ(bulk->epoch(), epoch_before + 1);
    const uint64_t seals = options.seal_threshold > 0 ? 1 : 0;
    EXPECT_EQ(bulk->GetStats().seals, seals);
    EXPECT_EQ(bulk->GetStats().sealed_segments, seals);
  }
}

TEST(MutableIndexTest, ReplaceAndDeleteMatchOracle) {
  auto master = Master(150, 43);
  auto replacements = Master(150, 44);
  auto queries = DirtyQueries(master, 40, 7);
  auto more = DirtyQueries(replacements, 40, 8);
  queries.insert(queries.end(), more.begin(), more.end());

  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
  std::map<uint64_t, std::string> live;
  for (size_t i = 0; i < master.size(); ++i) {
    ASSERT_TRUE(index->Upsert(i, master[i]).ok());
    live[i] = master[i];
  }
  // Replace every third doc, delete every seventh.
  for (size_t i = 0; i < master.size(); i += 3) {
    ASSERT_TRUE(index->Upsert(i, replacements[i]).ok());
    live[i] = replacements[i];
  }
  for (size_t i = 0; i < master.size(); i += 7) {
    ASSERT_TRUE(index->Delete(i).ok());
    live.erase(i);
  }
  ExpectOracleEquivalent(*index, live, queries, 5, "replace+delete");
  EXPECT_EQ(index->GetStats().live_docs, live.size());
}

TEST(MutableIndexTest, DeleteIsIdempotentAndUnknownIdIsNoop) {
  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
  ASSERT_TRUE(index->Upsert(7, "main st springfield").ok());
  ASSERT_TRUE(index->Delete(7).ok());
  ASSERT_TRUE(index->Delete(7).ok());
  ASSERT_TRUE(index->Delete(12345).ok());
  EXPECT_EQ(index->GetStats().live_docs, 0u);
  EXPECT_TRUE(index->Lookup("main st springfield", 3).empty());
}

TEST(MutableIndexTest, SealPreservesResultsAcrossGenerations) {
  auto master = Master(180, 45);
  auto queries = DirtyQueries(master, 50, 9);
  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();

  std::map<uint64_t, std::string> live;
  for (size_t i = 0; i < master.size(); ++i) {
    ASSERT_TRUE(index->Upsert(i, master[i]).ok());
    live[i] = master[i];
    if (i % 60 == 59) ASSERT_TRUE(index->Seal().ok());
  }
  auto stats = index->GetStats();
  EXPECT_EQ(stats.sealed_segments, 3u);
  EXPECT_EQ(stats.seals, 3u);
  ExpectOracleEquivalent(*index, live, queries, 5, "multi-generation");

  // Deletes and replacements that cross generation boundaries.
  for (size_t i = 0; i < 60; i += 5) {
    ASSERT_TRUE(index->Delete(i).ok());
    live.erase(i);
  }
  ASSERT_TRUE(index->Upsert(3, "replacement row three").ok());
  live[3] = "replacement row three";
  ExpectOracleEquivalent(*index, live, queries, 5, "cross-generation churn");
}

TEST(MutableIndexTest, CompactDropsTombstonesAndPreservesResults) {
  auto master = Master(160, 46);
  auto queries = DirtyQueries(master, 50, 10);
  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();

  std::map<uint64_t, std::string> live;
  for (size_t i = 0; i < master.size(); ++i) {
    ASSERT_TRUE(index->Upsert(i, master[i]).ok());
    live[i] = master[i];
  }
  ASSERT_TRUE(index->Seal().ok());
  for (size_t i = 0; i < master.size(); i += 4) {
    ASSERT_TRUE(index->Delete(i).ok());
    live.erase(i);
  }
  ASSERT_TRUE(index->Seal().ok());
  EXPECT_GT(index->GetStats().tombstones, 0u);

  auto before = index->Snapshot();
  ASSERT_TRUE(index->Compact().ok());
  auto stats = index->GetStats();
  EXPECT_EQ(stats.sealed_segments, 1u);
  EXPECT_EQ(stats.tombstones, 0u);
  EXPECT_EQ(stats.compactions, 1u);
  EXPECT_EQ(stats.live_docs, live.size());
  ExpectOracleEquivalent(*index, live, queries, 5, "post-compaction");

  // Compaction changed the epoch but not the answers.
  EXPECT_GT(index->epoch(), before->epoch);
  for (const std::string& q : queries) {
    auto old_view = index->LookupAt(*before, q, 5);
    auto new_view = index->Lookup(q, 5);
    ASSERT_EQ(old_view.size(), new_view.size());
    for (size_t i = 0; i < old_view.size(); ++i) {
      EXPECT_EQ(old_view[i].id, new_view[i].id);
      EXPECT_EQ(old_view[i].similarity, new_view[i].similarity);
    }
  }
}

TEST(MutableIndexTest, SnapshotPinsAnEpochAgainstLaterMutation) {
  auto master = Master(120, 47);
  auto queries = DirtyQueries(master, 30, 11);
  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
  for (size_t i = 0; i < master.size(); ++i) {
    ASSERT_TRUE(index->Upsert(i, master[i]).ok());
  }

  auto pinned = index->Snapshot();
  std::vector<std::vector<MutableFuzzyIndex::Match>> want;
  for (const std::string& q : queries) want.push_back(index->LookupAt(*pinned, q, 5));

  // Mutate heavily: the pinned epoch must keep answering exactly as before.
  for (size_t i = 0; i < master.size(); i += 2) ASSERT_TRUE(index->Delete(i).ok());
  ASSERT_TRUE(index->Upsert(500, "brand new record after pin").ok());
  ASSERT_TRUE(index->Seal().ok());
  ASSERT_TRUE(index->Compact().ok());

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto got = index->LookupAt(*pinned, queries[qi], 5);
    ASSERT_EQ(got.size(), want[qi].size()) << queries[qi];
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[qi][i].id);
      EXPECT_EQ(got[i].similarity, want[qi][i].similarity);
    }
  }
}

TEST(MutableIndexTest, EpochIncreasesOnEveryMutation) {
  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
  uint64_t last = index->epoch();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(index->Upsert(i, "record " + std::to_string(i)).ok());
    EXPECT_GT(index->epoch(), last);
    last = index->epoch();
  }
  ASSERT_TRUE(index->Delete(0).ok());
  EXPECT_GT(index->epoch(), last);
}

TEST(MutableIndexTest, AutoSealAndAutoCompactThresholds) {
  MutableIndexOptions options;
  options.match.alpha = 0.35;
  options.seal_threshold = 16;
  options.max_generations = 3;
  auto master = Master(140, 48);
  auto queries = DirtyQueries(master, 40, 12);
  auto index = MutableFuzzyIndex::Create(options).MoveValueUnsafe();

  std::map<uint64_t, std::string> live;
  for (size_t i = 0; i < master.size(); ++i) {
    ASSERT_TRUE(index->Upsert(i, master[i]).ok());
    live[i] = master[i];
  }
  auto stats = index->GetStats();
  EXPECT_GT(stats.seals, 0u);
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_LE(stats.sealed_segments, options.max_generations + 1);
  ExpectOracleEquivalent(*index, live, queries, 5, "auto-maintained");
}

TEST(MutableIndexTest, RandomChurnDifferential) {
  auto master = Master(300, 50);
  auto queries = DirtyQueries(master, 25, 14);
  queries.push_back("completely unknown vocabulary");
  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();

  Rng rng(77);
  std::map<uint64_t, std::string> live;
  for (size_t step = 0; step < 400; ++step) {
    uint32_t op = rng.Uniform(10);
    uint64_t id = rng.Uniform(80);
    if (op < 6) {
      const std::string& value = master[rng.Uniform(master.size())];
      ASSERT_TRUE(index->Upsert(id, value).ok());
      live[id] = value;
    } else if (op < 8) {
      ASSERT_TRUE(index->Delete(id).ok());
      live.erase(id);
    } else if (op == 8) {
      ASSERT_TRUE(index->Seal().ok());
    } else {
      ASSERT_TRUE(index->Compact().ok());
    }
    if (step % 80 == 79) {
      ExpectOracleEquivalent(*index, live, queries, 5,
                             "churn step " + std::to_string(step));
    }
  }
  ExpectOracleEquivalent(*index, live, queries, 5, "churn end");
}

TEST(MutableIndexTest, PositionalBoundSkipsVerifyThatSizeAndPrefixPass) {
  // 1000 docs with controlled document frequencies: query element qX has
  // df X (qa=1 .. qe=5), so the query ranks qa > qb > qc > qd > qe by IDF
  // weight. Doc 1 = "qc y1 y2 y3 y4" (each y has df 10) shares only qc.
  std::vector<std::pair<uint64_t, std::string>> docs = {
      {0, "qa qb qc qd qe"}, {1, "qc y1 y2 y3 y4"}, {2, "qb f1"}, {3, "qc f2"},
      {4, "qd f3"}, {5, "qd f4"}, {6, "qd f5"}, {7, "qe f6"}, {8, "qe f7"},
      {9, "qe f8"}, {10, "qe f9"}};
  for (uint64_t id = 11; id < 20; ++id) docs.emplace_back(id, "y1 y2 y3 y4");
  for (uint64_t id = 20; id < 1000; ++id) docs.emplace_back(id, "z" + std::to_string(id));
  MutableIndexOptions options = ManualOptions();
  options.match.alpha = 0.5;
  auto index = MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  ASSERT_TRUE(index->BulkLoad(docs).ok());

  auto w = [](uint64_t df) {
    return text::QuantizeWeight(text::IdfWeightFromFrequency(1000, df));
  };
  const double alpha = options.match.alpha;
  const double wq = w(1) + w(2) + w(3) + w(4) + w(5);
  const double ws = w(3) + 4 * w(10);
  // Query prefix = {qa, qb, qc}: qc (position 2) is needed to exceed
  // wq - alpha * wq.
  ASSERT_LE(w(1) + w(2), wq - alpha * wq);
  ASSERT_GT(w(1) + w(2) + w(3), wq - alpha * wq);
  // Doc 1 passes the size filter alpha * wq <= ws <= wq / alpha, and its own
  // prefix (qc, then the lighter y's) holds qc, so a reference-prefix index
  // would report it too.
  ASSERT_LE(alpha * wq, ws);
  ASSERT_LE(ws, wq / alpha);
  ASSERT_GT(w(3) + 2 * w(10), ws - alpha * ws);
  // The positional bound: from position 2 on, the query weighs only
  // w(3) + w(4) + w(5), which cannot reach alpha against doc 1.
  const double bound = w(3) + w(4) + w(5);
  ASSERT_FALSE(text::ResemblanceAtLeast(bound, wq + ws - bound, alpha));

  obs::Counter* candidates =
      obs::Registry::Global().GetCounter("index.lookup.candidates");
  obs::Counter* verifications =
      obs::Registry::Global().GetCounter("index.lookup.verifications");
  const uint64_t candidates_before = candidates->value();
  const uint64_t verifications_before = verifications->value();
  obs::Counter* intersect_calls =
      obs::Registry::Global().GetCounter("kernels.intersect.calls");
  const uint64_t intersect_calls_before = intersect_calls->value();
  auto got = index->Lookup("qa qb qc qd qe", 10);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 0u);
  EXPECT_EQ(got[0].similarity, 1.0);
  // Docs 0-3 meet the prefix; only doc 0 is verified. Docs 2 and 3 fail the
  // size filter as well, doc 1 only the positional bound.
  EXPECT_EQ(candidates->value() - candidates_before, 4u);
  EXPECT_EQ(verifications->value() - verifications_before, 1u);
  // Each verification is one marked-set overlap, flushed with the lookup.
  EXPECT_EQ(intersect_calls->value() - intersect_calls_before, 1u);

  std::map<uint64_t, std::string> live(docs.begin(), docs.end());
  ExpectOracleEquivalent(*index, live, {"qa qb qc qd qe", "qc y1 y2"}, 10,
                         "positional bound");
}

TEST(MutableIndexTest, AlternatingIndexesOnOneThreadMatchOracle) {
  // Lookups on one thread share one thread-local candidate and verify
  // scratch. Alternating small, large, small indexes, whose segment sizes
  // and vocabularies differ, must neither see stale marks from the other
  // index nor read past the smaller one's docs or elements.
  struct Side {
    std::unique_ptr<MutableFuzzyIndex> index;
    std::map<uint64_t, std::string> live;
    std::vector<std::string> queries;
  };
  auto make = [](size_t n, uint64_t seed, bool word_tokens,
                 size_t seal_threshold) {
    MutableIndexOptions options = ManualOptions();
    options.match.word_tokens = word_tokens;
    options.seal_threshold = seal_threshold;
    Side side{MutableFuzzyIndex::Create(options).MoveValueUnsafe(), {}, {}};
    auto master = Master(n, seed);
    for (size_t i = 0; i < master.size(); ++i) {
      EXPECT_TRUE(side.index->Upsert(i, master[i]).ok());
      side.live[i] = master[i];
    }
    side.queries = DirtyQueries(master, 25, seed + 1);
    return side;
  };
  // 40 word-token docs in the tail; 700 q-gram docs in 4 sealed segments
  // plus a tail.
  Side small = make(40, 71, /*word_tokens=*/true, /*seal_threshold=*/0);
  Side large = make(700, 72, /*word_tokens=*/false, /*seal_threshold=*/160);
  ASSERT_EQ(large.index->GetStats().sealed_segments, 4u);
  for (int round = 0; round < 2; ++round) {
    for (const Side* side : {&small, &large, &small}) {
      ExpectOracleEquivalent(*side->index, side->live, side->queries, 5,
                             "round " + std::to_string(round));
    }
  }
}

TEST(MutableIndexTest, CreateRejectsBadAlpha) {
  MutableIndexOptions options;
  options.match.alpha = 0.0;
  EXPECT_FALSE(MutableFuzzyIndex::Create(options).ok());
  options.match.alpha = 1.5;
  EXPECT_FALSE(MutableFuzzyIndex::Create(options).ok());
}

TEST(MutableIndexTest, ZeroLengthQGramsRejectedByCreateAndOpen) {
  MutableIndexOptions options;
  options.match.word_tokens = false;
  options.match.q = 0;
  auto created = MutableFuzzyIndex::Create(options);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  // q is ignored with word tokens.
  options.match.word_tokens = true;
  EXPECT_TRUE(MutableFuzzyIndex::Create(options).ok());

  // Open trusts nothing the manifest says: a manifest carrying q = 0 is
  // rejected with the same Invalid, not a tokenizer abort.
  options.data_dir = FreshDir("mutable_qgram_zero");
  ASSERT_TRUE(MutableFuzzyIndex::Create(options).ok());
  std::string path = options.data_dir + "/" + kManifestFileName;
  auto manifest = LoadManifest(path);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  manifest->options.word_tokens = false;
  manifest->options.q = 0;
  ASSERT_TRUE(SaveManifest(*manifest, path).ok());
  auto opened = MutableFuzzyIndex::Open(options);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("q-gram"), std::string::npos)
      << opened.status().ToString();
  std::filesystem::remove_all(options.data_dir);
}

TEST(MutableIndexTest, ValueAtTracksLatestVersion) {
  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
  ASSERT_TRUE(index->Upsert(4, "first value").ok());
  ASSERT_TRUE(index->Seal().ok());
  ASSERT_TRUE(index->Upsert(4, "second value").ok());
  auto state = index->Snapshot();
  EXPECT_EQ(index->ValueAt(*state, 4).value_or(""), "second value");
  EXPECT_FALSE(index->ValueAt(*state, 99).has_value());
  ASSERT_TRUE(index->Delete(4).ok());
  EXPECT_FALSE(index->ValueAt(*index->Snapshot(), 4).has_value());
}

// ---------------------------------------------------------------------------
// Epoch state: the O(delta) publish against a from-scratch recompute.

TEST(MutableIndexTest, EpochStateMatchesFullRecompute) {
  auto master = Master(200, 53);
  auto queries = DirtyQueries(master, 20, 15);
  MutableIndexOptions options = ManualOptions();
  options.seal_threshold = 24;  // auto-seals between the explicit ones
  auto index = MutableFuzzyIndex::Create(options).MoveValueUnsafe();

  Rng rng(91);
  std::map<uint64_t, std::string> live;
  uint64_t next_id = 0;
  for (size_t step = 0; step < 500; ++step) {
    const uint64_t full_before = index->GetStats().full_publishes;
    const size_t n_before = live.size();
    uint32_t op = rng.Uniform(20);
    std::string what;
    if (op < 9 && !live.empty()) {
      // Replace a live doc, sometimes with a value of fresh vocabulary.
      auto it = live.begin();
      std::advance(it, rng.Uniform(live.size()));
      std::string value = master[rng.Uniform(master.size())];
      if (rng.Uniform(4) == 0) value += " zq" + std::to_string(step);
      ASSERT_TRUE(index->Upsert(it->first, value).ok());
      it->second = value;
      what = "replace";
    } else if (op < 14) {
      const std::string& value = master[rng.Uniform(master.size())];
      ASSERT_TRUE(index->Upsert(next_id, value).ok());
      live[next_id++] = value;
      what = "insert";
    } else if (op < 17) {
      uint64_t id = rng.Uniform(next_id + 1);
      ASSERT_TRUE(index->Delete(id).ok());
      live.erase(id);
      what = "delete";
    } else if (op < 19) {
      ASSERT_TRUE(index->Seal().ok());
      what = "seal";
    } else {
      ASSERT_TRUE(index->Compact().ok());
      what = "compact";
    }
    const std::string context = what + " at step " + std::to_string(step);
    Status check = index->CheckEpochState(*index->Snapshot());
    ASSERT_TRUE(check.ok()) << context << ": " << check.ToString();
    // Only a change of n recomputes every weight.
    EXPECT_EQ(index->GetStats().full_publishes > full_before,
              live.size() != n_before)
        << context;
  }
  ExpectOracleEquivalent(*index, live, queries, 5, "after epoch churn");
}

TEST(MutableIndexTest, EpochStateMatchesFullRecomputeGlobalStats) {
  auto master = Master(160, 54);
  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
  // This shard owns ids below 1000; ids from 1000 on live on other shards.
  std::map<uint64_t, std::string> cluster;
  std::vector<std::pair<uint64_t, std::string>> local;
  for (uint64_t i = 0; i < 40; ++i) local.emplace_back(i, master[i]);
  ASSERT_TRUE(index->BulkLoad(local).ok());
  for (const auto& [id, value] : local) cluster[id] = value;
  for (uint64_t i = 0; i < 30; ++i) cluster[1000 + i] = master[40 + i];
  auto values = [&] {
    std::vector<std::string> out;
    for (const auto& [id, value] : cluster) out.push_back(value);
    return out;
  };
  ASSERT_TRUE(index->ResetGlobalStats(values()).ok());
  std::vector<std::string> now = values();
  Status check = index->CheckEpochState(*index->Snapshot(), &now);
  ASSERT_TRUE(check.ok()) << "after reset: " << check.ToString();

  Rng rng(92);
  for (size_t step = 0; step < 300; ++step) {
    const bool owned = rng.Uniform(2) == 0;
    const uint64_t id = owned ? rng.Uniform(60) : 1000 + rng.Uniform(50);
    const std::string& value = master[rng.Uniform(master.size())];
    const uint32_t op = rng.Uniform(12);
    std::optional<std::string> old;
    if (auto it = cluster.find(id); it != cluster.end()) old = it->second;
    if (op == 0) {
      ASSERT_TRUE(index->Seal().ok());
    } else if (op == 1) {
      ASSERT_TRUE(index->Compact().ok());
    } else if (op == 2) {
      ASSERT_TRUE(index->ResetGlobalStats(values()).ok());
    } else if (op < 8) {  // upsert: an insert or a replace
      if (owned) {
        ASSERT_TRUE(index->UpsertGlobal(id, value, {}, nullptr).ok());
      } else {
        ASSERT_TRUE(index->ApplyGlobalDelta(GlobalDelta{old, value}).ok());
      }
      cluster[id] = value;
    } else {  // delete
      if (owned) {
        ASSERT_TRUE(index->DeleteGlobal(id, nullptr).ok());
      } else if (old.has_value()) {
        ASSERT_TRUE(index->ApplyGlobalDelta(GlobalDelta{old, std::nullopt}).ok());
      }
      cluster.erase(id);
    }
    now = values();
    check = index->CheckEpochState(*index->Snapshot(), &now);
    ASSERT_TRUE(check.ok()) << "op " << op << " at step " << step << ": "
                            << check.ToString();
  }
}

TEST(MutableIndexTest, PinnedEpochKeepsItsSetWeightColumns) {
  // Two generations over disjoint alphabets, so a replace inside the second
  // moves no weight of an element the first holds.
  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
  const std::vector<std::string> first = {"abcdef", "bcdefa", "cdefab",
                                          "abcfed"};
  const std::vector<std::string> second = {"nopqrs", "opqrsn", "pqrsno",
                                           "nopsrq"};
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(index->Upsert(i, first[i]).ok());
  }
  ASSERT_TRUE(index->Seal().ok());
  for (size_t i = 0; i < second.size(); ++i) {
    ASSERT_TRUE(index->Upsert(10 + i, second[i]).ok());
  }
  ASSERT_TRUE(index->Seal().ok());

  auto pinned = index->Snapshot();
  ASSERT_EQ(pinned->set_weights.size(), 2u);
  const SetWeightColumn first_column = *pinned->set_weights[0];
  const SetWeightColumn second_column = *pinned->set_weights[1];
  const uint64_t full_before = index->GetStats().full_publishes;

  ASSERT_TRUE(index->Upsert(11, "nopqxy").ok());  // a replace: n is unchanged
  auto next = index->Snapshot();
  EXPECT_EQ(index->GetStats().full_publishes, full_before);
  Status check = index->CheckEpochState(*next);
  ASSERT_TRUE(check.ok()) << check.ToString();
  // The untouched generation shares its column; the touched one was copied
  // and patched, never changed in place.
  EXPECT_EQ(next->set_weights[0], pinned->set_weights[0]);
  EXPECT_NE(next->set_weights[1], pinned->set_weights[1]);
  EXPECT_NE(*next->set_weights[1], second_column);
  EXPECT_EQ(*pinned->set_weights[0], first_column);
  EXPECT_EQ(*pinned->set_weights[1], second_column);
  check = index->CheckEpochState(*pinned);
  EXPECT_TRUE(check.ok()) << check.ToString();
}

// ---------------------------------------------------------------------------
// Durability: WAL replay and manifest recovery across restarts.

TEST(MutableIndexDurabilityTest, ReopenAfterUncleanShutdownReplaysWal) {
  auto master = Master(90, 51);
  auto queries = DirtyQueries(master, 30, 15);
  MutableIndexOptions options = ManualOptions();
  options.data_dir = FreshDir("mutable_wal_replay");

  std::map<uint64_t, std::string> live;
  {
    auto index = MutableFuzzyIndex::Create(options).MoveValueUnsafe();
    for (size_t i = 0; i < master.size(); ++i) {
      ASSERT_TRUE(index->Upsert(i, master[i]).ok());
      live[i] = master[i];
    }
    for (size_t i = 0; i < 20; i += 2) {
      ASSERT_TRUE(index->Delete(i).ok());
      live.erase(i);
    }
    // No Seal: everything lives only in the WAL. Dropping the object is the
    // closest in-process stand-in for a crash (the WAL is flushed per append).
  }
  auto reopened = MutableFuzzyIndex::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->GetStats().live_docs, live.size());
  ExpectOracleEquivalent(**reopened, live, queries, 5, "wal replay");
  std::filesystem::remove_all(options.data_dir);
}

TEST(MutableIndexDurabilityTest, ReopenAfterSealAndChurnRestoresExactState) {
  auto master = Master(120, 52);
  auto queries = DirtyQueries(master, 30, 16);
  MutableIndexOptions options = ManualOptions();
  options.data_dir = FreshDir("mutable_seal_churn");

  std::map<uint64_t, std::string> live;
  uint64_t epoch_before = 0;
  std::vector<std::vector<MutableFuzzyIndex::Match>> want;
  {
    auto index = MutableFuzzyIndex::Create(options).MoveValueUnsafe();
    for (size_t i = 0; i < 60; ++i) {
      ASSERT_TRUE(index->Upsert(i, master[i]).ok());
      live[i] = master[i];
    }
    ASSERT_TRUE(index->Seal().ok());
    for (size_t i = 60; i < master.size(); ++i) {
      ASSERT_TRUE(index->Upsert(i, master[i]).ok());
      live[i] = master[i];
    }
    for (size_t i = 5; i < 70; i += 9) {
      ASSERT_TRUE(index->Delete(i).ok());
      live.erase(i);
    }
    epoch_before = index->epoch();
    for (const std::string& q : queries) want.push_back(index->Lookup(q, 5));
  }
  auto reopened = MutableFuzzyIndex::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectOracleEquivalent(**reopened, live, queries, 5, "seal+churn reopen");
  // The recovered answers equal the pre-shutdown answers bit for bit.
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto got = (*reopened)->Lookup(queries[qi], 5);
    ASSERT_EQ(got.size(), want[qi].size()) << queries[qi];
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[qi][i].id) << queries[qi];
      EXPECT_EQ(got[i].similarity, want[qi][i].similarity) << queries[qi];
    }
  }
  // Epochs are not required to match across restart, but must keep moving.
  ASSERT_TRUE((*reopened)->Upsert(999, "post-restart record").ok());
  EXPECT_GT((*reopened)->epoch(), 0u);
  (void)epoch_before;
  std::filesystem::remove_all(options.data_dir);
}

TEST(MutableIndexDurabilityTest, ReopenAfterCompactionAndContinueChurn) {
  auto master = Master(100, 53);
  auto queries = DirtyQueries(master, 25, 17);
  MutableIndexOptions options = ManualOptions();
  options.data_dir = FreshDir("mutable_compact_reopen");

  std::map<uint64_t, std::string> live;
  {
    auto index = MutableFuzzyIndex::Create(options).MoveValueUnsafe();
    for (size_t i = 0; i < master.size(); ++i) {
      ASSERT_TRUE(index->Upsert(i, master[i]).ok());
      live[i] = master[i];
    }
    ASSERT_TRUE(index->Seal().ok());
    for (size_t i = 0; i < 40; i += 3) {
      ASSERT_TRUE(index->Delete(i).ok());
      live.erase(i);
    }
    ASSERT_TRUE(index->Compact().ok());
  }
  auto reopened = MutableFuzzyIndex::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectOracleEquivalent(**reopened, live, queries, 5, "compaction reopen");

  // Keep mutating after the restart, then survive a second restart.
  {
    auto& index = *reopened;
    ASSERT_TRUE(index->Upsert(1, "post restart replacement").ok());
    live[1] = "post restart replacement";
    ASSERT_TRUE(index->Delete(50).ok());
    live.erase(50);
  }
  reopened->reset();
  auto again = MutableFuzzyIndex::Open(options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectOracleEquivalent(**again, live, queries, 5, "second reopen");
  std::filesystem::remove_all(options.data_dir);
}

TEST(MutableIndexDurabilityTest, CreateRefusesExistingManifest) {
  MutableIndexOptions options = ManualOptions();
  options.data_dir = FreshDir("mutable_create_twice");
  {
    auto index = MutableFuzzyIndex::Create(options).MoveValueUnsafe();
    ASSERT_TRUE(index->Upsert(0, "hello world").ok());
  }
  auto second = MutableFuzzyIndex::Create(options);
  EXPECT_FALSE(second.ok());
  std::filesystem::remove_all(options.data_dir);
}

TEST(MutableIndexDurabilityTest, OpenWithoutManifestFails) {
  MutableIndexOptions options = ManualOptions();
  options.data_dir = FreshDir("mutable_open_missing");
  EXPECT_FALSE(MutableFuzzyIndex::Open(options).ok());
  std::filesystem::remove_all(options.data_dir);
}

// ---------------------------------------------------------------------------
// Segment postings: the core::InvertedIndex over a segment's sets.

/// Postings(e) must equal a brute-force scan of `seg.sets` (the locals
/// holding e, ascending) for every e in [0, max_id + 3], so ids past the
/// indexed range are covered too.
void ExpectPostingsMatchScan(const Segment& seg, text::TokenId max_id) {
  for (text::TokenId e = 0; e <= max_id + 3; ++e) {
    std::vector<uint32_t> want;
    for (uint32_t local = 0; local < seg.num_docs(); ++local) {
      std::span<const text::TokenId> elems = seg.sets.elements(local);
      if (std::binary_search(elems.begin(), elems.end(), e)) want.push_back(local);
    }
    std::span<const uint32_t> got = seg.Postings(e);
    EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), want) << "element " << e;
  }
}

TEST(SegmentPostingsTest, MatchBruteForceScan) {
  Segment seg;
  seg.AppendDoc(10, "a", std::vector<text::TokenId>{1, 4, 7});
  seg.AppendDoc(11, "empty", {});
  seg.AppendDoc(12, "b", std::vector<text::TokenId>{4});
  seg.AppendDoc(10, "a again", std::vector<text::TokenId>{0, 7});
  seg.RecordDelete(13);
  seg.BuildPostings();
  // 4 and 7 are repeated, 2, 3, 5 and 6 absent, 8 and up past the range.
  ExpectPostingsMatchScan(seg, 7);
  EXPECT_EQ(seg.Postings(7).size(), 2u);
  EXPECT_TRUE(seg.Postings(UINT32_MAX).empty());
}

TEST(SegmentPostingsTest, SegmentsWithoutDocsHaveNoPostings) {
  Segment empty;
  empty.BuildPostings();
  ExpectPostingsMatchScan(empty, 0);
  Segment tombstones;
  tombstones.RecordDelete(5);
  tombstones.RecordDelete(6);
  tombstones.BuildPostings();
  EXPECT_EQ(tombstones.num_docs(), 0u);
  EXPECT_EQ(tombstones.num_tombstones(), 2u);
  ExpectPostingsMatchScan(tombstones, 0);
}

TEST(SegmentPostingsTest, CopyRebuildsItsOwnPostings) {
  // The frozen tail: a copy of a segment, appended to and built again,
  // must index its own docs and leave the original's postings alone.
  filter::AttrSet red;
  ASSERT_TRUE(red.Set("color", filter::AttrValue::String("red")).ok());
  filter::AttrSet blue;
  ASSERT_TRUE(blue.Set("color", filter::AttrValue::String("blue")).ok());
  Segment seg;
  seg.AppendDoc(1, "x", std::vector<text::TokenId>{2, 3}, red);
  seg.BuildPostings();
  Segment copy = seg;
  copy.AppendDoc(2, "y", std::vector<text::TokenId>{3, 9}, blue);
  copy.AppendDoc(3, "z", std::vector<text::TokenId>{9}, red);
  copy.BuildPostings();
  ExpectPostingsMatchScan(seg, 9);
  ExpectPostingsMatchScan(copy, 9);
  EXPECT_EQ(seg.num_attr_classes(), 1u);
  EXPECT_EQ(copy.num_attr_classes(), 2u);
  EXPECT_EQ(copy.attr_class(2), copy.attr_class(0));
}

}  // namespace
}  // namespace ssjoin::index
