/// SetStore / SetView unit tests plus the nested-vs-CSR differential test:
/// the legacy per-group vector representation (rebuilt here as a test-only
/// helper) and the flat CSR store must describe exactly the same relation
/// for the same randomized input documents.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/set_store.h"
#include "core/sets.h"

namespace ssjoin::core {
namespace {

using Doc = std::vector<text::TokenId>;

TEST(SetViewTest, BasicAccessors) {
  std::vector<text::TokenId> elems{3, 7, 9};
  SetView v(elems, 42);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_FALSE(v.empty());
  EXPECT_EQ(v[1], 7u);
  EXPECT_EQ(v.group(), 42u);
  std::span<const text::TokenId> s = v;  // implicit conversion
  EXPECT_EQ(s.data(), elems.data());
  EXPECT_TRUE(SetView().empty());
}

TEST(SetStoreTest, AppendAndView) {
  SetStore store;
  EXPECT_EQ(store.num_groups(), 0u);
  EXPECT_EQ(store.total_elements(), 0u);
  store.AppendSet(Doc{1, 2, 3});
  store.AppendSet(Doc{});
  store.AppendSet(Doc{9});
  EXPECT_EQ(store.num_groups(), 3u);
  EXPECT_EQ(store.total_elements(), 4u);
  EXPECT_EQ(store.view(0).size(), 3u);
  EXPECT_TRUE(store.view(1).empty());
  EXPECT_EQ(store.view(2)[0], 9u);
  EXPECT_EQ(store.view(2).group(), 2u);
  EXPECT_EQ(store.offsets(), (std::vector<uint32_t>{0, 3, 3, 4}));
}

TEST(SetStoreTest, AppendStoreShiftsOffsets) {
  SetStore a;
  a.AppendSet(Doc{1, 2});
  SetStore b;
  b.AppendSet(Doc{});
  b.AppendSet(Doc{5, 6, 7});
  a.AppendStore(b);
  ASSERT_EQ(a.num_groups(), 3u);
  EXPECT_EQ(a.offsets(), (std::vector<uint32_t>{0, 2, 2, 5}));
  EXPECT_EQ(a.view(2)[2], 7u);
  // Concatenating morsel-local stores in order reproduces the serial layout.
  SetStore serial;
  serial.AppendSet(Doc{1, 2});
  serial.AppendSet(Doc{});
  serial.AppendSet(Doc{5, 6, 7});
  EXPECT_TRUE(a == serial);
}

TEST(SetStoreTest, ClearResetsToEmpty) {
  SetStore store;
  store.AppendSet(Doc{1});
  store.Clear();
  EXPECT_EQ(store.num_groups(), 0u);
  EXPECT_EQ(store.total_elements(), 0u);
}

TEST(SetStoreTest, CheckCapacityRejectsUint32Overflow) {
  EXPECT_TRUE(SetStore::CheckCapacity(1000, 1000).ok());
  EXPECT_TRUE(SetStore::CheckCapacity(UINT32_MAX - 1, UINT32_MAX).ok());
  EXPECT_FALSE(SetStore::CheckCapacity(static_cast<size_t>(UINT32_MAX) + 1, 0).ok());
  EXPECT_FALSE(SetStore::CheckCapacity(0, static_cast<size_t>(UINT32_MAX) + 1).ok());
}

TEST(SetStoreTest, FromPartsValidatesInvariants) {
  // Valid CSR round-trips.
  auto ok = SetStore::FromParts({0, 2, 2, 3}, {4, 5, 6});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->num_groups(), 3u);
  EXPECT_EQ(ok->view(0)[1], 5u);

  // Offsets must exist, start at 0, be monotone, and end at token count.
  EXPECT_FALSE(SetStore::FromParts({}, {}).ok());
  EXPECT_FALSE(SetStore::FromParts({1, 2}, {4, 5}).ok());
  EXPECT_FALSE(SetStore::FromParts({0, 2, 1, 3}, {4, 5, 6}).ok());
  EXPECT_FALSE(SetStore::FromParts({0, 2}, {4, 5, 6}).ok());
}

// ---------------------------------------------------------------------------
// Differential test: legacy nested representation vs the CSR store.

/// The pre-refactor representation and builder logic, kept only as the
/// differential-test oracle: one heap vector per group, canonicalized the
/// same way BuildSetsRelation does.
struct LegacyNestedRelation {
  std::vector<std::vector<text::TokenId>> sets;
  std::vector<double> norms;
  std::vector<double> set_weights;
};

LegacyNestedRelation BuildLegacyNested(std::vector<Doc> docs,
                                       const WeightVector& weights) {
  LegacyNestedRelation rel;
  for (Doc& doc : docs) {
    std::sort(doc.begin(), doc.end());
    doc.erase(std::unique(doc.begin(), doc.end()), doc.end());
    double wt = 0.0;
    for (text::TokenId e : doc) wt += weights[e];
    rel.set_weights.push_back(wt);
    rel.norms.push_back(wt);
    rel.sets.push_back(std::move(doc));
  }
  return rel;
}

TEST(SetStoreDifferentialTest, CsrMatchesLegacyNestedOnRandomDocs) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    size_t universe = 20 + rng.Uniform(200);
    size_t num_docs = rng.Uniform(300);
    WeightVector weights(universe);
    for (double& w : weights) w = 0.01 + rng.NextDouble() * 3.0;

    std::vector<Doc> docs(num_docs);
    for (Doc& doc : docs) {
      size_t size = rng.Uniform(25);  // empty docs included
      for (size_t i = 0; i < size; ++i) {
        doc.push_back(static_cast<text::TokenId>(rng.Uniform(universe)));
      }
    }

    LegacyNestedRelation legacy = BuildLegacyNested(docs, weights);
    auto built = BuildSetsRelation(docs, weights);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const SetsRelation& rel = *built;

    ASSERT_EQ(rel.num_groups(), legacy.sets.size());
    size_t legacy_total = 0;
    for (size_t g = 0; g < legacy.sets.size(); ++g) {
      SetView view = rel.set(static_cast<GroupId>(g));
      ASSERT_EQ(std::vector<text::TokenId>(view.begin(), view.end()),
                legacy.sets[g])
          << "seed " << seed << " group " << g;
      EXPECT_EQ(view.group(), g);
      // Bit-equality on the derived doubles: both builders sum the same
      // weights in the same (sorted-id) order.
      EXPECT_EQ(rel.set_weights[g], legacy.set_weights[g]);
      EXPECT_EQ(rel.norms[g], legacy.norms[g]);
      legacy_total += legacy.sets[g].size();
    }
    EXPECT_EQ(rel.total_elements(), legacy_total);
    EXPECT_EQ(rel.store.offsets().size(), rel.num_groups() + 1);
  }
}

TEST(SetStoreDifferentialTest, CustomNormsFlowThrough) {
  WeightVector weights{1.0, 1.0};
  std::vector<double> norms{3.5, 4.5};
  auto rel = BuildSetsRelation({{0, 1}, {1}}, weights, norms);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->norms, norms);
  EXPECT_DOUBLE_EQ(rel->set_weights[0], 2.0);
}

}  // namespace
}  // namespace ssjoin::core
