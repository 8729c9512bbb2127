/// End-to-end integration tests: CSV in -> similarity join -> CSV out;
/// the full dedup pipeline against generator ground truth; the relational
/// plans running over generated data; cross-checks between the high-level
/// joins and the SSJoin primitive driven manually.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "core/relational_ssjoin.h"
#include "datagen/address_gen.h"
#include "engine/csv.h"
#include "engine/expr.h"
#include "engine/operators.h"
#include "sim/edit_distance.h"
#include "simjoin/prep.h"
#include "simjoin/string_joins.h"
#include "text/tokenizer.h"

namespace ssjoin {
namespace {

TEST(IntegrationTest, CsvToJoinToCsv) {
  // A small dirty org table as CSV.
  std::string csv =
      "id,org\n"
      "1,Microsoft Corp\n"
      "2,Mcrosoft Corp\n"
      "3,\"Oracle, Corporation\"\n"
      "4,Orcale Corporation\n"
      "5,Apple Inc\n";
  engine::Table table = *engine::ParseCsv(csv);
  ASSERT_EQ(table.num_rows(), 5u);
  auto org_col = *table.ColumnByName("org");
  std::vector<std::string> orgs = (*org_col).strings();

  auto matches = *simjoin::EditSimilarityJoin(orgs, orgs, 0.8, 3);
  engine::Table out{engine::Schema({{"left", engine::DataType::kString},
                                    {"right", engine::DataType::kString},
                                    {"sim", engine::DataType::kFloat64}})};
  for (const auto& m : matches) {
    if (m.r >= m.s) continue;
    ASSERT_TRUE(out.AppendRow({orgs[m.r], orgs[m.s], m.similarity}).ok());
  }
  ASSERT_EQ(out.num_rows(), 2u);

  // Round-trip the result through CSV.
  engine::Table reloaded = *engine::ParseCsv(engine::ToCsv(out));
  EXPECT_TRUE(reloaded.ContentEquals(out));
  EXPECT_NE(engine::ToCsv(out).find("Microsoft Corp,Mcrosoft Corp"),
            std::string::npos);
}

TEST(IntegrationTest, DedupPipelineRecoversInjectedDuplicates) {
  datagen::AddressGenOptions gen;
  gen.num_records = 1500;
  gen.duplicate_fraction = 0.3;
  gen.errors.char_edits_mean = 1.0;
  gen.errors.abbreviation_prob = 0.0;  // keep duplicates close in edit space
  gen.errors.token_drop_prob = 0.0;
  gen.errors.token_swap_prob = 0.0;
  datagen::AddressDataset data = datagen::GenerateAddresses(gen);

  auto matches = *simjoin::EditSimilarityJoin(data.records, data.records, 0.85, 3);
  std::set<std::pair<uint32_t, uint32_t>> found;
  for (const auto& m : matches) found.insert({m.r, m.s});

  size_t recovered = 0;
  size_t eligible = 0;
  for (uint32_t i = 0; i < data.records.size(); ++i) {
    if (data.duplicate_of[i] < 0) continue;
    uint32_t src = static_cast<uint32_t>(data.duplicate_of[i]);
    // Only score pairs that truly stayed above the threshold.
    if (sim::EditSimilarity(data.records[i], data.records[src]) < 0.85) continue;
    ++eligible;
    recovered += found.count({i, src});
  }
  ASSERT_GT(eligible, 100u);
  EXPECT_EQ(recovered, eligible);  // the join is exact: every eligible pair found
}

TEST(IntegrationTest, RelationalPlansRunOnGeneratedData) {
  datagen::AddressGenOptions gen;
  gen.num_records = 120;
  gen.duplicate_fraction = 0.4;
  datagen::AddressDataset data = datagen::GenerateAddresses(gen);
  text::WordTokenizer tokenizer;
  simjoin::Prepared prep =
      simjoin::PrepareStrings(data.records, data.records, tokenizer,
                              simjoin::WeightMode::kIdf)
          .MoveValueUnsafe();
  engine::Table rt = *core::ToNormalizedTable(prep.r, prep.weights, prep.order);
  engine::Table st = *core::ToNormalizedTable(prep.s(), prep.weights, prep.order);
  core::OverlapPredicate pred = core::OverlapPredicate::TwoSidedNormalized(0.8);

  engine::Table basic = *core::BasicSSJoinPlan(rt, st, pred);
  engine::Table prefix = *core::PrefixFilterSSJoinPlan(rt, st, pred);
  // Same rows (order may differ): compare canonical (r,s) pair sets.
  auto pair_set = [](const engine::Table& t) {
    std::set<std::pair<int64_t, int64_t>> pairs;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      pairs.insert({t.GetValue(0, r).int64(), t.GetValue(1, r).int64()});
    }
    return pairs;
  };
  EXPECT_EQ(pair_set(basic), pair_set(prefix));
  // Every record resembles itself: at least the diagonal is present.
  EXPECT_GE(basic.num_rows(), data.records.size());

  // And the columnar executor agrees with both.
  auto pairs = *core::ExecuteSSJoin(core::SSJoinAlgorithm::kPrefixFilterInline,
                                    prep.r, prep.s(), pred, prep.Context(), nullptr);
  EXPECT_EQ(pairs.size(), basic.num_rows());
}

TEST(IntegrationTest, ExpressionsOverJoinResults) {
  // Build a join-result table and post-process it declaratively.
  std::vector<std::string> orgs = {"Microsoft Corp", "Mcrosoft Corp",
                                   "Microsft Corp", "Apple Inc"};
  auto matches = *simjoin::EditSimilarityJoin(orgs, orgs, 0.8, 3);
  engine::Table t{engine::Schema({{"r", engine::DataType::kInt64},
                                  {"s", engine::DataType::kInt64},
                                  {"sim", engine::DataType::kFloat64}})};
  for (const auto& m : matches) {
    ASSERT_TRUE(t.AppendRow({static_cast<int64_t>(m.r), static_cast<int64_t>(m.s),
                             m.similarity})
                    .ok());
  }
  // Keep strictly-upper-triangle pairs with similarity >= 0.9.
  engine::Table strong = *engine::FilterWhere(
      t, engine::And(engine::Lt(engine::Col("r"), engine::Col("s")),
                     engine::Ge(engine::Col("sim"), engine::Lit(0.9))));
  for (size_t r = 0; r < strong.num_rows(); ++r) {
    EXPECT_LT(strong.GetValue(0, r).int64(), strong.GetValue(1, r).int64());
    EXPECT_GE(strong.GetValue(2, r).float64(), 0.9);
  }
  EXPECT_GT(strong.num_rows(), 0u);
  EXPECT_LT(strong.num_rows(), t.num_rows());
}

}  // namespace
}  // namespace ssjoin
