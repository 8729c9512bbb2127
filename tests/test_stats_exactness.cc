/// Exactness tests for SSJoinStats: every counter the executors report is
/// checked against an independent brute-force oracle on small inputs, for
/// all five physical algorithms. Each executor must additionally report
/// *identical* counters at 1, 2 and 8 threads and return bit-identical
/// output — the determinism contract the obs layer builds on.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "core/ssjoin.h"
#include "exec/metrics.h"
#include "obs/metrics.h"

namespace ssjoin::core {
namespace {

constexpr SSJoinAlgorithm kAllAlgorithms[] = {
    SSJoinAlgorithm::kNaive, SSJoinAlgorithm::kBasic,
    SSJoinAlgorithm::kInvertedIndex, SSJoinAlgorithm::kPrefixFilter,
    SSJoinAlgorithm::kPrefixFilterInline};

struct Fixture {
  WeightVector weights;
  ElementOrder order;
  SetsRelation r;
  SetsRelation s;

  SSJoinContext Context() const { return {&weights, &order}; }
};

Fixture RandomFixture(uint64_t seed, size_t universe, size_t r_groups,
                      size_t s_groups, bool unit_weights) {
  Rng rng(seed);
  Fixture f;
  f.weights.resize(universe);
  for (double& w : f.weights) {
    w = unit_weights ? 1.0 : 0.05 + rng.NextDouble() * 2.0;
  }
  f.order = ElementOrder::ByDecreasingWeight(f.weights);
  auto make_docs = [&](size_t n) {
    std::vector<std::vector<text::TokenId>> docs(n);
    for (auto& doc : docs) {
      size_t size = 1 + rng.Uniform(10);
      for (size_t i = 0; i < size; ++i) {
        doc.push_back(static_cast<text::TokenId>(rng.Uniform(universe)));
      }
    }
    return docs;
  };
  f.r = *BuildSetsRelation(make_docs(r_groups), f.weights);
  f.s = *BuildSetsRelation(make_docs(s_groups), f.weights);
  return f;
}

/// Brute-force ground truth computed straight from the canonical sets, with
/// no knowledge of any executor's plan.
struct Oracle {
  /// Distinct (r, s) group pairs sharing at least one element.
  size_t intersecting_pairs = 0;
  /// 1NF equi-join size on the element column: sum over elements e of
  /// fR(e) * fS(e), the row count the Basic plan materializes.
  size_t equijoin_rows = 0;
  /// Pairs in the join result under `pred`.
  size_t result_pairs = 0;
};

Oracle BruteForce(const Fixture& f, const OverlapPredicate& pred) {
  Oracle o;
  // Per-element frequencies across groups (sets are duplicate-free, so this
  // is the number of 1NF rows carrying the element).
  std::map<text::TokenId, size_t> fr;
  std::map<text::TokenId, size_t> fs;
  for (GroupId g = 0; g < f.r.num_groups(); ++g) {
    for (text::TokenId e : f.r.set(g)) ++fr[e];
  }
  for (GroupId g = 0; g < f.s.num_groups(); ++g) {
    for (text::TokenId e : f.s.set(g)) ++fs[e];
  }
  for (const auto& [e, count] : fr) {
    auto it = fs.find(e);
    if (it != fs.end()) o.equijoin_rows += count * it->second;
  }

  for (GroupId rg = 0; rg < f.r.num_groups(); ++rg) {
    for (GroupId sg = 0; sg < f.s.num_groups(); ++sg) {
      // Merge of the two sorted sets, same summation order (ascending id)
      // as the executors, so the overlap double is bit-identical.
      SetView rset = f.r.set(rg);
      SetView sset = f.s.set(sg);
      double overlap = 0.0;
      size_t shared = 0;
      size_t i = 0;
      size_t j = 0;
      while (i < rset.size() && j < sset.size()) {
        if (rset[i] < sset[j]) {
          ++i;
        } else if (sset[j] < rset[i]) {
          ++j;
        } else {
          overlap += f.weights[rset[i]];
          ++shared;
          ++i;
          ++j;
        }
      }
      if (shared == 0) continue;
      ++o.intersecting_pairs;
      if (pred.Test(overlap, f.r.norms[rg], f.s.norms[sg])) ++o.result_pairs;
    }
  }
  return o;
}

void ExpectSameCounters(const SSJoinStats& got, const SSJoinStats& want,
                        const char* label) {
  EXPECT_EQ(got.equijoin_rows, want.equijoin_rows) << label;
  EXPECT_EQ(got.candidate_pairs, want.candidate_pairs) << label;
  EXPECT_EQ(got.result_pairs, want.result_pairs) << label;
  EXPECT_EQ(got.r_prefix_elements, want.r_prefix_elements) << label;
  EXPECT_EQ(got.s_prefix_elements, want.s_prefix_elements) << label;
  EXPECT_EQ(got.pruned_groups_r, want.pruned_groups_r) << label;
  EXPECT_EQ(got.pruned_groups_s, want.pruned_groups_s) << label;
}

class StatsExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsExactnessTest, CountersMatchBruteForceOracles) {
  Fixture f = RandomFixture(GetParam(), /*universe=*/25, /*r_groups=*/40,
                            /*s_groups=*/35, /*unit_weights=*/false);
  for (const OverlapPredicate& pred :
       {OverlapPredicate::Absolute(1.5),
        OverlapPredicate::OneSidedNormalized(0.6),
        OverlapPredicate::TwoSidedNormalized(0.7)}) {
    SCOPED_TRACE("predicate " + pred.ToString());
    Oracle oracle = BruteForce(f, pred);

    SSJoinStats prefix_stats;  // kept to cross-check the inline variant
    for (SSJoinAlgorithm algorithm : kAllAlgorithms) {
      SCOPED_TRACE(SSJoinAlgorithmName(algorithm));
      SSJoinStats stats;
      auto result = ExecuteSSJoin(algorithm, f.r, f.s, pred, f.Context(), &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();

      // Universal: result_pairs is the returned size and equals the oracle.
      EXPECT_EQ(stats.result_pairs, result->size());
      EXPECT_EQ(stats.result_pairs, oracle.result_pairs);

      switch (algorithm) {
        case SSJoinAlgorithm::kNaive:
          // Cross product: every group pair is a "candidate".
          EXPECT_EQ(stats.candidate_pairs,
                    f.r.num_groups() * f.s.num_groups());
          EXPECT_EQ(stats.equijoin_rows, 0u);
          break;
        case SSJoinAlgorithm::kBasic:
        case SSJoinAlgorithm::kInvertedIndex:
          // Both materialize (conceptually) the full 1NF equi-join and see
          // exactly the intersecting pairs as candidates.
          EXPECT_EQ(stats.equijoin_rows, oracle.equijoin_rows);
          EXPECT_EQ(stats.candidate_pairs, oracle.intersecting_pairs);
          break;
        case SSJoinAlgorithm::kPrefixFilter:
        case SSJoinAlgorithm::kPrefixFilterInline:
          // The prefix filter may only *remove* candidates, never invent
          // them, and must keep every true result pair.
          EXPECT_LE(stats.candidate_pairs, oracle.intersecting_pairs);
          EXPECT_GE(stats.candidate_pairs, oracle.result_pairs);
          // Every candidate came from at least one prefix equi-join row.
          EXPECT_GE(stats.equijoin_rows, stats.candidate_pairs);
          EXPECT_LE(stats.r_prefix_elements, f.r.total_elements());
          EXPECT_LE(stats.s_prefix_elements, f.s.total_elements());
          if (algorithm == SSJoinAlgorithm::kPrefixFilter) {
            prefix_stats = stats;
          } else {
            // Identical candidate generation in both prefix variants.
            EXPECT_EQ(stats.candidate_pairs, prefix_stats.candidate_pairs);
            EXPECT_EQ(stats.equijoin_rows, prefix_stats.equijoin_rows);
            EXPECT_EQ(stats.r_prefix_elements, prefix_stats.r_prefix_elements);
            EXPECT_EQ(stats.s_prefix_elements, prefix_stats.s_prefix_elements);
          }
          break;
        case SSJoinAlgorithm::kApprox:
        case SSJoinAlgorithm::kHybrid:
          // Not dispatchable through core::ExecuteSSJoin (and not part of
          // kAllAlgorithms); covered by test_approx.cc.
          break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsExactnessTest,
                         ::testing::Values(3u, 17u, 99u));

TEST(StatsExactnessTest, PrunedGroupsMatchOracleUnderAbsoluteThreshold) {
  // Unit weights + Absolute(t) make the prune decision exactly countable:
  // a non-empty group is pruned iff its set weight |set| < t.
  Fixture f = RandomFixture(5, /*universe=*/12, /*r_groups=*/50,
                            /*s_groups=*/50, /*unit_weights=*/true);
  const double t = 4.5;  // non-integer: no group sits on the boundary
  OverlapPredicate pred = OverlapPredicate::Absolute(t);

  size_t want_pruned_r = 0;
  size_t want_pruned_s = 0;
  size_t want_prefix_r = 0;
  size_t want_prefix_s = 0;
  auto account = [t](const SetsRelation& rel, size_t* pruned, size_t* prefix) {
    for (GroupId g = 0; g < rel.num_groups(); ++g) {
      size_t n = rel.set(g).size();
      if (n == 0) continue;
      if (static_cast<double>(n) < t) {
        ++*pruned;  // required overlap exceeds total set weight
      } else {
        // prefix_beta with beta = n - t keeps the shortest prefix whose
        // weight exceeds beta: floor(beta) + 1 unit-weight elements.
        *prefix += static_cast<size_t>(n - t) + 1;
      }
    }
  };
  account(f.r, &want_pruned_r, &want_prefix_r);
  account(f.s, &want_pruned_s, &want_prefix_s);
  ASSERT_GT(want_pruned_r, 0u) << "fixture must exercise pruning";

  for (SSJoinAlgorithm algorithm :
       {SSJoinAlgorithm::kPrefixFilter, SSJoinAlgorithm::kPrefixFilterInline}) {
    SCOPED_TRACE(SSJoinAlgorithmName(algorithm));
    SSJoinStats stats;
    auto result = ExecuteSSJoin(algorithm, f.r, f.s, pred, f.Context(), &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // The inline variant reports prefix elements but not pruned groups
    // (its candidate loop never materializes the pruned set); the
    // re-joining variant reports both.
    EXPECT_EQ(stats.r_prefix_elements, want_prefix_r);
    EXPECT_EQ(stats.s_prefix_elements, want_prefix_s);
    if (algorithm == SSJoinAlgorithm::kPrefixFilter) {
      EXPECT_EQ(stats.pruned_groups_r, want_pruned_r);
      EXPECT_EQ(stats.pruned_groups_s, want_pruned_s);
    }
  }
}

TEST(StatsExactnessTest, ParallelCountersIdenticalAcrossThreadCounts) {
  // The acceptance bar for the obs determinism contract: at 1, 2 and 8
  // threads every counter and every output pair (id *and* overlap double)
  // must be identical to the default (null ctx.exec) run, and the
  // exec.morsels_dispatched and kernels.intersect.{calls,elements,pruned}
  // deltas of one join must not depend on the thread count.
  Fixture f = RandomFixture(21, /*universe=*/20, /*r_groups=*/60,
                            /*s_groups=*/45, /*unit_weights=*/false);
  OverlapPredicate pred = OverlapPredicate::TwoSidedNormalized(0.6);

  obs::Registry& reg = obs::Registry::Global();
  const std::vector<obs::Counter*> kernel_counters = {
      reg.GetCounter("kernels.intersect.calls"),
      reg.GetCounter("kernels.intersect.elements"),
      reg.GetCounter("kernels.intersect.pruned")};
  auto kernel_values = [&] {
    std::vector<uint64_t> v;
    for (obs::Counter* c : kernel_counters) v.push_back(c->value());
    return v;
  };
  auto kernel_deltas = [&](const std::vector<uint64_t>& before) {
    std::vector<uint64_t> v = kernel_values();
    for (size_t i = 0; i < v.size(); ++i) v[i] -= before[i];
    return v;
  };

  for (SSJoinAlgorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(SSJoinAlgorithmName(algorithm));
    SSJoinStats serial_stats;
    std::vector<uint64_t> kernels_before = kernel_values();
    auto serial =
        ExecuteSSJoin(algorithm, f.r, f.s, pred, f.Context(), &serial_stats);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    const std::vector<uint64_t> serial_kernels = kernel_deltas(kernels_before);
    if (algorithm == SSJoinAlgorithm::kNaive ||
        algorithm == SSJoinAlgorithm::kPrefixFilterInline) {
      // The marked-set verify runs here, and its bound prunes.
      EXPECT_EQ(serial_kernels[0], serial_stats.candidate_pairs);
      EXPECT_GT(serial_kernels[2], 0u);
    }

    obs::Counter& morsels = exec::internal::MorselsDispatchedCounter();
    std::vector<uint64_t> morsel_deltas;
    for (size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      exec::ExecContext ec;
      ec.num_threads = threads;
      ec.morsel_size = 3;  // many morsels: stress the merge order
      SSJoinContext ctx = f.Context();
      ctx.exec = &ec;
      SSJoinStats stats;
      uint64_t morsels_before = morsels.value();
      kernels_before = kernel_values();
      auto parallel = ExecuteSSJoin(algorithm, f.r, f.s, pred, ctx, &stats);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      morsel_deltas.push_back(morsels.value() - morsels_before);
      EXPECT_EQ(kernel_deltas(kernels_before), serial_kernels)
          << "kernels.intersect.{calls,elements,pruned}";

      ExpectSameCounters(stats, serial_stats, "vs serial");
      ASSERT_EQ(parallel->size(), serial->size());
      for (size_t i = 0; i < serial->size(); ++i) {
        EXPECT_EQ((*parallel)[i].r, (*serial)[i].r);
        EXPECT_EQ((*parallel)[i].s, (*serial)[i].s);
        // Bit-identical, not just close: every morsel sums weights in the
        // same element order as a single scan.
        EXPECT_EQ((*parallel)[i].overlap, (*serial)[i].overlap);
      }
    }
    ASSERT_EQ(morsel_deltas.size(), 3u);
    EXPECT_GT(morsel_deltas[0], 0u);
    EXPECT_EQ(morsel_deltas[1], morsel_deltas[0]) << "2 threads vs 1";
    EXPECT_EQ(morsel_deltas[2], morsel_deltas[0]) << "8 threads vs 1";
  }
}

}  // namespace
}  // namespace ssjoin::core
