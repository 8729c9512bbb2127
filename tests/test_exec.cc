/// Tests for the morsel-driven execution runtime (src/exec): thread pool
/// lifecycle, task queue, ParallelFor scheduling/exception semantics, and —
/// the load-bearing property — that every SSJoin executor produces the same
/// output and stats at N threads as at one, for any morsel size.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/ssjoin.h"
#include "exec/metrics.h"
#include "exec/parallel_for.h"
#include "exec/task_queue.h"
#include "exec/thread_pool.h"
#include "simjoin/string_joins.h"

namespace ssjoin::exec {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool / TaskQueue

TEST(ThreadPoolTest, StartAndStop) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  pool.Shutdown();
  // Shutdown is idempotent; Submit after shutdown is rejected.
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
    }
  }  // destructor drains the queue
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, InWorkerThreadFlag) {
  EXPECT_FALSE(ThreadPool::InWorkerThread());
  std::atomic<bool> seen_in_worker{false};
  {
    ThreadPool pool(1);
    ASSERT_TRUE(pool.Submit(
        [&] { seen_in_worker = ThreadPool::InWorkerThread(); }));
  }
  EXPECT_TRUE(seen_in_worker.load());
  EXPECT_FALSE(ThreadPool::InWorkerThread());
}

TEST(TaskQueueTest, PushPopClose) {
  TaskQueue<int> q;
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  EXPECT_EQ(q.size(), 2u);
  auto a = q.Pop();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, 1);
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.Push(3));  // rejected after close...
  auto b = q.Pop();         // ...but queued items still drain
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 2);
  EXPECT_FALSE(q.Pop().has_value());  // empty + closed -> nullopt
}

// ---------------------------------------------------------------------------
// ParallelFor

/// Runs ParallelFor over [0, n) and checks every index is visited exactly
/// once, morsels are contiguous, and morsel indices are dense.
void CheckCoverage(size_t n, size_t threads, size_t morsel_size) {
  ExecContext ctx;
  ctx.num_threads = threads;
  ctx.morsel_size = morsel_size;
  std::vector<std::atomic<int>> visits(n);
  for (auto& v : visits) v.store(0);
  std::mutex mu;
  std::set<size_t> morsels;
  ParallelFor(ctx, n, [&](size_t /*worker*/, size_t morsel, size_t begin,
                          size_t end) {
    EXPECT_LT(begin, end);
    EXPECT_LE(end, n);
    for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_TRUE(morsels.insert(morsel).second) << "duplicate morsel";
  });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
  // Morsel indices are dense 0..k-1.
  size_t expected = n == 0 ? 0 : (n + morsel_size - 1) / morsel_size;
  EXPECT_EQ(morsels.size(), expected);
  if (!morsels.empty()) {
    EXPECT_EQ(*morsels.rbegin(), expected - 1);
  }
}

TEST(ParallelForTest, EmptyRange) { CheckCoverage(0, 4, 8); }
TEST(ParallelForTest, SingleElement) { CheckCoverage(1, 4, 8); }
TEST(ParallelForTest, OddSizedRange) { CheckCoverage(1237, 4, 100); }
TEST(ParallelForTest, MorselLargerThanRange) { CheckCoverage(5, 8, 1000); }
TEST(ParallelForTest, SerialDegenerate) { CheckCoverage(100, 1, 7); }
TEST(ParallelForTest, MoreThreadsThanMorsels) { CheckCoverage(10, 16, 4); }

TEST(ParallelForTest, PropagatesException) {
  ExecContext ctx;
  ctx.num_threads = 4;
  ctx.morsel_size = 1;
  EXPECT_THROW(
      ParallelFor(ctx, 64,
                  [](size_t, size_t morsel, size_t, size_t) {
                    if (morsel == 7) throw std::runtime_error("morsel 7 died");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, LowestFailingMorselWins) {
  // Several morsels throw; the rethrown error must be the lowest-indexed one
  // so failures are deterministic regardless of scheduling.
  ExecContext ctx;
  ctx.num_threads = 8;
  ctx.morsel_size = 1;
  for (int round = 0; round < 10; ++round) {
    try {
      ParallelFor(ctx, 100, [](size_t, size_t morsel, size_t, size_t) {
        if (morsel == 13 || morsel == 57 || morsel == 90) {
          throw std::runtime_error("morsel " + std::to_string(morsel));
        }
      });
      FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "morsel 13");
    }
  }
}

TEST(ParallelForTest, NestedCallRunsInline) {
  // ParallelFor issued from inside a pool worker must not deadlock; it
  // degrades to inline execution on the calling thread.
  ExecContext ctx;
  ctx.num_threads = 4;
  ctx.morsel_size = 2;
  std::atomic<size_t> total{0};
  ParallelFor(ctx, 8, [&](size_t, size_t, size_t begin, size_t end) {
    ParallelFor(ctx, 10, [&](size_t, size_t, size_t b, size_t e) {
      total.fetch_add((e - b) * (end - begin));
    });
  });
  EXPECT_EQ(total.load(), 80u);
}

// ---------------------------------------------------------------------------
// Stats merging

TEST(StatsMergeTest, CountersAndPhasesSum) {
  core::SSJoinStats a, b;
  a.candidate_pairs = 3;
  a.result_pairs = 2;
  a.equijoin_rows = 10;
  a.phases.Add("SSJoin", 1.5);
  b.candidate_pairs = 4;
  b.result_pairs = 1;
  b.r_prefix_elements = 7;
  b.phases.Add("SSJoin", 2.5);
  b.phases.Add("Prefix-filter", 1.0);
  a.Merge(b);
  EXPECT_EQ(a.candidate_pairs, 7u);
  EXPECT_EQ(a.result_pairs, 3u);
  EXPECT_EQ(a.equijoin_rows, 10u);
  EXPECT_EQ(a.r_prefix_elements, 7u);
  EXPECT_DOUBLE_EQ(a.phases.Millis("SSJoin"), 4.0);
  EXPECT_DOUBLE_EQ(a.phases.Millis("Prefix-filter"), 1.0);
}

// ---------------------------------------------------------------------------
// Determinism: N threads == 1 thread, bit for bit. The reference runs use a
// null ctx.exec: one thread and the default morsel size, i.e. a single scan.

constexpr core::SSJoinAlgorithm kAllAlgorithms[] = {
    core::SSJoinAlgorithm::kNaive, core::SSJoinAlgorithm::kBasic,
    core::SSJoinAlgorithm::kInvertedIndex, core::SSJoinAlgorithm::kPrefixFilter,
    core::SSJoinAlgorithm::kPrefixFilterInline};

struct Fixture {
  core::WeightVector weights;
  core::ElementOrder order;
  core::SetsRelation r;
  core::SetsRelation s;
};

Fixture RandomFixture(uint64_t seed, size_t universe, size_t r_groups,
                      size_t s_groups, bool unit_weights) {
  Rng rng(seed);
  Fixture f;
  f.weights.resize(universe);
  for (double& w : f.weights) {
    w = unit_weights ? 1.0 : 0.05 + rng.NextDouble() * 2.0;
  }
  f.order = core::ElementOrder::ByDecreasingWeight(f.weights);
  auto make_docs = [&](size_t n) {
    std::vector<std::vector<text::TokenId>> docs(n);
    for (auto& doc : docs) {
      size_t size = 1 + rng.Uniform(12);
      for (size_t i = 0; i < size; ++i) {
        doc.push_back(static_cast<text::TokenId>(rng.Uniform(universe)));
      }
    }
    return docs;
  };
  f.r = *core::BuildSetsRelation(make_docs(r_groups), f.weights);
  f.s = *core::BuildSetsRelation(make_docs(s_groups), f.weights);
  return f;
}

/// Exact equality of pair streams — r, s, and the overlap *bits*.
void ExpectPairsIdentical(const std::vector<core::SSJoinPair>& serial,
                          const std::vector<core::SSJoinPair>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].r, parallel[i].r) << "pair " << i;
    EXPECT_EQ(serial[i].s, parallel[i].s) << "pair " << i;
    EXPECT_EQ(serial[i].overlap, parallel[i].overlap)
        << "pair " << i << " overlap bits differ";
  }
}

void ExpectStatsIdentical(const core::SSJoinStats& serial,
                          const core::SSJoinStats& parallel) {
  EXPECT_EQ(serial.candidate_pairs, parallel.candidate_pairs);
  EXPECT_EQ(serial.result_pairs, parallel.result_pairs);
  EXPECT_EQ(serial.equijoin_rows, parallel.equijoin_rows);
  EXPECT_EQ(serial.r_prefix_elements, parallel.r_prefix_elements);
  EXPECT_EQ(serial.s_prefix_elements, parallel.s_prefix_elements);
  EXPECT_EQ(serial.pruned_groups_r, parallel.pruned_groups_r);
  EXPECT_EQ(serial.pruned_groups_s, parallel.pruned_groups_s);
}

class ParallelDeterminismTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelDeterminismTest, MatchesSerialAllAlgorithms) {
  const size_t threads = GetParam();
  for (uint64_t seed : {7u, 19u}) {
    for (bool unit : {false, true}) {
      Fixture f = RandomFixture(seed, /*universe=*/60, /*r_groups=*/120,
                                /*s_groups=*/90, unit);
      core::SSJoinContext serial_ctx{&f.weights, &f.order};
      ExecContext pctx;
      pctx.num_threads = threads;
      pctx.morsel_size = 8;  // small morsels -> many partitions
      core::SSJoinContext parallel_ctx{&f.weights, &f.order};
      parallel_ctx.exec = &pctx;
      for (auto pred : {core::OverlapPredicate::Absolute(2.0),
                        core::OverlapPredicate::TwoSidedNormalized(0.5)}) {
        for (core::SSJoinAlgorithm algorithm : kAllAlgorithms) {
          core::SSJoinStats serial_stats, parallel_stats;
          auto serial = core::ExecuteSSJoin(algorithm, f.r, f.s, pred,
                                            serial_ctx, &serial_stats);
          ASSERT_TRUE(serial.ok()) << serial.status().ToString();
          auto parallel = core::ExecuteSSJoin(algorithm, f.r, f.s, pred,
                                        parallel_ctx, &parallel_stats);
          ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
          ExpectPairsIdentical(*serial, *parallel);
          ExpectStatsIdentical(serial_stats, parallel_stats);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelDeterminismTest,
                         ::testing::Values(1, 2, 8));

TEST_P(ParallelDeterminismTest, MorselBoundariesDoNotAffectCsrOutput) {
  // The prefix filter builds per-morsel CSR stores and concatenates them;
  // the result must not depend on where the morsel boundaries fall.
  const size_t threads = GetParam();
  Fixture f = RandomFixture(29, /*universe=*/50, /*r_groups=*/100,
                            /*s_groups=*/80, false);
  core::SSJoinContext serial_ctx{&f.weights, &f.order};
  auto pred = core::OverlapPredicate::TwoSidedNormalized(0.5);
  core::SSJoinStats serial_stats;
  auto serial = core::ExecuteSSJoin(core::SSJoinAlgorithm::kPrefixFilterInline,
                                    f.r, f.s, pred, serial_ctx, &serial_stats);
  ASSERT_TRUE(serial.ok());
  for (size_t morsel_size : {1u, 3u, 17u, 1000u}) {
    ExecContext pctx;
    pctx.num_threads = threads;
    pctx.morsel_size = morsel_size;
    core::SSJoinContext pctx_join{&f.weights, &f.order};
    pctx_join.exec = &pctx;
    core::SSJoinStats parallel_stats;
    auto parallel =
        core::ExecuteSSJoin(core::SSJoinAlgorithm::kPrefixFilterInline, f.r,
                            f.s, pred, pctx_join, &parallel_stats);
    ASSERT_TRUE(parallel.ok()) << "morsel " << morsel_size;
    ExpectPairsIdentical(*serial, *parallel);
    ExpectStatsIdentical(serial_stats, parallel_stats);
  }
}

TEST_P(ParallelDeterminismTest, CsrAssembledRelationMatchesSerial) {
  // Relations assembled directly from raw CSR columns (the snapshot load
  // path) must behave identically to builder-produced ones at any thread
  // count.
  const size_t threads = GetParam();
  Fixture f = RandomFixture(31, 40, 60, 60, true);
  core::SetsRelation raw;
  raw.store = *core::SetStore::FromParts(
      f.r.store.offsets(), f.r.store.token_ids());
  raw.norms = f.r.norms;
  raw.set_weights = f.r.set_weights;
  ASSERT_TRUE(raw.store == f.r.store);

  core::SSJoinContext serial_ctx{&f.weights, &f.order};
  ExecContext pctx;
  pctx.num_threads = threads;
  pctx.morsel_size = 8;
  core::SSJoinContext parallel_ctx{&f.weights, &f.order};
  parallel_ctx.exec = &pctx;
  auto pred = core::OverlapPredicate::Absolute(2.0);
  for (core::SSJoinAlgorithm algorithm : kAllAlgorithms) {
    auto serial =
        core::ExecuteSSJoin(algorithm, f.r, f.s, pred, serial_ctx, nullptr);
    ASSERT_TRUE(serial.ok());
    auto parallel =
        core::ExecuteSSJoin(algorithm, raw, f.s, pred, parallel_ctx, nullptr);
    ASSERT_TRUE(parallel.ok());
    ExpectPairsIdentical(*serial, *parallel);
  }
}

TEST(ParallelSSJoinTest, NullExecFallsBackToSerial) {
  // A null ctx.exec is the default ExecContext: one thread, which runs every
  // morsel inline, with the same morsel split as an explicit context.
  Fixture f = RandomFixture(3, 40, 50, 50, true);
  core::SSJoinContext null_ctx{&f.weights, &f.order};
  ExecContext one_thread;
  core::SSJoinContext ctx{&f.weights, &f.order};
  ctx.exec = &one_thread;
  auto pred = core::OverlapPredicate::Absolute(2.0);
  obs::Counter& morsels = internal::MorselsDispatchedCounter();
  uint64_t before = morsels.value();
  auto result = core::ExecuteSSJoin(core::SSJoinAlgorithm::kPrefixFilterInline,
                                    f.r, f.s, pred, null_ctx);
  ASSERT_TRUE(result.ok());
  uint64_t null_morsels = morsels.value() - before;
  before = morsels.value();
  auto explicit_run = core::ExecuteSSJoin(
      core::SSJoinAlgorithm::kPrefixFilterInline, f.r, f.s, pred, ctx);
  ASSERT_TRUE(explicit_run.ok());
  EXPECT_GT(null_morsels, 0u);
  EXPECT_EQ(morsels.value() - before, null_morsels);
  ExpectPairsIdentical(*explicit_run, *result);
}

TEST(ParallelSSJoinTest, ValidationErrorsSurfaceInParallelPath) {
  Fixture f = RandomFixture(11, 40, 20, 20, true);
  ExecContext pctx;
  pctx.num_threads = 4;
  core::SSJoinContext ctx{&f.weights, nullptr};  // missing order
  ctx.exec = &pctx;
  auto result =
      core::ExecuteSSJoin(core::SSJoinAlgorithm::kPrefixFilter, f.r, f.s,
                    core::OverlapPredicate::Absolute(1.0), ctx);
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------------------------
// End-to-end: string joins through the parallel pipeline

TEST(ParallelStringJoinTest, JaccardMatchesSerial) {
  std::vector<std::string> data = {
      "Microsoft Corp Redmond WA",   "Mcrosoft Corp Redmond WA",
      "Oracle Corporation CA",       "Oracle Corp California",
      "International Business Mach", "Intl Business Machines NY",
      "Apple Inc Cupertino",         "Appel Inc Cupertino CA",
      "Sun Microsystems Santa Clara", "Sun Microsystem Sta Clara"};
  // Pad with noise rows so multiple morsels exist.
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    std::string row = "noise";
    for (int w = 0; w < 4; ++w) {
      row += " tok" + std::to_string(rng.Uniform(500));
    }
    data.push_back(row);
  }
  for (auto algorithm : {core::SSJoinAlgorithm::kBasic,
                         core::SSJoinAlgorithm::kPrefixFilterInline}) {
    simjoin::JoinExecution serial_exec{algorithm, false, {}};
    simjoin::JoinExecution parallel_exec{algorithm, false, {}};
    parallel_exec.exec.num_threads = 4;
    parallel_exec.exec.morsel_size = 16;
    simjoin::SimJoinStats serial_stats, parallel_stats;
    auto serial = simjoin::JaccardResemblanceJoin(data, data, 0.6, {},
                                                  serial_exec, &serial_stats);
    ASSERT_TRUE(serial.ok());
    auto parallel = simjoin::JaccardResemblanceJoin(
        data, data, 0.6, {}, parallel_exec, &parallel_stats);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(serial->size(), parallel->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*serial)[i].r, (*parallel)[i].r);
      EXPECT_EQ((*serial)[i].s, (*parallel)[i].s);
      EXPECT_EQ((*serial)[i].similarity, (*parallel)[i].similarity);
    }
    EXPECT_EQ(serial_stats.result_pairs, parallel_stats.result_pairs);
    EXPECT_EQ(serial_stats.ssjoin.candidate_pairs,
              parallel_stats.ssjoin.candidate_pairs);
    EXPECT_EQ(serial_stats.verifier_calls, parallel_stats.verifier_calls);
  }
}

TEST(ParallelStringJoinTest, EditJoinMatchesSerial) {
  std::vector<std::string> data;
  Rng rng(7);
  const char* streets[] = {"Main St", "Oak Ave", "Pine Rd", "Elm Blvd"};
  for (int i = 0; i < 150; ++i) {
    data.push_back(std::to_string(100 + rng.Uniform(900)) + " " +
                   streets[rng.Uniform(4)] + " Apt " +
                   std::to_string(rng.Uniform(50)));
  }
  simjoin::JoinExecution serial_exec{core::SSJoinAlgorithm::kPrefixFilter,
                                     false, {}};
  simjoin::JoinExecution parallel_exec = serial_exec;
  parallel_exec.exec.num_threads = 4;
  parallel_exec.exec.morsel_size = 8;
  simjoin::SimJoinStats serial_stats, parallel_stats;
  auto serial =
      simjoin::EditSimilarityJoin(data, data, 0.8, 3, serial_exec, &serial_stats);
  ASSERT_TRUE(serial.ok());
  auto parallel = simjoin::EditSimilarityJoin(data, data, 0.8, 3, parallel_exec,
                                              &parallel_stats);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->size(), parallel->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ((*serial)[i].r, (*parallel)[i].r);
    EXPECT_EQ((*serial)[i].s, (*parallel)[i].s);
    EXPECT_EQ((*serial)[i].similarity, (*parallel)[i].similarity);
  }
  EXPECT_EQ(serial_stats.verifier_calls, parallel_stats.verifier_calls);
}

}  // namespace
}  // namespace ssjoin::exec
