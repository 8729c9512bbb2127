#ifndef SSJOIN_FUZZ_SCENARIOS_H_
#define SSJOIN_FUZZ_SCENARIOS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "fuzz/reproducer.h"

namespace ssjoin::fuzz {

/// Outcome of replaying one differential check.
struct CheckResult {
  bool pass = true;
  /// First divergence, human-readable; empty when pass.
  std::string detail;
};

/// \brief The differential scenarios the harness drives. Each scenario
/// derives its entire workload deterministically from a Reproducer:
///
///  - `ssjoin_executors`      all 5 SSJoin executors at 1 and at N >= 2
///                            threads vs the naive cross-product oracle, over
///                            weighted multisets and predicates in all three
///                            overlap-norm forms.
///  - `edit_distance_joins`   EditDistanceJoin (SSJoin reduction) and
///                            GravanoEditDistanceJoin vs a cross-product
///                            banded-edit-distance oracle. Gravano must match
///                            exactly; the SSJoin reduction must be
///                            precision-exact everywhere and recall-exact
///                            wherever the Property 4 bound is >= 1 (its
///                            documented caveat regime).
///  - `edit_similarity_joins` same for EditSimilarityJoin /
///                            GravanoEditSimilarityJoin vs
///                            CrossProductEditSimilarityJoin.
///  - `jaccard_joins`         JaccardContainmentJoin, JaccardResemblanceJoin
///                            and CosineJoin vs cross-product oracles, exact.
///  - `ges_join`              GESJoin vs GESJoinBruteForce: every emitted
///                            pair must appear in the brute-force result with
///                            an identical similarity (precision is exact by
///                            construction; recall is empirical by design).
///  - `lookup_service`        LookupService (1-4 concurrent callers, two
///                            staggered passes each) vs
///                            fuzz::BruteForceLookup, bit-identical.
///  - `filtered_lookup`       MutableFuzzyIndex filtered lookups (the
///                            predicate tested per similarity candidate) under
///                            upsert/delete/seal/compact/reopen churn vs the
///                            exact post-filter oracle: the unfiltered
///                            lookup with unbounded k, records failing
///                            FilterPredicate::Matches dropped, truncated to
///                            k — bitwise identical, with the empty filter
///                            byte-identical to the unfiltered overload.
///  - `request_dispatch`      the request path from bytes to reply: every
///                            generated lookup line round-trips its fields
///                            through serve::ParseJsonObject, no strict
///                            prefix parses and its byte mutations parse
///                            deterministically; those lines, request lines
///                            for every op, an eighth of the mutations and
///                            raw adversarial lines then go through three
///                            serve::Handler setups (single service with the
///                            shard-server ops, read-only follower, 2-shard
///                            fan-out), each line getting exactly one reply:
///                            a JSON object with a boolean "ok", followed
///                            only by the lines or bytes its header
///                            announces.
///  - `kernel_diff`           every available kernel tier (gallop, simd,
///                            auto) vs the pinned scalar oracle across all
///                            kernel entry points, over adversarial span
///                            pairs: empty, length-1, all-equal runs,
///                            disjoint ranges, values straddling 2^16,
///                            SIMD-block-boundary lengths, and duplicate-
///                            token multisets. Counts, weighted overlaps
///                            (bitwise), matched-token sequences and probe
///                            orders must all be identical.
///  - `recall`                the approximate tier (kApprox, serial and
///                            parallel, plus kHybrid routing) vs the exact
///                            SSJoin oracle: output must be a subset with
///                            exact overlaps (precision 1.0), bitwise
///                            identical across thread counts, with recall at
///                            or above the drawn target_recall.
std::vector<std::string> AllScenarios();

/// Draws a random case for `scenario` from `seed`. Deterministic: equal
/// (scenario, seed) produce equal reproducers on every platform.
Reproducer GenerateCase(const std::string& scenario, uint64_t seed);

/// Replays the differential check a reproducer encodes. Unknown scenarios
/// and malformed parameters yield an error status (distinct from a failing
/// check, which yields pass=false).
Result<CheckResult> CheckCase(const Reproducer& repro);

/// Options for the fuzz loop.
struct FuzzOptions {
  uint64_t seeds = 100;
  uint64_t start_seed = 0;
  /// One scenario name, or "all".
  std::string scenario = "all";
  /// Directory reproducer files are written to; empty disables writing.
  std::string out_dir = ".";
  bool shrink = true;
  size_t max_shrink_checks = 4000;
  /// Stop after this many distinct failures (still counts the rest of the
  /// seed range as not-run).
  size_t max_failures = 5;
  bool verbose = false;
};

/// Aggregate outcome of a fuzz run.
struct FuzzReport {
  uint64_t cases_run = 0;
  uint64_t failures = 0;
  std::vector<std::string> reproducer_paths;
  std::string first_failure_detail;
};

/// \brief The differential fuzz loop: for each seed in
/// [start_seed, start_seed + seeds) and each selected scenario, generates a
/// case and replays its check; on failure, shrinks the workload with greedy
/// delta-debugging and writes a self-contained reproducer file
/// `<scenario>-seed<seed>.repro` into `out_dir`.
Result<FuzzReport> RunFuzz(const FuzzOptions& options);

}  // namespace ssjoin::fuzz

#endif  // SSJOIN_FUZZ_SCENARIOS_H_
