#ifndef SSJOIN_KERNELS_KERNELS_H_
#define SSJOIN_KERNELS_KERNELS_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

/// \file
/// \brief The single owner of the SSJoin hot inner loops.
///
/// The operator of Chaudhuri/Ganti/Kaushik spends nearly all of its time in
/// two loops: the sorted-span set intersection that verifies candidate pairs
/// (Overlap(s1, s2), Section 2) and the candidate equi-join that probes
/// prefix postings (Section 3.2). After the flat CSR SetStore both loops run
/// over contiguous uint32 columns, so they vectorize; this module provides
/// the one implementation of each, behind a runtime-dispatched tier:
///
///  - `scalar`  textbook two-pointer merge / linear probe. This tier is the
///              differential-fuzz oracle: every other tier must reproduce
///              its results bit-for-bit (counts, match order, and therefore
///              floating-point sums).
///  - `gallop`  exponential-search merge driven from the shorter span; wins
///              when span lengths are heavily skewed (a short probe against
///              a long posting list).
///  - `simd`    block all-vs-all compare (SSE2 4x4, AVX2 8x8 chosen by CPUID
///              at runtime) for the intersections, and an AVX2 gather-based
///              seen-epoch filter for the posting probe. Only available on
///              x86; `SetTier(kSimd)` fails loudly elsewhere.
///  - `auto`    per-call choice: gallop for skewed lengths, else simd when
///              available, else scalar.
///
/// Bit-identity contract (PR-1/PR-3 acceptance): all tiers emit matches in
/// ascending token order, so weighted sums accumulate in the same order and
/// compare equal bitwise. Inputs are sorted ascending; duplicates are
/// allowed and intersect with multiset min-multiplicity semantics (the SIMD
/// tier detects non-strict blocks and falls back to the scalar merge for the
/// affected window, preserving exact equivalence).
///
/// Dispatch is process-wide, observable (`kernels.tier.*` gauges,
/// `kernels.*` call/element counters) and overridable with the `--kernel`
/// tool flag or the `SSJOIN_KERNEL` environment variable; unknown names fail
/// loudly like `--algorithm` does.

namespace ssjoin::kernels {

/// Dispatch tier. kScalar/kGallop/kSimd name concrete implementations;
/// kAuto picks per call.
enum class Tier : uint8_t { kScalar = 0, kGallop = 1, kSimd = 2, kAuto = 3 };

/// Stable lowercase name ("scalar", "gallop", "simd", "auto").
const char* TierName(Tier t);

/// Parses a tier name; unknown names yield an invalid-argument status that
/// lists the valid spellings (mirrors ParseAlgorithm's loud failure).
Result<Tier> ParseTier(std::string_view name);

/// True when `t` can be selected on this build/CPU. kScalar, kGallop and
/// kAuto are always available; kSimd requires x86.
bool TierAvailable(Tier t);

/// The concrete tiers available on this machine, scalar first. Tests and
/// the fuzz harness iterate this to differentially check every tier.
std::vector<Tier> AvailableTiers();

/// Sets the process-wide requested tier. Fails (without changing the
/// active tier) when the tier is unavailable on this build.
Status SetTier(Tier t);

/// The currently requested tier (default kAuto, unless SSJOIN_KERNEL
/// overrode it).
Tier CurrentTier();

/// The concrete tier `CurrentTier()` resolves to for balanced inputs —
/// what the `kernels.tier.<name>` gauge reports as active.
const char* ActiveTierName();

/// Applies the SSJOIN_KERNEL environment variable, if set. Invalid values
/// are an error; tools call this before their first join so the failure is
/// a clean exit rather than the lazy-init abort.
Status InitFromEnv();

/// Pre-creates the kernels.* counters and publishes the dispatch gauges so
/// they appear in metric dumps before the first join.
void RegisterKernelMetrics();

/// \brief Kernel work counts held back from the shared `kernels.*`
/// counters. The entry points below that are handed a tally add their
/// counts to it instead of making two process-wide atomic adds per call,
/// and `Flush` adds the totals once. Executors keep one per worker and
/// flush it at the end of each morsel, so the shared counters see one add
/// per morsel, and their totals equal the per-call counting's at every
/// tier and thread count. A null tally counts straight into the shared
/// counters.
struct KernelTally {
  uint64_t intersect_calls = 0;
  uint64_t intersect_elements = 0;
  uint64_t intersect_pruned = 0;
  uint64_t probe_calls = 0;
  uint64_t probe_rows = 0;
  uint64_t accumulate_calls = 0;
  uint64_t accumulate_rows = 0;

  /// Adds the pending counts to `kernels.intersect.{calls,elements,pruned}`,
  /// `kernels.probe.{calls,rows}` and `kernels.accumulate.{calls,rows}`, and
  /// zeroes them.
  void Flush();
};

/// \name Sorted-span intersection
/// Spans must be sorted ascending; duplicates allowed (multiset
/// min-multiplicity). TokenId and GroupId are both uint32_t, so these
/// accept either column type.
/// @{

/// |a ∩ b|.
size_t IntersectCount(std::span<const uint32_t> a, std::span<const uint32_t> b,
                      KernelTally* tally = nullptr);

/// Σ weights[t] over t ∈ a ∩ b, accumulated in ascending token order (the
/// order every executor relies on for bit-equal parallel output).
double IntersectWeighted(std::span<const uint32_t> a,
                         std::span<const uint32_t> b, const double* weights);

/// As above; also reports |a ∩ b| (the prefix-filter verify loop needs the
/// "did anything intersect" bit alongside the overlap).
double IntersectWeighted(std::span<const uint32_t> a,
                         std::span<const uint32_t> b, const double* weights,
                         size_t* match_count, KernelTally* tally = nullptr);

/// Writes the matched tokens, in ascending order, to `out` (caller provides
/// at least min(|a|, |b|) slots). Returns the match count.
size_t IntersectTokens(std::span<const uint32_t> a, std::span<const uint32_t> b,
                       uint32_t* out, KernelTally* tally = nullptr);

/// Weighted overlap against a SetStore element-weight column: the weight of
/// a match is read from `a_weights` at the matched position in `a` (branch-
/// free accumulation in the scalar tier). `a_weights.size() == a.size()`.
double IntersectWeightedCols(std::span<const uint32_t> a,
                             std::span<const double> a_weights,
                             std::span<const uint32_t> b);
/// @}

/// \name Posting-list probe (candidate equi-join)
/// @{

/// Appends each group in `postings` not yet seen this `epoch` to `out` and
/// marks it seen. Returns the number appended. Append order is postings
/// order (identical across tiers).
size_t ProbePostings(std::span<const uint32_t> postings, uint32_t epoch,
                     uint32_t* seen_epoch, std::vector<uint32_t>* out,
                     KernelTally* tally = nullptr);

/// Weighted accumulate probe: `acc[g] += weight` for each posting, zeroing
/// `acc[g]` and recording g in `touched` on first touch this epoch. One
/// scalar implementation serves every tier: the loop is a gather-modify-
/// scatter with no x86 scatter instruction to vectorize it, and it is
/// memory-bound, so all tiers share it (trivially bit-identical).
void AccumulatePostings(std::span<const uint32_t> postings, double weight,
                        uint32_t epoch, uint32_t* seen_epoch, double* acc,
                        std::vector<uint32_t>* touched, KernelTally* tally = nullptr);
/// @}

/// \name Marked-set overlap (batch verify)
/// @{

/// \brief Per-worker scratch that verifies one set `a` against many
/// candidate sets: `Mark(a)` stamps a's elements once, then each
/// `OverlapAtLeast(b, ...)` walks only `b`, adding `weights[t]` for every
/// marked `t` in ascending token order.
///
/// That is the order the sorted merge adds matches in, and a miss adds
/// nothing, so an overlap returned here is bit-equal to
/// `IntersectWeightedTier(kScalar, a, b, weights)`. `a` and `b` must be
/// sorted ascending and duplicate-free (canonical `SetsRelation` sets are);
/// weights must be non-negative. One scalar implementation serves every
/// tier, as for `AccumulatePostings`: the loop is one dependent load per
/// element of `b`, with nothing for a block compare to batch.
///
/// Marks are epoch-stamped, so `Mark` costs |a| and never clears the
/// table, except once every 2^32 - 1 marks when the epoch wraps.
///
/// Work counts accumulate in a KernelTally; `Flush` adds them to
/// `kernels.intersect.{calls,elements,pruned}`. Callers flush once per
/// morsel, so the shared counters see one add per morsel instead of two
/// per candidate. Every count is a function of the inputs alone, the same
/// at every tier and thread count.
class MarkedSet {
 public:
  /// Binds the weight column and sizes the marks to cover its ids
  /// [0, weights.size()). Cheap when already bound to a column that long;
  /// `weights` must outlive every later call.
  void Bind(std::span<const double> weights);

  /// Makes `a` the marked set, replacing the previous one.
  void Mark(std::span<const uint32_t> a);

  /// The overlap of the marked set and `b`, unless it falls below `floor`.
  ///
  /// Returns true and writes the overlap to `*overlap` when the overlap is
  /// at least `floor` (and also some overlaps just below it). Returns false
  /// ("below"), leaving `*overlap` untouched, only when the overlap is
  /// below `floor`: it stops reading `b` as soon as the running overlap plus
  /// the weight left in `b` cannot reach `floor`. `wt_b` is b's set weight,
  /// summed in any order. A `floor` of 0 or less never prunes.
  bool OverlapAtLeast(std::span<const uint32_t> b, double wt_b, double floor,
                      double* overlap);

  /// Adds the pending counts to the shared counters and zeroes them:
  /// `OverlapAtLeast` calls to kernels.intersect.calls; elements read (|a|
  /// per `Mark`, plus the elements of `b` each call read before it
  /// returned) to kernels.intersect.elements; calls that returned "below"
  /// to kernels.intersect.pruned.
  void Flush() { tally_.Flush(); }

  /// Sets the epoch the next `Mark` increments, so tests can reach the
  /// wrap without 2^32 marks.
  void SetEpochForTesting(uint32_t epoch) { epoch_ = epoch; }

 private:
  const double* weights_ = nullptr;
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;
  KernelTally tally_;
};
/// @}

/// \name Explicit-tier entry points
/// Differential testing and the `kernel_diff` fuzz scenario call these to
/// pin a concrete tier regardless of the process-wide setting. kAuto
/// resolves per call like the public entry points.
/// @{
size_t IntersectCountTier(Tier t, std::span<const uint32_t> a,
                          std::span<const uint32_t> b, KernelTally* tally = nullptr);
double IntersectWeightedTier(Tier t, std::span<const uint32_t> a,
                             std::span<const uint32_t> b,
                             const double* weights, size_t* match_count,
                             KernelTally* tally = nullptr);
size_t IntersectTokensTier(Tier t, std::span<const uint32_t> a,
                           std::span<const uint32_t> b, uint32_t* out,
                           KernelTally* tally = nullptr);
double IntersectWeightedColsTier(Tier t, std::span<const uint32_t> a,
                                 std::span<const double> a_weights,
                                 std::span<const uint32_t> b);
size_t ProbePostingsTier(Tier t, std::span<const uint32_t> postings,
                         uint32_t epoch, uint32_t* seen_epoch,
                         std::vector<uint32_t>* out, KernelTally* tally = nullptr);
/// @}

}  // namespace ssjoin::kernels

#endif  // SSJOIN_KERNELS_KERNELS_H_
