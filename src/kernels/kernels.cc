#include "kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "kernels/internal.h"
#include "obs/metrics.h"

namespace ssjoin::kernels {

namespace {

using internal::ColsEmit;
using internal::CountEmit;
using internal::GallopIntersect;
using internal::ScalarMergeFrom;
using internal::TokensEmit;
using internal::WeightedEmit;

std::atomic<Tier> g_requested{Tier::kAuto};

/// Set once SetTier/InitFromEnv ran. A --kernel flag applied before the
/// first kernel call must not be clobbered by the lazy env pickup: flag
/// beats env.
std::atomic<bool> g_configured{false};

/// One span at least this many times longer than the other sends an `auto`
/// intersection to the gallop tier; balanced lengths go to simd/scalar.
constexpr size_t kGallopSkew = 32;

struct KernelCounters {
  obs::Counter* intersect_calls;
  obs::Counter* intersect_elements;
  obs::Counter* intersect_pruned;
  obs::Counter* probe_calls;
  obs::Counter* probe_rows;
  obs::Counter* accumulate_calls;
  obs::Counter* accumulate_rows;
};

KernelCounters& Counters() {
  static KernelCounters c = [] {
    auto& reg = obs::Registry::Global();
    return KernelCounters{
        reg.GetCounter("kernels.intersect.calls"),
        reg.GetCounter("kernels.intersect.elements"),
        reg.GetCounter("kernels.intersect.pruned"),
        reg.GetCounter("kernels.probe.calls"),
        reg.GetCounter("kernels.probe.rows"),
        reg.GetCounter("kernels.accumulate.calls"),
        reg.GetCounter("kernels.accumulate.rows"),
    };
  }();
  return c;
}

bool SimdSupported() {
#ifdef SSJOIN_KERNELS_X86
  return true;
#else
  return false;
#endif
}

/// The concrete tier `requested` uses for balanced inputs (what the gauges
/// report; the per-call resolution below may still pick gallop for skew).
Tier PrimaryTier(Tier requested) {
  if (requested == Tier::kAuto) {
    return SimdSupported() ? Tier::kSimd : Tier::kScalar;
  }
  return requested;
}

void PublishTierGauges(Tier requested) {
  auto& reg = obs::Registry::Global();
  const Tier primary = PrimaryTier(requested);
  reg.GetGauge("kernels.tier.scalar")->Set(primary == Tier::kScalar ? 1 : 0);
  reg.GetGauge("kernels.tier.gallop")->Set(primary == Tier::kGallop ? 1 : 0);
  reg.GetGauge("kernels.tier.simd")->Set(primary == Tier::kSimd ? 1 : 0);
  reg.GetGauge("kernels.simd.available")->Set(SimdSupported() ? 1 : 0);
#ifdef SSJOIN_KERNELS_X86
  reg.GetGauge("kernels.simd.avx2")->Set(internal::SimdHasAvx2() ? 1 : 0);
#else
  reg.GetGauge("kernels.simd.avx2")->Set(0);
#endif
}

/// Lazy SSJOIN_KERNEL pickup for entry points that don't go through a tool
/// main (tests, benches under ctest). Invalid values abort loudly: a typo'd
/// override silently falling back to auto would invalidate a differential
/// run.
void EnsureInitFromEnv() {
  static const bool once = [] {
    if (g_configured.load(std::memory_order_relaxed)) return true;
    Status s = InitFromEnv();
    if (!s.ok()) {
      std::fprintf(stderr, "ssjoin: %s\n", s.ToString().c_str());
      std::abort();
    }
    return true;
  }();
  (void)once;
}

/// Counts one intersection call reading `elements` elements: into `tally`
/// when given, else straight into the shared counters.
void CountIntersect(KernelTally* tally, size_t elements) {
  if (tally != nullptr) {
    ++tally->intersect_calls;
    tally->intersect_elements += elements;
    return;
  }
  KernelCounters& c = Counters();
  c.intersect_calls->Add(1);
  c.intersect_elements->Add(elements);
}

/// Per-call tier resolution. Concrete requests are honored as-is (the
/// differential contract: `--kernel gallop` means gallop everywhere); auto
/// picks gallop for skewed lengths, else the widest available path.
Tier ResolveIntersect(Tier requested, size_t na, size_t nb) {
  if (requested != Tier::kAuto) return requested;
  const size_t lo = na < nb ? na : nb;
  const size_t hi = na < nb ? nb : na;
  if (hi / kGallopSkew > lo) return Tier::kGallop;
  return SimdSupported() ? Tier::kSimd : Tier::kScalar;
}

}  // namespace

const char* TierName(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kGallop:
      return "gallop";
    case Tier::kSimd:
      return "simd";
    case Tier::kAuto:
      return "auto";
  }
  return "unknown";
}

Result<Tier> ParseTier(std::string_view name) {
  if (name == "scalar") return Tier::kScalar;
  if (name == "gallop") return Tier::kGallop;
  if (name == "simd") return Tier::kSimd;
  if (name == "auto") return Tier::kAuto;
  return Status::Invalid("unknown kernel tier '" + std::string(name) +
                         "' (valid: scalar, gallop, simd, auto)");
}

bool TierAvailable(Tier t) {
  if (t == Tier::kSimd) return SimdSupported();
  return true;
}

std::vector<Tier> AvailableTiers() {
  std::vector<Tier> tiers = {Tier::kScalar, Tier::kGallop};
  if (SimdSupported()) tiers.push_back(Tier::kSimd);
  return tiers;
}

Status SetTier(Tier t) {
  if (!TierAvailable(t)) {
    return Status::Invalid(std::string("kernel tier '") + TierName(t) +
                           "' is not available on this build (no x86 SIMD)");
  }
  g_requested.store(t, std::memory_order_relaxed);
  g_configured.store(true, std::memory_order_relaxed);
  PublishTierGauges(t);
  return Status::OK();
}

Tier CurrentTier() {
  EnsureInitFromEnv();
  return g_requested.load(std::memory_order_relaxed);
}

const char* ActiveTierName() { return TierName(PrimaryTier(CurrentTier())); }

Status InitFromEnv() {
  const char* v = std::getenv("SSJOIN_KERNEL");
  if (v == nullptr || *v == '\0') {
    g_configured.store(true, std::memory_order_relaxed);
    PublishTierGauges(g_requested.load(std::memory_order_relaxed));
    return Status::OK();
  }
  auto parsed = ParseTier(v);
  if (!parsed.ok()) {
    return Status::Invalid("SSJOIN_KERNEL: " + parsed.status().message());
  }
  return SetTier(*parsed);
}

void RegisterKernelMetrics() {
  Counters();
  PublishTierGauges(g_requested.load(std::memory_order_relaxed));
}

size_t IntersectCount(std::span<const uint32_t> a,
                      std::span<const uint32_t> b, KernelTally* tally) {
  return IntersectCountTier(CurrentTier(), a, b, tally);
}

double IntersectWeighted(std::span<const uint32_t> a,
                         std::span<const uint32_t> b, const double* weights) {
  return IntersectWeightedTier(CurrentTier(), a, b, weights, nullptr);
}

double IntersectWeighted(std::span<const uint32_t> a,
                         std::span<const uint32_t> b, const double* weights,
                         size_t* match_count, KernelTally* tally) {
  return IntersectWeightedTier(CurrentTier(), a, b, weights, match_count, tally);
}

size_t IntersectTokens(std::span<const uint32_t> a, std::span<const uint32_t> b,
                       uint32_t* out, KernelTally* tally) {
  return IntersectTokensTier(CurrentTier(), a, b, out, tally);
}

double IntersectWeightedCols(std::span<const uint32_t> a,
                             std::span<const double> a_weights,
                             std::span<const uint32_t> b) {
  return IntersectWeightedColsTier(CurrentTier(), a, a_weights, b);
}

size_t ProbePostings(std::span<const uint32_t> postings, uint32_t epoch,
                     uint32_t* seen_epoch, std::vector<uint32_t>* out,
                     KernelTally* tally) {
  return ProbePostingsTier(CurrentTier(), postings, epoch, seen_epoch, out, tally);
}

void AccumulatePostings(std::span<const uint32_t> postings, double weight,
                        uint32_t epoch, uint32_t* seen_epoch, double* acc,
                        std::vector<uint32_t>* touched, KernelTally* tally) {
  if (tally != nullptr) {
    ++tally->accumulate_calls;
    tally->accumulate_rows += postings.size();
  } else {
    KernelCounters& c = Counters();
    c.accumulate_calls->Add(1);
    c.accumulate_rows->Add(postings.size());
  }
  for (const uint32_t g : postings) {
    if (seen_epoch[g] != epoch) {
      seen_epoch[g] = epoch;
      acc[g] = 0.0;
      touched->push_back(g);
    }
    acc[g] += weight;
  }
}

void MarkedSet::Bind(std::span<const double> weights) {
  weights_ = weights.data();
  if (stamps_.size() < weights.size()) stamps_.resize(weights.size(), 0);
}

void MarkedSet::Mark(std::span<const uint32_t> a) {
  if (++epoch_ == 0) {  // wrapped: stale stamps could alias, clear them
    std::fill(stamps_.begin(), stamps_.end(), 0);
    epoch_ = 1;
  }
  for (const uint32_t t : a) stamps_[t] = epoch_;
  tally_.intersect_elements += a.size();
}

bool MarkedSet::OverlapAtLeast(std::span<const uint32_t> b, double wt_b,
                               double floor, double* overlap) {
  ++tally_.intersect_calls;
  const uint32_t* stamps = stamps_.data();
  const double* w = weights_;
  const uint32_t epoch = epoch_;
  const size_t n = b.size();
  double sum = 0.0;
  if (!(floor > 0.0)) {
    for (const uint32_t t : b) sum += stamps[t] == epoch ? w[t] : 0.0;
    tally_.intersect_elements += n;
    *overlap = sum;
    return true;
  }
  // Prune when sum + rem < need, where rem is wt_b minus the weights read so
  // far. With u = 2^-53 and T the exact weight of b, three roundings stand
  // between that test and the exact overlap S the loop would finish with:
  // wt_b is off T by at most n*u*T, each of the n subtractions from rem
  // adds at most u*T more, and the additions still ahead can raise the sum
  // by a factor of at most (1 + n*u). Rounding is monotone and `need` is a
  // double, so fl(sum + rem) < need implies sum + rem < need exactly, and
  // then S <= (need + 2*n*u*T) * (1 + n*u). Computing `need` itself rounds
  // by u*floor. A margin of (n + 2) * 2^-50 * (floor + wt_b) is four times
  // all of that, so S < floor whenever this returns "below". NaN or
  // infinite inputs make every comparison false: nothing is pruned.
  const double need =
      floor - static_cast<double>(n + 2) * 0x1p-50 * (floor + wt_b);
  double rem = wt_b;
  if (rem < need) {
    ++tally_.intersect_pruned;
    return false;
  }
  for (size_t k = 0; k < n; ++k) {
    const uint32_t t = b[k];
    const double wt = w[t];
    rem -= wt;
    if (stamps[t] == epoch) {
      sum += wt;
    } else if (sum + rem < need) {  // only a miss can lower sum + rem
      tally_.intersect_elements += k + 1;
      ++tally_.intersect_pruned;
      return false;
    }
  }
  tally_.intersect_elements += n;
  *overlap = sum;
  return true;
}

void KernelTally::Flush() {
  KernelCounters& c = Counters();
  const std::pair<obs::Counter*, uint64_t*> pending[] = {
      {c.intersect_calls, &intersect_calls},   {c.intersect_elements, &intersect_elements},
      {c.intersect_pruned, &intersect_pruned}, {c.probe_calls, &probe_calls},
      {c.probe_rows, &probe_rows},             {c.accumulate_calls, &accumulate_calls},
      {c.accumulate_rows, &accumulate_rows},
  };
  for (const auto& [counter, count] : pending) {
    if (*count != 0) counter->Add(*count);
    *count = 0;
  }
}

size_t IntersectCountTier(Tier t, std::span<const uint32_t> a,
                          std::span<const uint32_t> b, KernelTally* tally) {
  CountIntersect(tally, a.size() + b.size());
  t = ResolveIntersect(t, a.size(), b.size());
#ifdef SSJOIN_KERNELS_X86
  if (t == Tier::kSimd) {
    return internal::SimdIntersectCount(a.data(), a.size(), b.data(),
                                        b.size());
  }
#endif
  if (t == Tier::kGallop) {
    CountEmit e;
    GallopIntersect(a.data(), a.size(), b.data(), b.size(), e);
    return e.count;
  }
  CountEmit e;
  ScalarMergeFrom(a.data(), a.size(), 0, b.data(), b.size(), 0, e);
  return e.count;
}

double IntersectWeightedTier(Tier t, std::span<const uint32_t> a,
                             std::span<const uint32_t> b,
                             const double* weights, size_t* match_count,
                             KernelTally* tally) {
  CountIntersect(tally, a.size() + b.size());
  t = ResolveIntersect(t, a.size(), b.size());
#ifdef SSJOIN_KERNELS_X86
  if (t == Tier::kSimd) {
    return internal::SimdIntersectWeighted(a.data(), a.size(), b.data(),
                                           b.size(), weights, match_count);
  }
#endif
  WeightedEmit e{weights};
  if (t == Tier::kGallop) {
    GallopIntersect(a.data(), a.size(), b.data(), b.size(), e);
  } else {
    ScalarMergeFrom(a.data(), a.size(), 0, b.data(), b.size(), 0, e);
  }
  if (match_count != nullptr) *match_count = e.count;
  return e.sum;
}

size_t IntersectTokensTier(Tier t, std::span<const uint32_t> a,
                           std::span<const uint32_t> b, uint32_t* out,
                           KernelTally* tally) {
  CountIntersect(tally, a.size() + b.size());
  t = ResolveIntersect(t, a.size(), b.size());
#ifdef SSJOIN_KERNELS_X86
  if (t == Tier::kSimd) {
    return internal::SimdIntersectTokens(a.data(), a.size(), b.data(),
                                         b.size(), out);
  }
#endif
  TokensEmit e{out};
  if (t == Tier::kGallop) {
    GallopIntersect(a.data(), a.size(), b.data(), b.size(), e);
  } else {
    ScalarMergeFrom(a.data(), a.size(), 0, b.data(), b.size(), 0, e);
  }
  return e.count;
}

double IntersectWeightedColsTier(Tier t, std::span<const uint32_t> a,
                                 std::span<const double> a_weights,
                                 std::span<const uint32_t> b) {
  CountIntersect(nullptr, a.size() + b.size());
  t = ResolveIntersect(t, a.size(), b.size());
#ifdef SSJOIN_KERNELS_X86
  if (t == Tier::kSimd) {
    return internal::SimdIntersectWeightedCols(a.data(), a_weights.data(),
                                               a.size(), b.data(), b.size());
  }
#endif
  if (t == Tier::kGallop) {
    ColsEmit e{a_weights.data()};
    GallopIntersect(a.data(), a.size(), b.data(), b.size(), e);
    return e.sum;
  }
  // The branch-free scalar accumulation the SetStore weight columns were
  // laid out for: both cursors advance by comparison outcome and the weight
  // contributes under a mask, with no unpredictable branch in the loop.
  const size_t na = a.size();
  const size_t nb = b.size();
  size_t i = 0;
  size_t j = 0;
  double sum = 0.0;
  while (i < na && j < nb) {
    const uint32_t av = a[i];
    const uint32_t bv = b[j];
    sum += (av == bv) ? a_weights[i] : 0.0;
    i += (av <= bv) ? 1 : 0;
    j += (bv <= av) ? 1 : 0;
  }
  return sum;
}

size_t ProbePostingsTier(Tier t, std::span<const uint32_t> postings,
                         uint32_t epoch, uint32_t* seen_epoch,
                         std::vector<uint32_t>* out, KernelTally* tally) {
  if (tally != nullptr) {
    ++tally->probe_calls;
    tally->probe_rows += postings.size();
  } else {
    KernelCounters& c = Counters();
    c.probe_calls->Add(1);
    c.probe_rows->Add(postings.size());
  }
  if (t == Tier::kAuto) t = PrimaryTier(t);
#ifdef SSJOIN_KERNELS_X86
  if (t == Tier::kSimd) {
    return internal::SimdProbePostings(postings.data(), postings.size(), epoch,
                                       seen_epoch, out);
  }
#endif
  // The gallop tier has no distinct probe shape; it shares the scalar loop.
  return internal::ScalarProbePostings(postings.data(), postings.size(), epoch,
                                       seen_epoch, out);
}

}  // namespace ssjoin::kernels
