/// The batch-join workload: an edit-similarity self-join of seeded address
/// records driven in-process through the simjoin public entry point. The
/// traced run reads the simjoin and core figures from the entry point's own
/// SimJoinStats and splits Prep into its text and core calls in a separate
/// prep-only pass.

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/timer.h"
#include "core/order.h"
#include "core/sets.h"
#include "datagen/address_gen.h"
#include "obs/metrics.h"
#include "simjoin/string_joins.h"
#include "text/dictionary.h"
#include "text/tokenizer.h"

namespace perfbench {
namespace {

using namespace ssjoin;

constexpr size_t kExecThreads = 2;
/// Records per tokenize / encode span in the traced prep pass.
constexpr size_t kSpanChunk = 4096;

/// join_edit_8k: 8K address-only records, q-grams of 3, edit similarity
/// at least 0.85.
constexpr size_t kRecords = 8000;
constexpr size_t kQ = 3;
constexpr double kAlpha = 0.85;

/// Each run joins kCorpora corpora of kRecords records, in turn. One seed's
/// corpora differ in cost by up to ~10%, so rotating over several keeps a
/// run's median join time from resting on one draw.
constexpr size_t kCorpora = 4;

/// The datagen seed of corpus k of a run; corpus 0 uses the run's seed.
uint64_t CorpusSeed(uint64_t seed, size_t k) {
  return seed + static_cast<uint64_t>(k) * 0x9e3779b97f4a7c15ULL;
}

/// Result digests pinned when the benchmark was written, each cross-checked
/// then against the kPrefixFilter executor. Other seeds are checked against
/// kPrefixFilter runs made at the end of the run.
std::optional<PairDigest> PinnedDigest(uint64_t seed, size_t corpus) {
  struct Pin {
    uint64_t seed;
    size_t corpus;
    uint64_t count;
    uint64_t sum;
  };
  static const std::vector<Pin> kPins = {
#include "pinned_digests.inc"
  };
  for (const Pin& p : kPins) {
    if (seed == p.seed && corpus == p.corpus) return PairDigest{p.count, p.sum};
  }
  return std::nullopt;
}

simjoin::JoinExecution Execution(core::SSJoinAlgorithm algorithm) {
  simjoin::JoinExecution exec;
  exec.algorithm = algorithm;
  exec.exec.num_threads = kExecThreads;
  return exec;
}

PairDigest DigestOf(const std::vector<simjoin::MatchPair>& pairs) {
  PairDigest d;
  for (const simjoin::MatchPair& p : pairs) d.Add(p.r, p.s);
  return d;
}

/// One call of the public entry point, the unit the end-to-end metrics time.
Result<std::vector<simjoin::MatchPair>> PublicJoin(const std::vector<std::string>& records,
                                                   core::SSJoinAlgorithm algorithm) {
  return simjoin::EditSimilarityJoin(records, records, kAlpha, kQ, Execution(algorithm));
}

/// Registry counters whose per-join deltas are reported.
const char* const kCounterNames[] = {
    "exec.worker_busy_us",      "exec.worker_idle_us",
    "exec.morsels_dispatched",  "kernels.intersect.calls",
    "kernels.intersect.elements", "kernels.probe.rows",
    "kernels.accumulate.rows",
};

std::map<std::string, double> ReadCounters() {
  std::map<std::string, double> out;
  for (const char* name : kCounterNames) {
    out[name] = static_cast<double>(obs::Registry::Global().GetCounter(name)->value());
  }
  return out;
}

/// Per-layer figures of one traced join.
using LayerSample = std::map<std::string, double>;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// One traced join: the public entry point with its SimJoinStats, so the
/// simjoin and core figures are the library's own phase record (Prep,
/// Prefix-filter, SSJoin, Filter) and SSJoin counts. The phases run one
/// after another, so they become back-to-back child spans of the join from
/// its start; the gaps between them are the join's own self time.
Result<std::vector<simjoin::MatchPair>> TracedJoin(const std::vector<std::string>& records,
                                                   Tracer* tracer, uint64_t request_id,
                                                   LayerSample* sample) {
  std::map<std::string, double> before = ReadCounters();
  simjoin::SimJoinStats stats;
  int64_t start = tracer->Now();
  auto pairs = simjoin::EditSimilarityJoin(
      records, records, kAlpha, kQ, Execution(core::SSJoinAlgorithm::kPrefixFilterInline),
      &stats);
  int64_t root = tracer->Add("simjoin.join", start, tracer->Now(), -1, request_id);
  std::map<std::string, double> after = ReadCounters();

  auto ns = [&](const char* phase) {
    return static_cast<int64_t>(stats.phases.Millis(phase) * 1e6);
  };
  int64_t t = start;
  tracer->Add("simjoin.prep", t, t + ns("Prep"), root, request_id);
  t += ns("Prep");
  int64_t ssjoin = tracer->Add("core.ssjoin", t, t + ns("Prefix-filter") + ns("SSJoin"),
                               root, request_id);
  tracer->Add("core.prefix_filter", t, t + ns("Prefix-filter"), ssjoin, request_id);
  t += ns("Prefix-filter") + ns("SSJoin");
  tracer->Add("simjoin.verify", t, t + ns("Filter"), root, request_id);

  for (const char* name : kCounterNames) (*sample)[name] = after[name] - before[name];
  double busy = (*sample)["exec.worker_busy_us"];
  double idle = (*sample)["exec.worker_idle_us"];
  (*sample)["exec.busy_share"] = Ratio(busy, busy + idle);
  (*sample)["simjoin.prep_us"] = stats.phases.Millis("Prep") * 1e3;
  (*sample)["simjoin.verify_us"] = stats.phases.Millis("Filter") * 1e3;
  (*sample)["core.prefix_filter_us"] = stats.phases.Millis("Prefix-filter") * 1e3;
  (*sample)["core.ssjoin_us"] =
      (stats.phases.Millis("Prefix-filter") + stats.phases.Millis("SSJoin")) * 1e3;
  auto verifier_calls = static_cast<double>(stats.verifier_calls);
  (*sample)["simjoin.verifier_calls"] = verifier_calls;
  (*sample)["simjoin.verify_pass_ratio"] =
      Ratio(static_cast<double>(stats.result_pairs), verifier_calls);
  const core::SSJoinStats& ss = stats.ssjoin;
  (*sample)["core.prefix_elements"] =
      static_cast<double>(ss.r_prefix_elements + ss.s_prefix_elements);
  (*sample)["core.candidate_pairs"] = static_cast<double>(ss.candidate_pairs);
  (*sample)["core.result_pairs"] = static_cast<double>(ss.result_pairs);
  (*sample)["core.candidate_precision"] = Ratio(static_cast<double>(ss.result_pairs),
                                                static_cast<double>(ss.candidate_pairs));
  return pairs;
}

/// The text/core split of Prep, which the library does not time: a separate
/// prep-only pass over the same records with a span around each public call
/// (Tokenize and EncodeDocument per chunk of records, the unit weights, the
/// element order, BuildSetsRelation). It is not part of the timed join.
Status TracedPrepPass(const std::vector<std::string>& records, Tracer* tracer,
                      uint64_t request_id, LayerSample* sample) {
  ScopedSpan root(tracer, "simjoin.prep_pass", -1, request_id);
  text::QGramTokenizer tokenizer(kQ);
  text::TokenDictionary dict;
  std::vector<std::vector<text::TokenId>> docs[2];
  double tokens = 0;
  for (auto& side : docs) {
    side.reserve(records.size());
    for (size_t begin = 0; begin < records.size(); begin += kSpanChunk) {
      size_t end = std::min(records.size(), begin + kSpanChunk);
      std::vector<std::vector<std::string>> chunk(end - begin);
      {
        ScopedSpan s(tracer, "text.tokenize", root.id(), request_id);
        for (size_t i = begin; i < end; ++i) chunk[i - begin] = tokenizer.Tokenize(records[i]);
      }
      ScopedSpan s(tracer, "text.encode", root.id(), request_id);
      for (const auto& toks : chunk) {
        tokens += static_cast<double>(toks.size());
        side.push_back(dict.EncodeDocument(toks));
      }
    }
  }
  core::WeightVector weights;
  {
    ScopedSpan s(tracer, "core.weights", root.id(), request_id);
    weights.assign(dict.num_elements(), 1.0);
  }
  {
    ScopedSpan s(tracer, "core.order", root.id(), request_id);
    core::ElementOrder order = core::ElementOrder::ByIncreasingFrequency(dict);
  }
  ScopedSpan s(tracer, "core.build_relation", root.id(), request_id);
  for (auto& side : docs) {
    SSJOIN_RETURN_NOT_OK(core::BuildSetsRelation(std::move(side), weights).status());
  }
  (*sample)["text.tokens"] = tokens;
  return Status::OK();
}

/// Span-derived figures of the traced joins and prep passes; a join's
/// request id is its index in `samples`. Self time per layer is summed over
/// the joins' spans only: the prep pass repeats work that the join's Prep
/// span already holds.
void AddSpanFigures(const std::vector<Span>& spans, std::vector<LayerSample>* samples) {
  static const std::map<std::string, std::string> kPassTotals = {
      {"text.tokenize", "text.tokenize_us"},   {"text.encode", "text.encode_us"},
      {"core.weights", "core.weights_us"},     {"core.order", "core.order_us"},
      {"core.build_relation", "core.build_relation_us"},
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::vector<bool> in_pass(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    in_pass[i] = s.parent >= 0 ? in_pass[s.parent] : s.name == "simjoin.prep_pass";
    LayerSample& sample = (*samples)[s.request_id];
    if (auto it = kPassTotals.find(s.name); it != kPassTotals.end()) {
      sample[it->second] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
    if (!in_pass[i]) sample[LayerOf(s.name) + ".self_us"] += static_cast<double>(self[i]) / 1e3;
  }
}

}  // namespace

RunResult RunJoinWorkload(const RunOptions& options) {
  RunResult result;
  std::vector<std::vector<std::string>> corpora;
  size_t bytes = 0;
  for (size_t k = 0; k < kCorpora; ++k) {
    datagen::AddressGenOptions gen;
    gen.num_records = kRecords;
    gen.duplicate_fraction = 0.25;
    gen.include_name = false;
    gen.seed = CorpusSeed(options.seed, k);
    corpora.push_back(datagen::GenerateAddresses(gen).records);
    for (const std::string& r : corpora.back()) bytes += r.size();
  }
  result.info.emplace_back("corpora", std::to_string(kCorpora));
  result.info.emplace_back("records_per_corpus", std::to_string(kRecords));
  result.info.emplace_back("input_bytes", std::to_string(bytes));
  result.info.emplace_back("join", JsonString("edit_similarity q=3 alpha=0.85 "
                                              "algorithm=prefix_filter_inline "
                                              "exec_threads=2 self-join"));

  // Join i runs on corpus i % kCorpora; every output is checked at the end.
  std::vector<std::pair<size_t, PairDigest>> digests;
  size_t joins = 0;
  auto record = [&](size_t k, const Result<std::vector<simjoin::MatchPair>>& pairs) {
    digests.emplace_back(k, pairs.ok() ? DigestOf(*pairs) : PairDigest{UINT64_MAX, 0});
  };
  auto public_join = [&](Phase* phase) {
    size_t k = joins++ % kCorpora;
    Timer t;
    auto pairs = PublicJoin(corpora[k], core::SSJoinAlgorithm::kPrefixFilterInline);
    double ms = t.ElapsedMillis();
    if (phase != nullptr) phase->latency_ms.push_back(ms);
    record(k, pairs);
    return ms;
  };

  // Set-up: one untimed warm-up join per corpus (first-touch allocation,
  // thread pool start, kernel dispatch); their median is setup_s.
  std::vector<double> setup_s;
  for (size_t k = 0; k < kCorpora; ++k) setup_s.push_back(public_join(nullptr) / 1e3);
  digests.clear();

  auto measure = [&](double seconds) {
    Phase phase;
    Timer window;
    do {
      public_join(&phase);
    } while (window.ElapsedMillis() < seconds * 1e3);
    phase.elapsed_s = window.ElapsedMillis() / 1e3;
    return phase;
  };

  std::vector<LayerSample> layer_samples;
  Phase untraced;
  if (!options.trace) {
    untraced = measure(options.seconds);
    SetEndToEnd(setup_s, PeakRssMb(), untraced, &result);
  } else {
    untraced = measure(options.seconds / 2);
    result.tracer = std::make_unique<Tracer>();
    Tracer* tracer = result.tracer.get();
    Phase traced;
    Timer window;
    do {
      size_t k = joins++ % kCorpora;
      layer_samples.emplace_back();
      uint64_t request_id = layer_samples.size() - 1;
      Timer t;
      auto pairs = TracedJoin(corpora[k], tracer, request_id, &layer_samples.back());
      traced.latency_ms.push_back(t.ElapsedMillis());
      record(k, pairs);
      result.ops.Record(
          TracedPrepPass(corpora[k], tracer, request_id, &layer_samples.back()).ok());
    } while (window.ElapsedMillis() < options.seconds / 2 * 1e3);
    AddSpanFigures(tracer->spans(), &layer_samples);

    std::map<std::string, std::vector<double>> by_name;
    for (const LayerSample& s : layer_samples) {
      for (const auto& [name, value] : s) by_name[name].push_back(value);
    }
    for (const auto& [name, values] : by_name) result.metrics[name] = Median(values);
    double base = Median(untraced.latency_ms);
    result.metrics["client.join_ms_p50"] = base;
    result.metrics["trace.overhead_ms"] = Median(traced.latency_ms) - base;
    result.metrics["trace.overhead_pct"] =
        base > 0 ? (Median(traced.latency_ms) - base) / base * 100.0 : 0.0;
  }

  // Oracle per corpus: the pinned digest, or a reference run of the
  // kPrefixFilter executor (made last so it does not count in peak_rss_mb).
  std::vector<std::optional<PairDigest>> expected(kCorpora);
  std::string oracle = "pinned", expected_digests;
  for (size_t k = 0; k < kCorpora; ++k) {
    expected[k] = PinnedDigest(options.seed, k);
    if (!expected[k]) {
      oracle = "prefix_filter reference";
      auto ref = PublicJoin(corpora[k], core::SSJoinAlgorithm::kPrefixFilter);
      if (ref.ok()) expected[k] = DigestOf(*ref);
    }
    expected_digests += (k > 0 ? " " : "") +
                        (expected[k] ? expected[k]->ToString() : std::string("unavailable"));
  }
  for (const auto& [k, d] : digests) {
    result.ops.Record(expected[k].has_value() && d == *expected[k]);
  }
  result.correct = result.ops.failed == 0;
  result.info.emplace_back("oracle", JsonString(oracle));
  result.info.emplace_back("result_digests", JsonString(expected_digests));
  result.info.emplace_back("samples", std::to_string(untraced.latency_ms.size()));
  return result;
}

}  // namespace perfbench
