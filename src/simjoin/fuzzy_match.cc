#include "simjoin/fuzzy_match.h"

#include <algorithm>
#include <cmath>

#include "core/predicate.h"
#include "core/prefix_filter.h"
#include "filter/metrics.h"
#include "kernels/kernels.h"
#include "sim/set_overlap.h"
#include "text/weights.h"

namespace ssjoin::simjoin {

Result<FuzzyMatchIndex> FuzzyMatchIndex::Build(
    const std::vector<std::string>& reference, const Options& options) {
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::Invalid("alpha must be in (0, 1]");
  }
  FuzzyMatchIndex index;
  index.options_ = options;
  index.reference_ = reference;
  if (options.word_tokens) {
    index.tokenizer_ = std::make_unique<text::WordTokenizer>();
  } else {
    index.tokenizer_ = std::make_unique<text::QGramTokenizer>(options.q);
  }

  std::vector<std::vector<text::TokenId>> docs;
  docs.reserve(reference.size());
  for (const std::string& s : reference) {
    docs.push_back(index.dict_.EncodeDocument(index.tokenizer_->Tokenize(s)));
  }
  text::IdfWeights idf(index.dict_);
  index.weights_ = core::MaterializeWeights(index.dict_, idf);
  // Quantize so weighted-set sums are exact and order-independent; without
  // this, two indexes over the same records but different token-id numbering
  // (e.g. a mutable index vs. a rebuild) could differ in the last ulp.
  for (double& w : index.weights_) w = text::QuantizeWeight(w);
  // Weight assumed for query tokens absent from the reference: that of a
  // token occurring in a single reference record.
  index.unseen_token_weight_ = text::QuantizeWeight(
      std::log(std::max<double>(2.0, static_cast<double>(index.dict_.num_documents()))));
  // Tie-keyed by element content so the order — and with it every prefix —
  // is independent of token-id numbering. A MutableFuzzyIndex over the same
  // logical records replicates this order from its own (differently
  // numbered) dictionary, which is what makes its lookups bit-identical to
  // a from-scratch rebuild.
  std::vector<uint64_t> tie_keys(index.dict_.num_elements());
  for (text::TokenId id = 0; id < tie_keys.size(); ++id) {
    tie_keys[id] = index.dict_.KeyHash(id);
  }
  index.order_ = core::ElementOrder::ByDecreasingWeightTieKeyed(index.weights_,
                                                                tie_keys);
  SSJOIN_ASSIGN_OR_RETURN(index.sets_,
                          core::BuildSetsRelation(std::move(docs), index.weights_));

  // Prefix-filter the reference (the S side of a 2-sided resemblance
  // predicate: required overlap alpha * wt(set)) and build the inverted
  // index over the surviving elements.
  core::OverlapPredicate pred =
      core::OverlapPredicate::TwoSidedNormalized(options.alpha);
  core::PrefixFilteredRelation pref = core::PrefixFilterRelation(
      index.sets_, index.weights_, index.order_, pred, core::JoinSide::kS);
  index.prefix_offsets_.assign(index.dict_.num_elements() + 1, 0);
  for (text::TokenId e : pref.prefixes.token_ids()) {
    ++index.prefix_offsets_[e + 1];
  }
  for (size_t i = 1; i < index.prefix_offsets_.size(); ++i) {
    index.prefix_offsets_[i] += index.prefix_offsets_[i - 1];
  }
  index.prefix_postings_.resize(index.prefix_offsets_.back());
  std::vector<uint32_t> cursor(index.prefix_offsets_.begin(),
                               index.prefix_offsets_.end() - 1);
  for (core::GroupId g = 0; g < pref.prefixes.num_groups(); ++g) {
    for (text::TokenId e : pref.prefixes.elements(g)) {
      index.prefix_postings_[cursor[e]++] = g;
    }
  }
  index.attr_index_ =
      filter::AttrIndex::Empty(static_cast<uint32_t>(reference.size()));
  return index;
}

Result<FuzzyMatchIndex> FuzzyMatchIndex::FromParts(
    Options options, std::vector<std::string> reference,
    text::TokenDictionary dict, core::WeightVector weights,
    double unseen_token_weight, core::ElementOrder order, core::SetsRelation sets,
    std::vector<uint32_t> prefix_offsets,
    std::vector<core::GroupId> prefix_postings) {
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::Invalid("alpha must be in (0, 1]");
  }
  const size_t elements = dict.num_elements();
  const size_t groups = reference.size();
  if (weights.size() != elements) {
    return Status::Invalid("index parts: weight count != dictionary size");
  }
  if (order.num_elements() != elements) {
    return Status::Invalid("index parts: order size != dictionary size");
  }
  if (sets.num_groups() != groups || sets.norms.size() != groups ||
      sets.set_weights.size() != groups) {
    return Status::Invalid("index parts: sets relation size != reference size");
  }
  for (text::TokenId e : sets.store.token_ids()) {
    if (e >= elements) {
      return Status::Invalid("index parts: set element out of dictionary range");
    }
  }
  if (prefix_offsets.size() != elements + 1 || prefix_offsets.front() != 0 ||
      prefix_offsets.back() != prefix_postings.size()) {
    return Status::Invalid("index parts: prefix CSR layout inconsistent");
  }
  for (size_t i = 1; i < prefix_offsets.size(); ++i) {
    if (prefix_offsets[i] < prefix_offsets[i - 1]) {
      return Status::Invalid("index parts: prefix offsets not monotone");
    }
  }
  for (core::GroupId g : prefix_postings) {
    if (g >= groups) {
      return Status::Invalid("index parts: prefix posting out of group range");
    }
  }
  if (unseen_token_weight <= 0.0) {
    return Status::Invalid("index parts: unseen token weight must be positive");
  }
  FuzzyMatchIndex index;
  index.options_ = options;
  index.reference_ = std::move(reference);
  if (options.word_tokens) {
    index.tokenizer_ = std::make_unique<text::WordTokenizer>();
  } else {
    index.tokenizer_ = std::make_unique<text::QGramTokenizer>(options.q);
  }
  index.dict_ = std::move(dict);
  index.weights_ = std::move(weights);
  index.unseen_token_weight_ = unseen_token_weight;
  index.order_ = std::move(order);
  index.sets_ = std::move(sets);
  index.prefix_offsets_ = std::move(prefix_offsets);
  index.prefix_postings_ = std::move(prefix_postings);
  index.attr_index_ =
      filter::AttrIndex::Empty(static_cast<uint32_t>(index.reference_.size()));
  return index;
}

Status FuzzyMatchIndex::AssignAttributes(std::vector<filter::AttrSet> attrs) {
  if (!attrs.empty() && attrs.size() != reference_.size()) {
    return Status::Invalid(
        "attribute count does not match the reference table size");
  }
  attrs_ = std::move(attrs);
  attrs_.resize(reference_.size());
  attr_index_ = filter::AttrIndex::Build(attrs_);
  return Status::OK();
}

std::vector<FuzzyMatchIndex::Match> FuzzyMatchIndex::Lookup(const std::string& query,
                                                            size_t k) const {
  return Lookup(query, k, filter::FilterPredicate());
}

std::vector<FuzzyMatchIndex::Match> FuzzyMatchIndex::Lookup(
    const std::string& query, size_t k,
    const filter::FilterPredicate& filter) const {
  std::vector<Match> out;
  if (k == 0) return out;
  std::vector<std::string> tokens = tokenizer_->Tokenize(query);
  std::vector<text::TokenId> ids = dict_.EncodeDocumentReadOnly(tokens);
  // Split into known elements (sorted, unique) and count unseen ones.
  size_t unseen = 0;
  std::vector<text::TokenId> known;
  known.reserve(ids.size());
  for (text::TokenId id : ids) {
    if (id == text::kInvalidToken) {
      ++unseen;
    } else {
      known.push_back(id);
    }
  }
  sim::Canonicalize(&known);
  double query_weight = static_cast<double>(unseen) * unseen_token_weight_;
  for (text::TokenId id : known) query_weight += weights_[id];
  if (known.empty()) return out;

  // Probe with the query's prefix (the R side of the 2-sided predicate:
  // required overlap alpha * wt(query)).
  double beta = query_weight - options_.alpha * query_weight;
  std::vector<text::TokenId> prefix =
      core::ComputePrefix(known, weights_, order_, beta);

  std::vector<core::GroupId> candidates;
  for (text::TokenId e : prefix) {
    candidates.insert(candidates.end(), prefix_postings_.begin() + prefix_offsets_[e],
                      prefix_postings_.begin() + prefix_offsets_[e + 1]);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (!filter.empty()) {
    // Compose the predicate index with similarity candidate generation
    // BEFORE verification: only eligible groups pay the weighted-merge
    // verify cost. Dropping candidates never changes the surviving ones'
    // similarities, so this equals exact post-filtering bitwise.
    const filter::FilterCounters& fc = filter::FilterMetrics();
    fc.lookups->Add(1);
    fc.candidates_in->Add(candidates.size());
    filter::EligibleSet eligible = attr_index_.Eval(filter);
    eligible.FilterSorted(&candidates);
    fc.candidates_kept->Add(candidates.size());
  }

  // Verify: exact weighted resemblance against each candidate. The merge is
  // the shared kernel (same ascending accumulation order as the executors);
  // acceptance is the exact test on the quantized sums, shared with
  // MutableFuzzyIndex.
  for (core::GroupId g : candidates) {
    core::SetView ref_set = sets_.set(g);
    double overlap =
        kernels::IntersectWeighted(known, ref_set, weights_.data());
    double uni = query_weight + sets_.set_weights[g] - overlap;
    if (text::ResemblanceAtLeast(overlap, uni, options_.alpha)) {
      out.push_back({g, uni > 0.0 ? overlap / uni : 1.0});
    }
  }

  // Top-K by similarity (ties by reference index for determinism).
  std::sort(out.begin(), out.end(), [](const Match& a, const Match& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.ref_index < b.ref_index;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace ssjoin::simjoin
