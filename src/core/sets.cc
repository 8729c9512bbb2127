#include "core/sets.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "exec/parallel_for.h"

namespace ssjoin::core {

WeightVector MaterializeWeights(const text::TokenDictionary& dict,
                                const text::WeightProvider& provider) {
  WeightVector weights(dict.num_elements());
  for (text::TokenId id = 0; id < weights.size(); ++id) {
    weights[id] = provider.Weight(id);
  }
  return weights;
}

Result<SetsRelation> BuildSetsRelation(EncodedDocs docs, const WeightVector& weights,
                                       std::optional<std::vector<double>> norms,
                                       const exec::ExecContext& exec) {
  const size_t n = docs.num_docs();
  if (norms && norms->size() != n) {
    return Status::Invalid(
        StringPrintf("norms has %zu entries for %zu documents", norms->size(), n));
  }
  SSJOIN_RETURN_NOT_OK(SetStore::CheckCapacity(n, docs.ids.size()));

  SetsRelation rel;
  rel.set_weights.resize(n);
  std::vector<uint32_t> lengths(n);
  std::vector<char> unweighted(exec::NumMorsels(exec, n), 0);
  exec::ParallelFor(exec, n, [&](size_t /*worker*/, size_t m, size_t begin, size_t end) {
    for (size_t d = begin; d < end; ++d) {
      text::TokenId* first = docs.ids.data() + docs.offsets[d];
      text::TokenId* last = docs.ids.data() + docs.offsets[d + 1];
      std::sort(first, last);
      last = std::unique(first, last);
      double wt = 0.0;
      for (const text::TokenId* id = first; id != last; ++id) {
        if (*id >= weights.size()) {
          unweighted[m] = 1;
          break;
        }
        wt += weights[*id];
      }
      rel.set_weights[d] = wt;
      lengths[d] = static_cast<uint32_t>(last - first);
    }
  });
  if (std::find(unweighted.begin(), unweighted.end(), 1) != unweighted.end()) {
    return Status::Invalid("document contains an element missing from weights");
  }
  // Close the gaps the dropped duplicates left, if any.
  uint32_t out = 0;
  for (size_t d = 0; d < n; ++d) {
    const uint32_t start = docs.offsets[d];
    if (start != out) {
      std::memmove(docs.ids.data() + out, docs.ids.data() + start,
                   lengths[d] * sizeof(text::TokenId));
    }
    docs.offsets[d] = out;
    out += lengths[d];
  }
  docs.offsets[n] = out;
  docs.ids.resize(out);
  SSJOIN_ASSIGN_OR_RETURN(rel.store,
                          SetStore::FromParts(std::move(docs.offsets), std::move(docs.ids)));
  rel.norms = norms ? std::move(*norms) : rel.set_weights;
  return rel;
}

Result<SetsRelation> BuildSetsRelation(std::vector<std::vector<text::TokenId>> docs,
                                       const WeightVector& weights,
                                       std::optional<std::vector<double>> norms) {
  size_t total = 0;
  for (const auto& doc : docs) total += doc.size();
  SSJOIN_RETURN_NOT_OK(SetStore::CheckCapacity(docs.size(), total));
  EncodedDocs flat;
  flat.offsets.reserve(docs.size() + 1);
  flat.ids.reserve(total);
  for (const auto& doc : docs) {
    flat.ids.insert(flat.ids.end(), doc.begin(), doc.end());
    flat.offsets.push_back(static_cast<uint32_t>(flat.ids.size()));
  }
  return BuildSetsRelation(std::move(flat), weights, std::move(norms),
                           exec::ExecContext{});
}

}  // namespace ssjoin::core
