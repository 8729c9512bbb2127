#ifndef SSJOIN_SIMJOIN_PREP_H_
#define SSJOIN_SIMJOIN_PREP_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "core/order.h"
#include "core/sets.h"
#include "exec/exec_context.h"
#include "simjoin/types.h"
#include "text/dictionary.h"
#include "text/tokenizer.h"

namespace ssjoin::simjoin {

/// How elements are weighted during Prep.
enum class WeightMode {
  kUnit,        ///< all weights 1; overlaps are set-intersection sizes
  kIdf,         ///< the paper's §5 IDF formula over the joined corpora
  kIdfSquared,  ///< idf(t)^2 — makes Overlap/sqrt(norms) the tf-idf cosine
};

/// \brief Output of the Prep phase (Figure 2, "String to set"): both
/// relations in normalized set form, with the shared dictionary, weights and
/// global element ordering the executors need.
struct Prepared {
  text::TokenDictionary dict;
  core::WeightVector weights;
  core::ElementOrder order;
  core::SetsRelation r;
  /// True when S is R (PrepareDocuments without an S source): S is not
  /// stored, and s() returns `r` itself.
  bool self_join = false;
  /// S when it is not R; empty in a self-join. Read S through s().
  core::SetsRelation s_rel;

  /// The S relation. In a self-join this is the same object as `r`, so the
  /// SSJoin stage hands one relation to both sides and the inline
  /// prefix-filter executor can take its triangle path.
  const core::SetsRelation& s() const { return self_join ? r : s_rel; }

  core::SSJoinContext Context() const { return {&weights, &order}; }
};

/// Writes the tokens of document `doc` to `*tokens` as views into the input
/// or into `*buffer`, valid until the next call with the same buffer (the
/// text::Tokenizer::TokenizeInto contract).
using TokenSource = std::function<void(size_t doc, std::string* buffer,
                                       std::vector<std::string_view>* tokens)>;

/// The TokenSource of `strings` under `tokenizer`; both must outlive it.
TokenSource TokenizedStrings(const text::Tokenizer& tokenizer,
                             const std::vector<std::string>& strings);

/// \brief The one Prep encoder: interns the tokens of documents
/// [0, num_docs) into `dict`, in document order, and returns their ids in
/// token order. No per-token allocation: tokens are views, and ids go
/// straight into the CSR columns.
Result<core::EncodedDocs> EncodeDocuments(size_t num_docs, const TokenSource& source,
                                          text::TokenDictionary* dict);

/// \brief Prep over token sources: encodes R's `num_r` documents, then S's
/// `num_s`, with a shared dictionary; computes weights (per `mode`) and the
/// prefix ordering (decreasing weight — the paper's IDF ordering, §4.3.2);
/// and builds both SetsRelations, canonicalizing sets per morsel of `exec`.
/// Norms default to set weights; the similarity joins override them when a
/// different norm is needed.
///
/// A null `s_source` means S is R (a self-join, `num_s == num_r`): R's
/// documents are encoded once and counted twice, which yields exactly the
/// dictionary, weights and relations of encoding them again, and the result
/// is marked `self_join`, with no copy of R as S. Records the sub-phases
/// "Prep.encode" (tokenize + encode) and "Prep.relation" (build the
/// relations) in `phases` when given.
Result<Prepared> PrepareDocuments(size_t num_r, const TokenSource& r_source, size_t num_s,
                                  const TokenSource* s_source, WeightMode mode,
                                  const exec::ExecContext& exec,
                                  PhaseTimer* phases = nullptr);

/// \brief PrepareDocuments over two string collections, tokenized by
/// `tokenizer`; passing the same vector as `r` and `s` makes it a
/// self-join.
Result<Prepared> PrepareStrings(const std::vector<std::string>& r,
                                const std::vector<std::string>& s,
                                const text::Tokenizer& tokenizer, WeightMode mode,
                                const exec::ExecContext& exec = {},
                                PhaseTimer* phases = nullptr);

/// \brief Runs the SSJoin stage of a similarity-join pipeline: applies the
/// cost model if requested, executes (in parallel when `execution.exec`
/// requests threads), and records stats/phases into `stats`.
Result<std::vector<core::SSJoinPair>> RunSSJoinStage(const Prepared& prep,
                                                     const core::OverlapPredicate& pred,
                                                     const JoinExecution& execution,
                                                     SimJoinStats* stats);

}  // namespace ssjoin::simjoin

#endif  // SSJOIN_SIMJOIN_PREP_H_
