#include "index/mutable_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>

#include "common/atomic_file.h"
#include "common/hash.h"
#include "core/inverted_index.h"
#include "core/prefix_filter.h"
#include "filter/metrics.h"
#include "index/manifest.h"
#include "kernels/kernels.h"
#include "text/weights.h"

namespace ssjoin::index {

namespace {

namespace fs = std::filesystem;

std::string SegmentFileName(uint64_t serial) {
  return "seg-" + std::to_string(serial) + ".seg";
}

std::string WalFileName(uint64_t serial) {
  return "wal-" + std::to_string(serial) + ".wal";
}

std::unique_ptr<text::Tokenizer> MakeTokenizer(const MatchOptions& match) {
  if (match.word_tokens) return std::make_unique<text::WordTokenizer>();
  return std::make_unique<text::QGramTokenizer>(match.q);
}

/// Process-wide `index.lookup.*` work counters, resolved once (registry
/// lookups are mutex-guarded) and added to once per lookup.
struct LookupCounters {
  obs::Counter* candidates;     // distinct live docs met by the query prefix
  obs::Counter* verifications;  // of those, verified past the positional bound
};

const LookupCounters& LookupMetrics() {
  static const LookupCounters counters{
      obs::Registry::Global().GetCounter("index.lookup.candidates"),
      obs::Registry::Global().GetCounter("index.lookup.verifications")};
  return counters;
}

/// The batch executors' candidate dedupe and verify marks, one set per
/// thread (lookups run on their callers' threads).
struct LookupScratch {
  core::ProbeScratch probe;
  kernels::MarkedSet marks;
  std::vector<int8_t> passes;  // per attribute class: -1 untested, else 0/1
};

LookupScratch& ThreadLookupScratch() {
  thread_local LookupScratch scratch;
  return scratch;
}

/// The weight an epoch with `n` live docs gives an element of df `f`.
double EpochWeight(double n, uint64_t f) {
  return text::QuantizeWeight(text::IdfWeightFromFrequency(n, f));
}

/// A fresh set-weight column: each local's weight sum over its elements.
std::shared_ptr<const SetWeightColumn> SumSetWeights(
    const Segment& seg, const core::WeightVector& weights) {
  auto column = std::make_shared<SetWeightColumn>(seg.num_docs());
  for (uint32_t local = 0; local < seg.num_docs(); ++local) {
    double sum = 0.0;
    for (text::TokenId e : seg.sets.elements(local)) sum += weights[e];
    (*column)[local] = sum;
  }
  return column;
}

/// `column` with each (element, change) of `moved` added to the set weight
/// of every local holding the element: a copy when any local is touched
/// (an earlier epoch may still read `column`), else `column` itself.
std::shared_ptr<const SetWeightColumn> PatchSetWeights(
    const Segment& seg, std::shared_ptr<const SetWeightColumn> column,
    std::span<const std::pair<text::TokenId, double>> moved) {
  std::shared_ptr<SetWeightColumn> patched;
  for (const auto& [e, change] : moved) {
    std::span<const uint32_t> locals = seg.Postings(e);
    if (locals.empty()) continue;
    if (patched == nullptr) patched = std::make_shared<SetWeightColumn>(*column);
    for (uint32_t local : locals) (*patched)[local] += change;
  }
  if (patched == nullptr) return column;
  return patched;
}

/// Bitwise equality of two doubles (a stricter == for consistency checks).
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

MutableFuzzyIndex::MutableFuzzyIndex(const MutableIndexOptions& options)
    : options_(options),
      tokenizer_(MakeTokenizer(options.match)),
      epoch_gauge_(metrics_.GetGauge("index.epoch")),
      segments_gauge_(metrics_.GetGauge("index.segments")),
      tail_docs_gauge_(metrics_.GetGauge("index.tail_docs")),
      tombstones_gauge_(metrics_.GetGauge("index.tombstones")),
      live_docs_gauge_(metrics_.GetGauge("index.live_docs")),
      upserts_(metrics_.GetCounter("index.upserts")),
      deletes_(metrics_.GetCounter("index.deletes")),
      seals_(metrics_.GetCounter("index.seals")),
      compactions_(metrics_.GetCounter("index.compactions")),
      full_publishes_(metrics_.GetCounter("index.publish.full")),
      publish_us_(metrics_.GetHistogram("index.publish_us")),
      compaction_us_(metrics_.GetHistogram("index.compaction_us")) {
  (void)LookupMetrics();  // listed in metric dumps before the first lookup
}

Result<std::unique_ptr<MutableFuzzyIndex>> MutableFuzzyIndex::Create(
    const MutableIndexOptions& options) {
  SSJOIN_RETURN_NOT_OK(options.match.Validate());
  std::unique_ptr<MutableFuzzyIndex> index(new MutableFuzzyIndex(options));
  if (!options.data_dir.empty()) {
    std::error_code ec;
    fs::create_directories(options.data_dir, ec);
    if (ec) {
      return Status::IOError("cannot create data directory '" +
                             options.data_dir + "': " + ec.message());
    }
    std::string manifest_path =
        options.data_dir + "/" + kManifestFileName;
    if (fs::exists(manifest_path)) {
      return Status::Invalid("data directory '" + options.data_dir +
                             "' already holds a manifest; use Open");
    }
    index->wal_file_ = WalFileName(index->next_serial_);
    SSJOIN_ASSIGN_OR_RETURN(
        WalWriter wal,
        WalWriter::Create(options.data_dir + "/" + index->wal_file_));
    index->wal_.emplace(std::move(wal));
    std::lock_guard<std::mutex> lock(index->writer_mu_);
    SSJOIN_RETURN_NOT_OK(index->PersistSealedLocked({}));
    index->PublishLocked();
  } else {
    std::lock_guard<std::mutex> lock(index->writer_mu_);
    index->PublishLocked();
  }
  return index;
}

Result<std::unique_ptr<MutableFuzzyIndex>> MutableFuzzyIndex::Open(
    const MutableIndexOptions& options) {
  if (options.data_dir.empty()) {
    return Status::Invalid("Open requires a data directory");
  }
  std::string manifest_path = options.data_dir + "/" + kManifestFileName;
  SSJOIN_ASSIGN_OR_RETURN(Manifest manifest, LoadManifest(manifest_path));
  Status valid = manifest.options.Validate();
  if (!valid.ok()) {
    return Status::Invalid("manifest '" + manifest_path +
                           "' holds invalid match options: " + valid.message());
  }

  MutableIndexOptions effective = options;
  effective.match = manifest.options;
  std::unique_ptr<MutableFuzzyIndex> index(new MutableFuzzyIndex(effective));
  SSJOIN_ASSIGN_OR_RETURN(
      index->dict_, text::TokenDictionary::Restore(
                        std::move(manifest.dict_entries),
                        manifest.dict_num_documents));

  std::lock_guard<std::mutex> lock(index->writer_mu_);
  for (const ManifestSegmentRef& ref : manifest.segments) {
    std::string path = options.data_dir + "/" + ref.file;
    std::string bytes;
    Status read = common::ReadFile(path, &bytes);
    if (!read.ok()) {
      return Status::IOError("missing or unreadable segment file '" +
                             ref.file + "': " + read.ToString());
    }
    if (HashString(bytes) != ref.checksum) {
      return Status::IOError("segment file '" + ref.file +
                             "' checksum mismatch");
    }
    SSJOIN_ASSIGN_OR_RETURN(
        Segment seg, Segment::DecodeFile(bytes, index->dict_.num_elements()));
    if (seg.serial != ref.serial || seg.num_docs() != ref.num_docs) {
      return Status::IOError("segment file '" + ref.file +
                             "' does not match its manifest entry");
    }
    index->sealed_.push_back(std::make_shared<const Segment>(std::move(seg)));
    index->seg_refs_.push_back(ref);
  }

  // Rebuild the live view from segment contents: the newest per-doc state
  // across generations decides the winner, exactly as lookups resolve it.
  index->df_live_.assign(index->dict_.num_elements(), 0);
  std::unordered_map<uint64_t, std::pair<uint32_t, DocState>> final_state;
  for (uint32_t si = 0; si < index->sealed_.size(); ++si) {
    for (const auto& [doc_id, st] : index->sealed_[si]->doc_states) {
      final_state[doc_id] = {si, st};
    }
  }
  for (const auto& seg : index->sealed_) {
    index->sealed_winners_.push_back(
        std::make_shared<WinnerFlags>(seg->num_docs(), 0));
  }
  index->sealed_winners_shared_.assign(index->sealed_.size(), 0);
  for (const auto& [doc_id, seg_state] : final_state) {
    const auto& [si, st] = seg_state;
    if (st.deleted || st.last_local == kNoLocalDoc) continue;
    index->doc_map_[doc_id] = DocLoc{si, st.last_local};
    (*index->sealed_winners_[si])[st.last_local] = 1;
    // DecodeFile bounded every element id by the dictionary's size.
    for (text::TokenId e : index->sealed_[si]->sets.elements(st.last_local)) {
      ++index->df_live_[e];
    }
    ++index->live_docs_;
  }

  index->epoch_ = manifest.epoch;
  index->last_sealed_seq_ = manifest.last_sealed_seq;
  index->next_seq_ = manifest.last_sealed_seq + 1;
  index->next_serial_ = manifest.next_serial;

  // Replay unsealed operations from the WAL, skipping stale records (their
  // effect is already inside a sealed segment) and truncating any torn tail
  // so subsequent appends extend a clean log.
  index->wal_file_ = manifest.wal_file;
  std::string wal_path = options.data_dir + "/" + index->wal_file_;
  if (fs::exists(wal_path)) {
    SSJOIN_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(wal_path));
    std::error_code ec;
    uint64_t size = fs::file_size(wal_path, ec);
    if (!ec && wal.valid_bytes < size) {
      fs::resize_file(wal_path, wal.valid_bytes, ec);
      if (ec) {
        return Status::IOError("cannot truncate torn WAL tail: " + ec.message());
      }
    }
    for (const WalRecord& rec : wal.records) {
      if (rec.seq <= index->last_sealed_seq_) continue;  // stale
      index->next_seq_ = rec.seq;
      if (rec.type == WalRecord::kUpsert) {
        SSJOIN_RETURN_NOT_OK(index->ApplyUpsert(rec.doc_id, rec.value,
                                                rec.attrs, /*log_wal=*/false));
      } else {
        SSJOIN_RETURN_NOT_OK(index->ApplyDelete(rec.doc_id, /*log_wal=*/false));
      }
    }
    SSJOIN_ASSIGN_OR_RETURN(
        WalWriter writer, WalWriter::OpenForAppend(wal_path));
    index->wal_.emplace(std::move(writer));
  } else {
    SSJOIN_ASSIGN_OR_RETURN(WalWriter writer, WalWriter::Create(wal_path));
    index->wal_.emplace(std::move(writer));
  }

  index->PublishLocked();
  return index;
}

MutableFuzzyIndex::Stats MutableFuzzyIndex::GetStats() const {
  Stats s;
  s.epoch = static_cast<uint64_t>(epoch_gauge_->value());
  s.sealed_segments = static_cast<uint64_t>(segments_gauge_->value());
  s.tail_docs = static_cast<uint64_t>(tail_docs_gauge_->value());
  s.tombstones = static_cast<uint64_t>(tombstones_gauge_->value());
  s.live_docs = static_cast<uint64_t>(live_docs_gauge_->value());
  s.upserts = upserts_->value();
  s.deletes = deletes_->value();
  s.seals = seals_->value();
  s.compactions = compactions_->value();
  s.full_publishes = full_publishes_->value();
  return s;
}

std::span<const text::TokenId> MutableFuzzyIndex::ElementsOf(
    const DocLoc& loc) const {
  if (loc.segment == kTailSegment) return tail_.sets.elements(loc.local);
  return sealed_[loc.segment]->sets.elements(loc.local);
}

bool MutableFuzzyIndex::RemoveLive(uint64_t doc_id) {
  auto it = doc_map_.find(doc_id);
  if (it == doc_map_.end()) return false;
  std::span<const text::TokenId> elements = ElementsOf(it->second);
  for (text::TokenId e : elements) --df_live_[e];
  MarkDirtyLocked(elements);
  --live_docs_;
  ClearWinnerLocked(it->second);
  doc_map_.erase(it);
  return true;
}

void MutableFuzzyIndex::MarkDirtyLocked(
    std::span<const text::TokenId> elements) {
  if (dirty_flags_.size() < dict_.num_elements()) {
    dirty_flags_.resize(dict_.num_elements(), 0);
  }
  for (text::TokenId e : elements) {
    if (dirty_flags_[e] == 0) {
      dirty_flags_[e] = 1;
      dirty_.push_back(e);
    }
  }
}

void MutableFuzzyIndex::ClearWinnerLocked(const DocLoc& loc) {
  if (loc.segment == kTailSegment) {
    tail_winners_[loc.local] = 0;
    return;
  }
  std::shared_ptr<WinnerFlags>& flags = sealed_winners_[loc.segment];
  if (sealed_winners_shared_[loc.segment]) {
    flags = std::make_shared<WinnerFlags>(*flags);
    sealed_winners_shared_[loc.segment] = 0;
  }
  (*flags)[loc.local] = 0;
}

Status MutableFuzzyIndex::ApplyUpsert(uint64_t doc_id, const std::string& value,
                                      const filter::AttrSet& attrs,
                                      bool log_wal) {
  // Refuse before any side effect: no WAL record, no removed live version.
  if (tail_.num_docs() >= UINT32_MAX - 1) {
    return Status::Invalid("tail segment is full");
  }
  if (log_wal && wal_.has_value()) {
    WalRecord rec;
    rec.type = WalRecord::kUpsert;
    rec.seq = next_seq_;
    rec.doc_id = doc_id;
    rec.value = value;
    rec.attrs = attrs;
    SSJOIN_RETURN_NOT_OK(wal_->Append(rec));
  }
  ++next_seq_;
  RemoveLive(doc_id);
  std::vector<text::TokenId> ids = EncodeValueLocked(value);
  tail_.AppendDoc(doc_id, value, ids, attrs);
  tail_winners_.push_back(1);
  if (df_live_.size() < dict_.num_elements()) {
    df_live_.resize(dict_.num_elements(), 0);
  }
  for (text::TokenId e : ids) ++df_live_[e];
  MarkDirtyLocked(ids);
  ++live_docs_;
  doc_map_[doc_id] =
      DocLoc{kTailSegment, static_cast<uint32_t>(tail_.num_docs() - 1)};
  upserts_->Add(1);
  return Status::OK();
}

Status MutableFuzzyIndex::ApplyDelete(uint64_t doc_id, bool log_wal) {
  if (log_wal && wal_.has_value()) {
    WalRecord rec;
    rec.type = WalRecord::kDelete;
    rec.seq = next_seq_;
    rec.doc_id = doc_id;
    SSJOIN_RETURN_NOT_OK(wal_->Append(rec));
  }
  ++next_seq_;
  RemoveLive(doc_id);
  tail_.RecordDelete(doc_id);
  deletes_->Add(1);
  return Status::OK();
}

Status MutableFuzzyIndex::Upsert(uint64_t doc_id, const std::string& value,
                                 const filter::AttrSet& attrs) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  SSJOIN_RETURN_NOT_OK(ApplyUpsert(doc_id, value, attrs, /*log_wal=*/true));
  PublishLocked();
  MaybeMaintainLocked();
  return Status::OK();
}

Status MutableFuzzyIndex::Delete(uint64_t doc_id) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  SSJOIN_RETURN_NOT_OK(ApplyDelete(doc_id, /*log_wal=*/true));
  PublishLocked();
  MaybeMaintainLocked();
  return Status::OK();
}

Status MutableFuzzyIndex::BulkLoad(
    const std::vector<std::pair<uint64_t, std::string>>& records,
    const std::vector<filter::AttrSet>& attrs) {
  if (!attrs.empty() && attrs.size() != records.size()) {
    return Status::Invalid("BulkLoad: attrs must be empty or one per record");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  for (size_t i = 0; i < records.size(); ++i) {
    SSJOIN_RETURN_NOT_OK(ApplyUpsert(records[i].first, records[i].second,
                                     attrs.empty() ? filter::AttrSet() : attrs[i],
                                     /*log_wal=*/true));
  }
  // A load that fills the tail is sealed in place: one postings build and
  // one publish, where publishing the tail first would build them twice.
  const bool seal = options_.seal_threshold > 0 &&
                    tail_.num_docs() >= options_.seal_threshold;
  if (!seal || !SealLocked().ok()) PublishLocked();
  MaybeMaintainLocked();
  return Status::OK();
}

void MutableFuzzyIndex::PublishLocked() {
  obs::ObsSpan span(publish_us_);
  std::shared_ptr<const EpochState> prev = Snapshot();
  auto state = std::make_shared<EpochState>();
  state->epoch = ++epoch_;
  state->live_docs = live_docs_;
  // In global-stats mode every weight input is the cluster-wide value: the
  // postings below still hold only this shard's documents, but n, df and
  // liveness come from the accumulator fed by every shard's values — the
  // invariant that makes a sharded scatter-gather bit-identical to one
  // unsharded index.
  const uint64_t n_docs = global_mode_ ? global_live_docs_ : live_docs_;
  const double n = static_cast<double>(n_docs);
  state->unseen_weight =
      text::QuantizeWeight(std::log(std::max<double>(2.0, n)));
  const size_t num_elements = dict_.num_elements();
  if (df_live_.size() < num_elements) df_live_.resize(num_elements, 0);
  if (global_mode_ && df_global_.size() < num_elements) {
    df_global_.resize(num_elements, 0);
  }
  const std::vector<uint64_t>& df = global_mode_ ? df_global_ : df_live_;

  // A weight is a pure function of (n, df). With n and the df source
  // unchanged only the dirty elements' weights can move; `moved` lists each
  // that did with its change, for patching the shared set-weight columns.
  const bool full = prev == nullptr || weights_stale_ || n_docs != published_n_;
  std::vector<std::pair<text::TokenId, double>> moved;
  size_t first_new = 0;  // elements from here on have no previous weight
  if (full) {
    full_publishes_->Add(1);
  } else {
    state->weights = prev->weights;
    state->live = prev->live;
    first_new = state->weights.size();
    for (text::TokenId e : dirty_) {
      if (e >= first_new) continue;
      const double w = EpochWeight(n, df[e]);
      state->live[e] = df[e] > 0 ? 1 : 0;
      if (w != state->weights[e]) {
        moved.emplace_back(e, w - state->weights[e]);
        state->weights[e] = w;
      }
    }
  }
  state->weights.resize(num_elements);
  state->live.resize(num_elements);
  // The rest resolve through their df: one `log` per distinct small df, not
  // one per element.
  std::vector<double> by_df(
      std::min<uint64_t>(std::min<uint64_t>(n_docs + 1, 4096),
                         num_elements - first_new),
      -1.0);
  for (size_t e = first_new; e < num_elements; ++e) {
    const uint64_t f = df[e];
    state->live[e] = f > 0 ? 1 : 0;
    if (f >= by_df.size()) {
      state->weights[e] = EpochWeight(n, f);
      continue;
    }
    if (by_df[f] < 0.0) by_df[f] = EpochWeight(n, f);
    state->weights[e] = by_df[f];
  }
  for (text::TokenId e : dirty_) dirty_flags_[e] = 0;
  dirty_.clear();
  published_n_ = n_docs;
  weights_stale_ = false;

  // Tie keys never change once interned: share them until the vocabulary
  // grows.
  if (prev != nullptr && prev->tie_keys->size() == num_elements) {
    state->tie_keys = prev->tie_keys;
  } else {
    auto keys = std::make_shared<std::vector<uint64_t>>();
    keys->reserve(num_elements);
    if (prev != nullptr) *keys = *prev->tie_keys;
    for (text::TokenId e = static_cast<text::TokenId>(keys->size());
         e < num_elements; ++e) {
      keys->push_back(dict_.KeyHash(e));
    }
    state->tie_keys = std::move(keys);
  }

  state->segments.assign(sealed_.begin(), sealed_.end());
  state->winners.assign(sealed_winners_.begin(), sealed_winners_.end());
  sealed_winners_shared_.assign(sealed_.size(), 1);
  state->set_weights.reserve(sealed_.size() + 1);
  for (const auto& seg : sealed_) {
    std::shared_ptr<const SetWeightColumn> column;
    if (!full) {
      for (size_t j = 0; j < prev->segments.size(); ++j) {
        if (prev->segments[j] == seg) column = prev->set_weights[j];
      }
    }
    // A generation new since the previous epoch (a seal, a compaction) gets
    // a fresh column; a shared one is patched by each moved weight's change.
    // Both are exact (text/weights.h), so the two never differ.
    state->set_weights.push_back(
        column != nullptr ? PatchSetWeights(*seg, std::move(column), moved)
                          : SumSetWeights(*seg, state->weights));
  }
  if (!tail_.empty()) {
    auto frozen = std::make_shared<Segment>(tail_);
    frozen->BuildPostings();
    state->set_weights.push_back(SumSetWeights(*frozen, state->weights));
    state->segments.push_back(std::move(frozen));
    state->winners.push_back(std::make_shared<const WinnerFlags>(tail_winners_));
  }
  // The shape gauges describe the epoch being published; BuildPostings
  // counted each segment's tombstones, the frozen tail's included.
  int64_t tombstones = 0;
  for (const auto& seg : state->segments) {
    tombstones += static_cast<int64_t>(seg->num_tombstones());
  }
  epoch_gauge_->Set(static_cast<int64_t>(epoch_));
  segments_gauge_->Set(static_cast<int64_t>(sealed_.size()));
  tail_docs_gauge_->Set(static_cast<int64_t>(tail_.num_docs()));
  tombstones_gauge_->Set(tombstones);
  live_docs_gauge_->Set(static_cast<int64_t>(live_docs_));
  std::shared_ptr<const EpochState> next = std::move(state);
  std::lock_guard<std::mutex> lock(published_mu_);
  published_.swap(next);  // the old epoch is released after the unlock
}

std::vector<text::TokenId> MutableFuzzyIndex::EncodeValueLocked(
    const std::string& value) {
  tokenizer_->TokenizeInto(value, &encode_buffer_, &encode_tokens_);
  std::vector<text::TokenId> ids;
  {
    std::unique_lock<std::shared_mutex> dict_lock(dict_mu_);
    dict_.EncodeInto(encode_tokens_, &ids);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void MutableFuzzyIndex::GlobalAddLocked(const std::string& value) {
  // Interning (not read-only encoding) is load-bearing: a token live only on
  // another shard must still exist in THIS dictionary, or queries containing
  // it would classify it "unseen" where the unsharded oracle knows it.
  std::vector<text::TokenId> ids = EncodeValueLocked(value);
  if (df_global_.size() < dict_.num_elements()) {
    df_global_.resize(dict_.num_elements(), 0);
  }
  for (text::TokenId e : ids) ++df_global_[e];
  MarkDirtyLocked(ids);
  ++global_live_docs_;
}

void MutableFuzzyIndex::GlobalRemoveLocked(const std::string& value) {
  std::vector<text::TokenId> ids = EncodeValueLocked(value);
  if (df_global_.size() < dict_.num_elements()) {
    df_global_.resize(dict_.num_elements(), 0);
  }
  for (text::TokenId e : ids) {
    if (df_global_[e] > 0) --df_global_[e];
  }
  MarkDirtyLocked(ids);
  if (global_live_docs_ > 0) --global_live_docs_;
}

std::optional<std::string> MutableFuzzyIndex::LiveValueLocked(
    uint64_t doc_id) const {
  auto it = doc_map_.find(doc_id);
  if (it == doc_map_.end()) return std::nullopt;
  const DocLoc& loc = it->second;
  return loc.segment == kTailSegment ? tail_.values[loc.local]
                                     : sealed_[loc.segment]->values[loc.local];
}

Status MutableFuzzyIndex::UpsertGlobal(uint64_t doc_id, const std::string& value,
                                       const filter::AttrSet& attrs,
                                       GlobalDelta* delta) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  GlobalDelta d{LiveValueLocked(doc_id), value};
  SSJOIN_RETURN_NOT_OK(ApplyUpsert(doc_id, value, attrs, /*log_wal=*/true));
  ApplyGlobalDeltaLocked(d);
  MaybeMaintainLocked();
  if (delta != nullptr) *delta = std::move(d);
  return Status::OK();
}

Status MutableFuzzyIndex::DeleteGlobal(uint64_t doc_id, GlobalDelta* delta) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  GlobalDelta d{LiveValueLocked(doc_id), std::nullopt};
  SSJOIN_RETURN_NOT_OK(ApplyDelete(doc_id, /*log_wal=*/true));
  ApplyGlobalDeltaLocked(d);
  MaybeMaintainLocked();
  if (delta != nullptr) *delta = std::move(d);
  return Status::OK();
}

Status MutableFuzzyIndex::ApplyGlobalDelta(const GlobalDelta& delta) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  ApplyGlobalDeltaLocked(delta);
  return Status::OK();
}

void MutableFuzzyIndex::ApplyGlobalDeltaLocked(const GlobalDelta& delta) {
  if (!global_mode_) weights_stale_ = true;  // the df source switches
  global_mode_ = true;
  if (delta.removed.has_value()) GlobalRemoveLocked(*delta.removed);
  if (delta.added.has_value()) GlobalAddLocked(*delta.added);
  PublishLocked();
}

Status MutableFuzzyIndex::ResetGlobalStats(
    const std::vector<std::string>& values) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  global_mode_ = true;
  weights_stale_ = true;
  df_global_.assign(dict_.num_elements(), 0);
  global_live_docs_ = 0;
  for (const std::string& value : values) GlobalAddLocked(value);
  PublishLocked();
  return Status::OK();
}

std::vector<std::pair<uint64_t, std::string>> MutableFuzzyIndex::LiveDocs()
    const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  std::vector<std::pair<uint64_t, std::string>> out;
  out.reserve(doc_map_.size());
  for (const auto& [doc_id, loc] : doc_map_) {
    out.emplace_back(doc_id, loc.segment == kTailSegment
                                 ? tail_.values[loc.local]
                                 : sealed_[loc.segment]->values[loc.local]);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

bool MutableFuzzyIndex::global_stats_enabled() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return global_mode_;
}

Status MutableFuzzyIndex::PersistSealedLocked(
    const std::vector<std::string>& obsolete_files) {
  if (options_.data_dir.empty()) return Status::OK();
  // Order matters for crash safety: the rotated WAL must exist before the
  // manifest that names it, and obsolete files go only after the manifest
  // rename commits. A crash between any two steps recovers from the OLD
  // manifest + OLD WAL; freshly written files are orphans that later seals
  // overwrite.
  Manifest manifest;
  manifest.options = options_.match;
  manifest.epoch = epoch_;
  manifest.last_sealed_seq = last_sealed_seq_;
  manifest.next_serial = next_serial_;
  manifest.dict_entries.reserve(dict_.num_elements());
  for (text::TokenId e = 0; e < dict_.num_elements(); ++e) {
    manifest.dict_entries.push_back(text::TokenDictionary::EntryData{
        std::string(dict_.TokenOf(e)), dict_.OrdinalOf(e),
        e < df_live_.size() ? df_live_[e] : 0});
  }
  manifest.dict_num_documents = live_docs_;
  manifest.segments = seg_refs_;
  manifest.wal_file = wal_file_;
  SSJOIN_RETURN_NOT_OK(
      SaveManifest(manifest, options_.data_dir + "/" + kManifestFileName));
  for (const std::string& file : obsolete_files) {
    std::error_code ec;
    fs::remove(options_.data_dir + "/" + file, ec);  // best-effort cleanup
  }
  return Status::OK();
}

Status MutableFuzzyIndex::PersistSegmentLocked(
    const Segment& seg, std::vector<std::string> obsolete_files) {
  if (options_.data_dir.empty()) return Status::OK();
  std::string file = SegmentFileName(seg.serial);
  std::string bytes = seg.EncodeFile();
  SSJOIN_RETURN_NOT_OK(
      common::WriteFileAtomic(options_.data_dir + "/" + file, bytes));
  seg_refs_.push_back(
      ManifestSegmentRef{seg.serial, file, HashString(bytes), seg.num_docs()});
  obsolete_files.push_back(wal_file_);
  wal_file_ = WalFileName(next_serial_);
  SSJOIN_ASSIGN_OR_RETURN(
      WalWriter writer, WalWriter::Create(options_.data_dir + "/" + wal_file_));
  wal_ = std::move(writer);
  return PersistSealedLocked(obsolete_files);
}

Status MutableFuzzyIndex::SealLocked() {
  if (tail_.empty()) {
    return PersistSealedLocked({});
  }
  Segment seg = std::move(tail_);
  tail_ = Segment();
  seg.serial = next_serial_++;
  seg.BuildPostings();
  auto sealed = std::make_shared<const Segment>(std::move(seg));
  sealed_.push_back(sealed);
  sealed_winners_.push_back(
      std::make_shared<WinnerFlags>(std::move(tail_winners_)));
  sealed_winners_shared_.push_back(0);
  tail_winners_.clear();
  uint32_t new_index = static_cast<uint32_t>(sealed_.size() - 1);
  for (auto& [doc_id, loc] : doc_map_) {
    if (loc.segment == kTailSegment) loc.segment = new_index;
  }
  last_sealed_seq_ = next_seq_ - 1;
  SSJOIN_RETURN_NOT_OK(PersistSegmentLocked(*sealed, {}));
  seals_->Add(1);
  PublishLocked();
  return Status::OK();
}

Status MutableFuzzyIndex::CompactLocked() {
  // Nothing to fold: a single tombstone-free generation and an empty tail.
  if (tail_.empty() && sealed_.size() == 1 && sealed_[0]->num_tombstones() == 0) {
    return Status::OK();
  }
  obs::ObsSpan span(compaction_us_);
  Segment merged;
  merged.serial = next_serial_++;
  // Live docs in ascending doc_id order: deterministic bytes (and the same
  // order a from-scratch rebuild would index them in).
  std::vector<std::pair<uint64_t, DocLoc>> live(doc_map_.begin(), doc_map_.end());
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [doc_id, loc] : live) {
    const Segment& src =
        loc.segment == kTailSegment ? tail_ : *sealed_[loc.segment];
    merged.AppendDoc(doc_id, src.values[loc.local], ElementsOf(loc),
                     src.attrs[loc.local]);
  }
  merged.BuildPostings();
  auto sealed = std::make_shared<const Segment>(std::move(merged));

  std::vector<std::string> obsolete;
  for (const ManifestSegmentRef& ref : seg_refs_) obsolete.push_back(ref.file);
  sealed_.clear();
  seg_refs_.clear();
  tail_ = Segment();
  tail_winners_.clear();
  sealed_.push_back(sealed);
  // Compaction keeps exactly the live docs: every local is a winner.
  sealed_winners_ = {std::make_shared<WinnerFlags>(sealed->num_docs(), 1)};
  sealed_winners_shared_ = {0};
  doc_map_.clear();
  for (uint32_t local = 0; local < sealed->num_docs(); ++local) {
    doc_map_[sealed->doc_ids[local]] = DocLoc{0, local};
  }
  last_sealed_seq_ = next_seq_ - 1;
  SSJOIN_RETURN_NOT_OK(PersistSegmentLocked(*sealed, std::move(obsolete)));
  compactions_->Add(1);
  PublishLocked();
  return Status::OK();
}

Status MutableFuzzyIndex::Seal() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return SealLocked();
}

Status MutableFuzzyIndex::Compact() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return CompactLocked();
}

void MutableFuzzyIndex::MaybeMaintainLocked() {
  bool want_seal = options_.seal_threshold > 0 &&
                   tail_.num_docs() >= options_.seal_threshold;
  bool want_compact = options_.max_generations > 0 &&
                      sealed_.size() > options_.max_generations;
  if (!want_seal && !want_compact) return;
  // Inline maintenance: deterministic epoch numbering, mutation pays the
  // seal/compaction latency. Failures surface on the mutating call.
  if (want_seal) (void)SealLocked();
  if (options_.max_generations > 0 && sealed_.size() > options_.max_generations) {
    (void)CompactLocked();
  }
}

void MutableFuzzyIndex::SortByEpochRank(const EpochState& state,
                                        std::vector<text::TokenId>* elements) {
  std::sort(elements->begin(), elements->end(),
            [&](text::TokenId a, text::TokenId b) {
              if (state.weights[a] != state.weights[b]) {
                return state.weights[a] > state.weights[b];
              }
              const std::vector<uint64_t>& tie_keys = *state.tie_keys;
              if (tie_keys[a] != tie_keys[b]) return tie_keys[a] < tie_keys[b];
              return a < b;
            });
}

std::vector<MutableFuzzyIndex::Match> MutableFuzzyIndex::Lookup(
    const std::string& query, size_t k) const {
  return LookupAt(*Snapshot(), query, k);
}

std::vector<MutableFuzzyIndex::Match> MutableFuzzyIndex::LookupAt(
    const EpochState& state, const std::string& query, size_t k) const {
  return LookupAt(state, query, k, filter::FilterPredicate());
}

std::vector<MutableFuzzyIndex::Match> MutableFuzzyIndex::LookupAt(
    const EpochState& state, const std::string& query, size_t k,
    const filter::FilterPredicate& filter) const {
  // See the equivalence contract in the header: candidate generation may
  // prune anything the exact acceptance test would reject. The predicate
  // filter only ever REMOVES candidates before verification (each
  // candidate's similarity is computed independently and weights stay
  // full-corpus IDF), so filtered output is bit-identical to post-filtering
  // the unfiltered output.
  std::vector<Match> out;
  if (k == 0) return out;
  std::string buffer;
  std::vector<std::string_view> tokens;
  tokenizer_->TokenizeInto(query, &buffer, &tokens);
  std::vector<text::TokenId> ids;
  {
    std::shared_lock<std::shared_mutex> dict_lock(dict_mu_);
    dict_.EncodeReadOnlyInto(tokens, &ids);
  }
  // An element counts as unseen exactly when a rebuild over the epoch's
  // live records would not know it: never interned, interned after this
  // epoch, or in no live document.
  size_t unseen = 0;
  std::vector<text::TokenId> known;
  known.reserve(ids.size());
  for (text::TokenId id : ids) {
    if (id == text::kInvalidToken || id >= state.live.size() ||
        state.live[id] == 0) {
      ++unseen;
    } else {
      known.push_back(id);
    }
  }
  std::sort(known.begin(), known.end());
  known.erase(std::unique(known.begin(), known.end()), known.end());
  double query_weight = static_cast<double>(unseen) * state.unseen_weight;
  for (text::TokenId id : known) query_weight += state.weights[id];
  if (known.empty()) return out;

  // Probe only the query prefix: by Lemma 1, J >= alpha implies
  // overlap >= alpha * wt(q), so every match shares an element with the
  // shortest rank-ordered head of the query whose weight exceeds
  // wt(q) - alpha * wt(q).
  const double alpha = options_.match.alpha;
  std::vector<text::TokenId> ranked = known;
  SortByEpochRank(state, &ranked);
  std::vector<text::TokenId> prefix = ranked;
  core::TrimSortedToPrefix(state.weights, query_weight - alpha * query_weight,
                           &prefix);
  // suffix[i] = weight of ranked[i..]. A candidate whose first shared prefix
  // position is i shares nothing before it, so its overlap is at most
  // min(suffix[i], wt(s)) — the positional bound.
  std::vector<double> suffix(prefix.size());
  double rest = 0.0;
  for (size_t i = ranked.size(); i-- > 0;) {
    rest += state.weights[ranked[i]];
    if (i < suffix.size()) suffix[i] = rest;
  }

  LookupScratch& scratch = ThreadLookupScratch();
  core::ProbeScratch& probe = scratch.probe;
  scratch.marks.Bind(state.weights);
  scratch.marks.Mark(known);
  const bool filtered = !filter.empty();
  if (filtered) filter::FilterMetrics().lookups->Add(1);
  uint64_t candidates_in = 0;  // distinct live docs met, before the filter
  uint64_t candidates = 0;
  uint64_t verifications = 0;
  for (size_t si = 0; si < state.segments.size(); ++si) {
    const Segment& seg = *state.segments[si];
    const WinnerFlags& winner = *state.winners[si];
    const SetWeightColumn& set_weights = *state.set_weights[si];
    // Docs of one attribute class have equal attributes, so the filter's
    // Matches runs once per class met.
    if (filtered) scratch.passes.assign(seg.num_attr_classes(), -1);
    probe.EnsureSize(seg.num_docs());
    const uint32_t epoch = probe.NextEpoch();
    probe.cands.clear();
    for (uint32_t pos = 0; pos < prefix.size(); ++pos) {
      // Positions are probed in order, so the locals this probe appends are
      // exactly the docs whose first shared prefix position is `pos`.
      const size_t first = probe.cands.size();
      kernels::ProbePostings(seg.Postings(prefix[pos]), epoch, probe.seen.data(),
                             &probe.cands, &probe.tally);
      // Keep the winners the filter passes, compacted in place branch-free.
      size_t end = first;
      for (size_t c = first; c < probe.cands.size(); ++c) {
        const uint32_t local = probe.cands[c];
        bool keep = winner[local] != 0;
        candidates_in += keep;
        if (filtered) {
          const uint32_t cls = seg.attr_class(local);
          int8_t& pass = scratch.passes[cls];
          if (pass < 0) pass = filter.Matches(seg.class_attrs(cls)) ? 1 : 0;
          keep = keep && pass == 1;
        }
        probe.cands[end] = local;
        end += keep;
      }
      probe.cands.resize(end);
      candidates += end - first;
      for (size_t c = first; c < end; ++c) {
        const uint32_t local = probe.cands[c];
        const double set_weight = set_weights[local];
        double bound = std::min(suffix[pos], set_weight);
        if (!text::ResemblanceAtLeast(bound, query_weight + set_weight - bound,
                                      alpha)) {
          continue;
        }
        ++verifications;
        double overlap = 0.0;  // a floor of 0 never stops the walk early
        scratch.marks.OverlapAtLeast(seg.sets.elements(local), set_weight, 0.0,
                                     &overlap);
        double uni = query_weight + set_weight - overlap;
        if (text::ResemblanceAtLeast(overlap, uni, alpha)) {
          out.push_back({seg.doc_ids[local], uni > 0.0 ? overlap / uni : 1.0});
        }
      }
    }
  }
  scratch.marks.Flush();
  probe.tally.Flush();
  if (filtered) {
    filter::FilterMetrics().candidates_in->Add(candidates_in);
    filter::FilterMetrics().candidates_kept->Add(candidates);
  }
  LookupMetrics().candidates->Add(candidates);
  LookupMetrics().verifications->Add(verifications);

  std::sort(out.begin(), out.end(), [](const Match& a, const Match& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.id < b.id;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::optional<std::string> MutableFuzzyIndex::ValueAt(const EpochState& state,
                                                      uint64_t doc_id) const {
  for (size_t j = state.segments.size(); j-- > 0;) {
    const Segment& seg = *state.segments[j];
    auto it = seg.doc_states.find(doc_id);
    if (it == seg.doc_states.end()) continue;
    if (it->second.deleted || it->second.last_local == kNoLocalDoc) {
      return std::nullopt;
    }
    return seg.values[it->second.last_local];
  }
  return std::nullopt;
}

std::optional<filter::AttrSet> MutableFuzzyIndex::AttrsAt(
    const EpochState& state, uint64_t doc_id) const {
  for (size_t j = state.segments.size(); j-- > 0;) {
    const Segment& seg = *state.segments[j];
    auto it = seg.doc_states.find(doc_id);
    if (it == seg.doc_states.end()) continue;
    if (it->second.deleted || it->second.last_local == kNoLocalDoc) {
      return std::nullopt;
    }
    return seg.attrs[it->second.last_local];
  }
  return std::nullopt;
}

Status MutableFuzzyIndex::CheckEpochState(
    const EpochState& state,
    const std::vector<std::string>* cluster_values) const {
  const size_t num_elements = state.weights.size();
  if (state.live.size() != num_elements ||
      state.tie_keys->size() != num_elements) {
    return Status::Invalid("epoch weight, live and tie-key columns differ in length");
  }
  if (state.winners.size() != state.segments.size() ||
      state.set_weights.size() != state.segments.size()) {
    return Status::Invalid("epoch per-segment columns differ in count");
  }
  std::vector<uint64_t> df(num_elements, 0);
  uint64_t n_docs = 0;
  if (cluster_values == nullptr) {
    for (size_t si = 0; si < state.segments.size(); ++si) {
      const Segment& seg = *state.segments[si];
      for (uint32_t local = 0; local < seg.num_docs(); ++local) {
        if ((*state.winners[si])[local] == 0) continue;
        for (text::TokenId e : seg.sets.elements(local)) {
          if (e >= num_elements) {
            return Status::Invalid("live element outside the epoch's vocabulary");
          }
          ++df[e];
        }
        ++n_docs;
      }
    }
    if (n_docs != state.live_docs) {
      return Status::Invalid("epoch live_docs " + std::to_string(state.live_docs) +
                             " but " + std::to_string(n_docs) + " winners");
    }
  } else {
    std::string buffer;
    std::vector<std::string_view> tokens;
    std::vector<text::TokenId> ids;
    for (const std::string& value : *cluster_values) {
      tokenizer_->TokenizeInto(value, &buffer, &tokens);
      {
        std::shared_lock<std::shared_mutex> dict_lock(dict_mu_);
        dict_.EncodeReadOnlyInto(tokens, &ids);
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      for (text::TokenId e : ids) {
        if (e == text::kInvalidToken || e >= num_elements) {
          return Status::Invalid("cluster value '" + value +
                                 "' has a token outside the epoch's vocabulary");
        }
        ++df[e];
      }
      ++n_docs;
    }
  }
  const double n = static_cast<double>(n_docs);
  if (!SameBits(state.unseen_weight,
                text::QuantizeWeight(std::log(std::max<double>(2.0, n))))) {
    return Status::Invalid("unseen weight differs from its recompute");
  }
  {
    std::shared_lock<std::shared_mutex> dict_lock(dict_mu_);
    for (text::TokenId e = 0; e < num_elements; ++e) {
      const double w = EpochWeight(n, df[e]);
      if (!SameBits(state.weights[e], w) ||
          state.live[e] != (df[e] > 0 ? 1 : 0) ||
          (*state.tie_keys)[e] != dict_.KeyHash(e)) {
        return Status::Invalid("element " + std::to_string(e) +
                               " differs from its recompute (df " +
                               std::to_string(df[e]) + ")");
      }
    }
  }
  for (size_t si = 0; si < state.segments.size(); ++si) {
    const Segment& seg = *state.segments[si];
    const SetWeightColumn& column = *state.set_weights[si];
    if (column.size() != seg.num_docs()) {
      return Status::Invalid("segment " + std::to_string(si) +
                             " set-weight column has the wrong length");
    }
    for (uint32_t local = 0; local < seg.num_docs(); ++local) {
      double sum = 0.0;
      for (text::TokenId e : seg.sets.elements(local)) sum += state.weights[e];
      if (!SameBits(column[local], sum)) {
        return Status::Invalid("segment " + std::to_string(si) + " local " +
                               std::to_string(local) + " set weight " +
                               std::to_string(column[local]) + ", recompute " +
                               std::to_string(sum));
      }
    }
  }
  return Status::OK();
}

}  // namespace ssjoin::index
