#include "index/segment.h"

#include <algorithm>
#include <cstring>
#include <map>

#include "common/hash.h"
#include "common/payload.h"

namespace ssjoin::index {

namespace {

constexpr char kSegmentMagic[8] = {'S', 'S', 'J', 'S', 'E', 'G', 'V', '1'};

}  // namespace

void Segment::AppendDoc(uint64_t doc_id, std::string value,
                        std::span<const text::TokenId> elements,
                        filter::AttrSet doc_attrs) {
  uint32_t local = static_cast<uint32_t>(doc_ids.size());
  doc_ids.push_back(doc_id);
  values.push_back(std::move(value));
  attrs.push_back(std::move(doc_attrs));
  sets.AppendSet(elements);
  doc_states[doc_id] = DocState{local, false};
}

void Segment::RecordDelete(uint64_t doc_id) {
  doc_states[doc_id].deleted = true;
}

void Segment::BuildPostings() {
  const std::vector<text::TokenId>& ids = sets.token_ids();
  size_t num_elements =
      ids.empty() ? 0 : size_t{*std::max_element(ids.begin(), ids.end())} + 1;
  postings_ = core::InvertedIndex(sets, num_elements);
  tombstone_count_ = 0;
  for (const auto& [id, st] : doc_states) {
    if (st.deleted) ++tombstone_count_;
  }
  auto less = [](const filter::AttrSet* a, const filter::AttrSet* b) {
    return a->entries() < b->entries();
  };
  std::map<const filter::AttrSet*, uint32_t, decltype(less)> classes(less);
  attr_class_.resize(attrs.size());
  class_reps_.clear();
  for (uint32_t local = 0; local < attrs.size(); ++local) {
    auto [it, added] = classes.try_emplace(&attrs[local], classes.size());
    if (added) class_reps_.push_back(local);
    attr_class_[local] = it->second;
  }
}

std::string Segment::EncodeFile() const {
  common::PayloadWriter w;
  w.U64(serial);
  w.Vec(doc_ids);
  w.U64(values.size());
  for (const std::string& v : values) w.Str(v);
  w.Vec(sets.offsets());
  w.Vec(sets.token_ids());
  // Tombstones sorted by doc_id: doc_states iteration order is not
  // deterministic, file bytes (and their checksums) must be.
  std::vector<uint64_t> tombstones;
  for (const auto& [id, st] : doc_states) {
    if (st.deleted) tombstones.push_back(id);
  }
  std::sort(tombstones.begin(), tombstones.end());
  w.Vec(tombstones);
  // Per-doc attribute sets, parallel to `values` (AttrSet keeps entries
  // sorted by name, so the encoding — and the file checksum — is canonical).
  for (const filter::AttrSet& a : attrs) a.EncodeTo(&w);

  const std::string& payload = w.buffer();
  uint64_t checksum = HashString(payload);
  std::string bytes;
  bytes.reserve(kSegmentHeaderSize + payload.size() + sizeof(checksum));
  bytes.append(kSegmentMagic, sizeof(kSegmentMagic));
  uint32_t version = kSegmentVersion;
  uint32_t flags = 0;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(reinterpret_cast<const char*>(&flags), sizeof(flags));
  bytes.append(payload);
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return bytes;
}

Result<Segment> Segment::DecodeFile(std::string_view bytes,
                                    size_t num_elements) {
  if (bytes.size() < kSegmentHeaderSize + sizeof(uint64_t)) {
    return Status::IOError("segment file is truncated");
  }
  if (std::memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Status::IOError("segment file has a bad magic");
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  if (version != kSegmentVersion) {
    return Status::IOError("unsupported segment version " +
                           std::to_string(version));
  }
  const char* payload = bytes.data() + kSegmentHeaderSize;
  size_t payload_size = bytes.size() - kSegmentHeaderSize - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored), sizeof(stored));
  if (HashString(std::string_view(payload, payload_size)) != stored) {
    return Status::IOError("segment file checksum mismatch");
  }

  common::PayloadReader r(payload, payload_size);
  Segment seg;
  SSJOIN_RETURN_NOT_OK(r.U64(&seg.serial));
  SSJOIN_RETURN_NOT_OK(r.Vec(&seg.doc_ids));
  uint64_t num_values = 0;
  SSJOIN_RETURN_NOT_OK(r.U64(&num_values));
  if (num_values != seg.doc_ids.size()) {
    return Status::IOError("segment value count != doc count");
  }
  seg.values.resize(num_values);
  for (std::string& v : seg.values) SSJOIN_RETURN_NOT_OK(r.Str(&v));
  std::vector<uint32_t> offsets;
  std::vector<text::TokenId> token_ids;
  SSJOIN_RETURN_NOT_OK(r.Vec(&offsets));
  SSJOIN_RETURN_NOT_OK(r.Vec(&token_ids));
  SSJOIN_ASSIGN_OR_RETURN(
      seg.sets, core::SetStore::FromParts(std::move(offsets), std::move(token_ids)));
  if (seg.sets.num_groups() != seg.doc_ids.size()) {
    return Status::IOError("segment set count != doc count");
  }
  for (text::TokenId e : seg.sets.token_ids()) {
    if (e >= num_elements) {
      return Status::IOError("segment element out of dictionary range");
    }
  }
  std::vector<uint64_t> tombstones;
  SSJOIN_RETURN_NOT_OK(r.Vec(&tombstones));
  seg.attrs.resize(seg.doc_ids.size());
  for (filter::AttrSet& a : seg.attrs) {
    SSJOIN_RETURN_NOT_OK(filter::AttrSet::DecodeFrom(&r, &a));
  }
  if (!r.AtEnd()) {
    return Status::IOError("segment payload has trailing bytes");
  }

  for (uint32_t local = 0; local < seg.doc_ids.size(); ++local) {
    seg.doc_states[seg.doc_ids[local]] = DocState{local, false};
  }
  for (uint64_t id : tombstones) seg.doc_states[id].deleted = true;
  seg.BuildPostings();
  return seg;
}

}  // namespace ssjoin::index
