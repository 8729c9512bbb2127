#include "index/manifest.h"

#include <cstring>

#include "common/atomic_file.h"
#include "common/hash.h"
#include "common/payload.h"

namespace ssjoin::index {

namespace {

constexpr size_t kHeaderSize = 16;

}  // namespace

Status MatchOptions::Validate() const {
  if (!(alpha > 0.0) || alpha > 1.0) {
    return Status::Invalid("alpha must be in (0, 1]");
  }
  if (!word_tokens && q < 1) {
    return Status::Invalid("q-gram length must be at least 1");
  }
  return Status::OK();
}

Status SaveManifest(const Manifest& manifest, const std::string& path) {
  common::PayloadWriter w;
  w.U8(manifest.options.word_tokens ? 1 : 0);
  w.U64(manifest.options.q);
  w.F64(manifest.options.alpha);
  w.U64(manifest.epoch);
  w.U64(manifest.last_sealed_seq);
  w.U64(manifest.next_serial);
  w.U64(manifest.dict_entries.size());
  for (const auto& e : manifest.dict_entries) {
    w.Str(e.token);
    w.U32(e.ordinal);
    w.U64(e.doc_frequency);
  }
  w.U64(manifest.dict_num_documents);
  w.U64(manifest.segments.size());
  for (const auto& seg : manifest.segments) {
    w.U64(seg.serial);
    w.Str(seg.file);
    w.U64(seg.checksum);
    w.U64(seg.num_docs);
  }
  w.Str(manifest.wal_file);

  const std::string& payload = w.buffer();
  uint64_t checksum = HashString(payload);
  std::string bytes;
  bytes.reserve(kHeaderSize + payload.size() + sizeof(checksum));
  bytes.append(kManifestMagic, sizeof(kManifestMagic));
  uint32_t version = kManifestVersion;
  uint32_t flags = 0;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.append(reinterpret_cast<const char*>(&flags), sizeof(flags));
  bytes.append(payload);
  bytes.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return common::WriteFileAtomic(path, bytes);
}

Result<Manifest> LoadManifest(const std::string& path) {
  std::string bytes;
  SSJOIN_RETURN_NOT_OK(common::ReadFile(path, &bytes));
  return DecodeManifest(bytes, "'" + path + "'");
}

Result<Manifest> DecodeManifest(std::string_view bytes,
                                const std::string& context) {
  if (bytes.size() < kHeaderSize + sizeof(uint64_t)) {
    return Status::IOError("manifest " + context + " is truncated");
  }
  if (std::memcmp(bytes.data(), kManifestMagic, sizeof(kManifestMagic)) != 0) {
    return Status::IOError("manifest " + context + " has a bad magic");
  }
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  if (version != kManifestVersion) {
    return Status::Invalid("manifest " + context + " has version " +
                           std::to_string(version) + ", expected " +
                           std::to_string(kManifestVersion));
  }
  const char* payload = bytes.data() + kHeaderSize;
  size_t payload_size = bytes.size() - kHeaderSize - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + bytes.size() - sizeof(stored), sizeof(stored));
  if (HashString(std::string_view(payload, payload_size)) != stored) {
    return Status::IOError("manifest " + context + " checksum mismatch");
  }

  common::PayloadReader r(payload, payload_size);
  Manifest m;
  uint8_t word_tokens = 0;
  uint64_t q = 0;
  SSJOIN_RETURN_NOT_OK(r.U8(&word_tokens));
  SSJOIN_RETURN_NOT_OK(r.U64(&q));
  SSJOIN_RETURN_NOT_OK(r.F64(&m.options.alpha));
  m.options.word_tokens = word_tokens != 0;
  m.options.q = static_cast<size_t>(q);
  SSJOIN_RETURN_NOT_OK(r.U64(&m.epoch));
  SSJOIN_RETURN_NOT_OK(r.U64(&m.last_sealed_seq));
  SSJOIN_RETURN_NOT_OK(r.U64(&m.next_serial));
  uint64_t num_entries = 0;
  SSJOIN_RETURN_NOT_OK(r.U64(&num_entries));
  // Every entry takes >= 20 payload bytes; a count beyond that is corruption
  // (and would otherwise drive a giant resize before the reads fail).
  if (num_entries > payload_size / 20) {
    return Status::IOError("manifest dictionary entry count implausible");
  }
  m.dict_entries.resize(static_cast<size_t>(num_entries));
  for (auto& e : m.dict_entries) {
    SSJOIN_RETURN_NOT_OK(r.Str(&e.token));
    SSJOIN_RETURN_NOT_OK(r.U32(&e.ordinal));
    SSJOIN_RETURN_NOT_OK(r.U64(&e.doc_frequency));
  }
  SSJOIN_RETURN_NOT_OK(r.U64(&m.dict_num_documents));
  uint64_t num_segments = 0;
  SSJOIN_RETURN_NOT_OK(r.U64(&num_segments));
  if (num_segments > payload_size / 32) {
    return Status::IOError("manifest segment count implausible");
  }
  m.segments.resize(static_cast<size_t>(num_segments));
  for (auto& seg : m.segments) {
    SSJOIN_RETURN_NOT_OK(r.U64(&seg.serial));
    SSJOIN_RETURN_NOT_OK(r.Str(&seg.file));
    SSJOIN_RETURN_NOT_OK(r.U64(&seg.checksum));
    SSJOIN_RETURN_NOT_OK(r.U64(&seg.num_docs));
  }
  SSJOIN_RETURN_NOT_OK(r.Str(&m.wal_file));
  if (!r.AtEnd()) {
    return Status::IOError("manifest payload has trailing bytes");
  }
  return m;
}

}  // namespace ssjoin::index
