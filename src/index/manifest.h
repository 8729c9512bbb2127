#ifndef SSJOIN_INDEX_MANIFEST_H_
#define SSJOIN_INDEX_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "text/dictionary.h"

namespace ssjoin::index {

/// The manifest file of a data directory: an "SSJSNAPS" container (magic,
/// u32 version, u32 flags, payload, u64 FNV-1a trailer) whose payload
/// describes a MutableFuzzyIndex's durable state: match options, epoch, the
/// global dictionary, the sealed-generation list (with per-segment file
/// checksums) and the active WAL's name. Version 4 is the only one read or
/// written; versions 1-3 (the retired immutable-index snapshots and the
/// pre-attribute manifest) are rejected with an error naming the version.
inline constexpr uint32_t kManifestVersion = 4;
inline constexpr char kManifestMagic[8] = {'S', 'S', 'J', 'S', 'N', 'A', 'P', 'S'};
inline constexpr char kManifestFileName[] = "MANIFEST";

/// Tokenization and similarity options of a lookup index. They are fixed at
/// Create and persisted in the manifest.
struct MatchOptions {
  /// Tokenization of both indexed values and queries: words, or q-grams.
  bool word_tokens = true;
  size_t q = 3;
  /// Minimum Jaccard resemblance for a match.
  double alpha = 0.5;

  /// Invalid unless alpha is in (0, 1] and, with q-gram tokens, q >= 1.
  Status Validate() const;
};

/// One sealed generation as recorded by the manifest. `checksum` is the
/// FNV-1a hash of the whole segment file; load refuses a file that does not
/// match (a half-written or swapped segment must never be trusted).
struct ManifestSegmentRef {
  uint64_t serial = 0;
  std::string file;  // basename inside the data directory
  uint64_t checksum = 0;
  uint64_t num_docs = 0;
};

struct Manifest {
  MatchOptions options;
  uint64_t epoch = 0;
  /// Sequence number of the last operation whose effect is inside a sealed
  /// segment; WAL records at or below it are stale and skipped at replay.
  uint64_t last_sealed_seq = 0;
  uint64_t next_serial = 1;
  std::vector<text::TokenDictionary::EntryData> dict_entries;
  uint64_t dict_num_documents = 0;
  std::vector<ManifestSegmentRef> segments;
  std::string wal_file;  // basename of the active WAL
};

/// Atomically writes the manifest (temp file + rename; see WriteFileAtomic).
Status SaveManifest(const Manifest& manifest, const std::string& path);

/// Loads and validates a manifest. Any version other than the current one
/// yields a clean Invalid status naming the version.
Result<Manifest> LoadManifest(const std::string& path);

/// Decodes and validates manifest bytes that arrived from somewhere
/// other than the local filesystem (replication fetches). `context` names
/// the source in error messages the way LoadManifest uses the path.
Result<Manifest> DecodeManifest(std::string_view bytes,
                                const std::string& context);

}  // namespace ssjoin::index

#endif  // SSJOIN_INDEX_MANIFEST_H_
