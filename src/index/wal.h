#ifndef SSJOIN_INDEX_WAL_H_
#define SSJOIN_INDEX_WAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/result.h"
#include "filter/attr.h"

namespace ssjoin::index {

/// One logical mutation in the write-ahead log. `seq` is the index-wide
/// monotone operation number; records whose seq is at or below the
/// manifest's last_sealed_seq are stale (their effect is already inside a
/// sealed segment) and are skipped at replay.
struct WalRecord {
  enum Type : uint8_t { kUpsert = 1, kDelete = 2 };

  uint8_t type = kUpsert;
  uint64_t seq = 0;
  uint64_t doc_id = 0;
  std::string value;         // empty for deletes
  filter::AttrSet attrs;     // structured attributes; empty for deletes
};

/// \brief Append-only writer for the tail's write-ahead log.
///
/// File layout: an 8-byte magic, then per record
/// `[u32 body_len][body][u64 FNV-1a(body)]` where body is the
/// PayloadWriter encoding `[u8 type][u64 seq][u64 doc_id][str value]
/// [attribute set]`. The magic is "SSJWALV2"; any other magic (the retired
/// attribute-less "SSJWALV1" included) is rejected. Each append is flushed
/// to the OS before the mutation is applied, so a crashed process loses at
/// most the record it was writing — which the reader detects as a torn tail
/// and truncates.
class WalWriter {
 public:
  /// Creates (truncating) a new WAL at `path` and writes the magic.
  static Result<WalWriter> Create(const std::string& path);

  /// Opens an existing WAL for appending. The caller must have validated /
  /// truncated it with ReadWal first.
  static Result<WalWriter> OpenForAppend(const std::string& path);

  WalWriter(WalWriter&& other) noexcept : file_(other.file_) {
    other.file_ = nullptr;
  }
  WalWriter& operator=(WalWriter&& other) noexcept {
    if (this != &other) {
      Close();
      file_ = other.file_;
      other.file_ = nullptr;
    }
    return *this;
  }
  ~WalWriter() { Close(); }

  Status Append(const WalRecord& record);

  void Close() {
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
  }

 private:
  explicit WalWriter(std::FILE* file) : file_(file) {}

  std::FILE* file_ = nullptr;
};

/// Result of scanning a WAL: the cleanly-decoded records and the byte length
/// of the valid prefix (everything past it is a torn or corrupt tail the
/// caller should truncate before appending again).
struct WalReadResult {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;
};

/// Reads every intact record of the WAL at `path`. A torn or checksum-bad
/// tail terminates the scan cleanly (it is expected after a crash); a
/// missing file or bad magic is an error.
Result<WalReadResult> ReadWal(const std::string& path);

}  // namespace ssjoin::index

#endif  // SSJOIN_INDEX_WAL_H_
