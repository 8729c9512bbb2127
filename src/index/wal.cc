#include "index/wal.h"

#include <cstring>

#include "common/atomic_file.h"
#include "common/hash.h"
#include "common/payload.h"

namespace ssjoin::index {

namespace {

constexpr char kWalMagic[8] = {'S', 'S', 'J', 'W', 'A', 'L', 'V', '2'};
// A record body is three scalars plus the value and attributes; anything
// claiming to be larger than this is corruption, not data.
constexpr uint32_t kMaxRecordBody = 1u << 30;

}  // namespace

Result<WalWriter> WalWriter::Create(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot create WAL '" + path + "'");
  }
  if (std::fwrite(kWalMagic, 1, sizeof(kWalMagic), f) != sizeof(kWalMagic) ||
      std::fflush(f) != 0) {
    std::fclose(f);
    return Status::IOError("cannot write WAL magic to '" + path + "'");
  }
  return WalWriter(f);
}

Result<WalWriter> WalWriter::OpenForAppend(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IOError("cannot open WAL '" + path + "' for appending");
  }
  return WalWriter(f);
}

Status WalWriter::Append(const WalRecord& record) {
  if (file_ == nullptr) {
    return Status::Internal("append to a closed WAL");
  }
  common::PayloadWriter body;
  body.U8(record.type);
  body.U64(record.seq);
  body.U64(record.doc_id);
  body.Str(record.value);
  record.attrs.EncodeTo(&body);
  const std::string& b = body.buffer();
  uint32_t len = static_cast<uint32_t>(b.size());
  uint64_t checksum = HashString(b);
  bool ok = std::fwrite(&len, 1, sizeof(len), file_) == sizeof(len) &&
            std::fwrite(b.data(), 1, b.size(), file_) == b.size() &&
            std::fwrite(&checksum, 1, sizeof(checksum), file_) == sizeof(checksum) &&
            std::fflush(file_) == 0;
  if (!ok) {
    return Status::IOError("short write to WAL");
  }
  return Status::OK();
}

Result<WalReadResult> ReadWal(const std::string& path) {
  std::string bytes;
  SSJOIN_RETURN_NOT_OK(common::ReadFile(path, &bytes));
  if (bytes.size() < sizeof(kWalMagic) ||
      std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::IOError("WAL '" + path + "' has a bad magic");
  }
  WalReadResult out;
  size_t pos = sizeof(kWalMagic);
  out.valid_bytes = pos;
  for (;;) {
    if (bytes.size() - pos < sizeof(uint32_t)) break;
    uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, sizeof(len));
    if (len > kMaxRecordBody ||
        bytes.size() - pos - sizeof(len) < len + sizeof(uint64_t)) {
      break;  // torn tail
    }
    const char* body = bytes.data() + pos + sizeof(len);
    uint64_t stored = 0;
    std::memcpy(&stored, body + len, sizeof(stored));
    if (HashString(std::string_view(body, len)) != stored) break;

    common::PayloadReader r(body, len);
    WalRecord rec;
    bool body_ok = r.U8(&rec.type).ok() && r.U64(&rec.seq).ok() &&
                   r.U64(&rec.doc_id).ok() && r.Str(&rec.value).ok() &&
                   filter::AttrSet::DecodeFrom(&r, &rec.attrs).ok();
    if (!body_ok || !r.AtEnd() ||
        (rec.type != WalRecord::kUpsert && rec.type != WalRecord::kDelete)) {
      break;  // checksum matched but the body is not a record we understand
    }
    out.records.push_back(std::move(rec));
    pos += sizeof(len) + len + sizeof(uint64_t);
    out.valid_bytes = pos;
  }
  return out;
}

}  // namespace ssjoin::index
