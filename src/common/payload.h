#ifndef SSJOIN_COMMON_PAYLOAD_H_
#define SSJOIN_COMMON_PAYLOAD_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/result.h"

namespace ssjoin::common {

/// \brief Appends fixed-width little-endian scalars and length-prefixed
/// blobs to a growing payload buffer. The wire format shared by index
/// manifests, sealed segments and the WAL.
class PayloadWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    buf_.append(s);
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    U64(v.size());
    if (!v.empty()) Raw(v.data(), v.size() * sizeof(T));
  }

  const std::string& buffer() const { return buf_; }

 private:
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  std::string buf_;
};

/// \brief Bounds-checked reader over a payload; every accessor fails with a
/// "truncated" status instead of reading past the end.
class PayloadReader {
 public:
  PayloadReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit PayloadReader(std::string_view bytes)
      : PayloadReader(bytes.data(), bytes.size()) {}

  Status U8(uint8_t* out) { return Raw(out, sizeof(*out)); }
  Status U32(uint32_t* out) { return Raw(out, sizeof(*out)); }
  Status U64(uint64_t* out) { return Raw(out, sizeof(*out)); }
  Status F64(double* out) { return Raw(out, sizeof(*out)); }

  Status Str(std::string* out) {
    uint64_t n = 0;
    SSJOIN_RETURN_NOT_OK(U64(&n));
    if (n > Remaining()) return Truncated();
    out->assign(data_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return Status::OK();
  }

  template <typename T>
  Status Vec(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    SSJOIN_RETURN_NOT_OK(U64(&n));
    if (n > Remaining() / sizeof(T)) return Truncated();
    out->resize(static_cast<size_t>(n));
    if (n > 0) {
      std::memcpy(out->data(), data_ + pos_, static_cast<size_t>(n) * sizeof(T));
      pos_ += static_cast<size_t>(n) * sizeof(T);
    }
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == size_; }

 private:
  size_t Remaining() const { return size_ - pos_; }
  static Status Truncated() {
    return Status::IOError("payload truncated");
  }
  Status Raw(void* out, size_t n) {
    if (n > Remaining()) return Truncated();
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace ssjoin::common

#endif  // SSJOIN_COMMON_PAYLOAD_H_
