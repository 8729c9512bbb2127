#include "shard/wire_client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ssjoin::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline` for poll(); -1 when unbounded, 0 when
/// already past (poll returns immediately and we report timeout).
int PollBudget(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 60'000) return 60'000;  // re-check the clock periodically
  return static_cast<int>(left.count());
}

Status TimeoutError(const char* what) {
  return Status::DeadlineExceeded(std::string("wire ") + what +
                                  " timed out");
}

Status SocketError(const char* what) {
  return Status::IOError(std::string("wire ") + what + " failed: " +
                         std::strerror(errno));
}

}  // namespace

WireClient::~WireClient() { Close(); }

WireClient::WireClient(WireClient&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

WireClient& WireClient::operator=(WireClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buf_ = std::move(other.buf_);
    other.fd_ = -1;
  }
  return *this;
}

void WireClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

Result<WireClient> WireClient::Connect(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::Invalid("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return SocketError("socket");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int saved = errno;
    ::close(fd);
    errno = saved;
    return Status::Unavailable("cannot connect to '" + socket_path +
                               "': " + std::strerror(saved));
  }
  return WireClient(fd);
}

Result<std::string> WireClient::Call(std::string_view line,
                                     std::chrono::milliseconds timeout) {
  if (fd_ < 0) return Status::Unavailable("wire client is not connected");
  bool has_deadline = timeout.count() > 0;
  Clock::time_point deadline = Clock::now() + timeout;

  std::string out(line);
  out.push_back('\n');
  size_t off = 0;
  while (off < out.size()) {
    pollfd pfd{fd_, POLLOUT, 0};
    int pr = ::poll(&pfd, 1, PollBudget(has_deadline, deadline));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return SocketError("poll");
    }
    if (pr == 0) return TimeoutError("write");
    ssize_t n = ::write(fd_, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return SocketError("write");
    }
    if (n == 0) return Status::IOError("wire peer closed during write");
    off += static_cast<size_t>(n);
  }

  // The read gets what is left of the budget (at least 1 ms).
  if (has_deadline) {
    timeout = std::max(std::chrono::milliseconds(1),
                       std::chrono::ceil<std::chrono::milliseconds>(
                           deadline - Clock::now()));
  }
  return ReadLine(timeout);
}

Status WireClient::ReadUntil(std::chrono::milliseconds timeout,
                             const std::function<bool()>& done,
                             const char* read, const char* part) {
  if (fd_ < 0) return Status::Unavailable("wire client is not connected");
  bool has_deadline = timeout.count() > 0;
  Clock::time_point deadline = Clock::now() + timeout;
  while (!done()) {
    pollfd pfd{fd_, POLLIN, 0};
    int pr = ::poll(&pfd, 1, PollBudget(has_deadline, deadline));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return SocketError("poll");
    }
    if (pr == 0) return TimeoutError(read);
    char chunk[65536];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return SocketError("read");
    }
    if (n == 0) return Status::IOError(std::string("wire peer closed mid-") + part);
    buf_.append(chunk, static_cast<size_t>(n));
  }
  return Status::OK();
}

Result<std::string> WireClient::ReadLine(std::chrono::milliseconds timeout) {
  size_t scanned = 0;  // buf_[0, scanned) holds no '\n'
  size_t nl = std::string::npos;
  SSJOIN_RETURN_NOT_OK(ReadUntil(
      timeout,
      [&] {
        nl = buf_.find('\n', scanned);
        scanned = buf_.size();
        return nl != std::string::npos;
      },
      "read", "response"));
  std::string line = buf_.substr(0, nl);
  buf_.erase(0, nl + 1);
  return line;
}

Result<std::string> WireClient::ReadRaw(size_t n,
                                        std::chrono::milliseconds timeout) {
  SSJOIN_RETURN_NOT_OK(ReadUntil(
      timeout, [&] { return buf_.size() >= n; }, "raw read", "body"));
  std::string result = buf_.substr(0, n);
  buf_.erase(0, n);
  return result;
}

namespace {

Status StatusFromWire(const std::string& code, const std::string& message) {
  if (code == "Deadline exceeded") return Status::DeadlineExceeded(message);
  if (code == "Unavailable") return Status::Unavailable(message);
  if (code == "Invalid argument") return Status::Invalid(message);
  if (code == "Key error") return Status::KeyError(message);
  return Status::IOError(code + ": " + message);
}

}  // namespace

Result<std::map<std::string, serve::JsonScalar>> CallExpectOk(
    WireClient& client, std::string_view line,
    std::chrono::milliseconds timeout) {
  SSJOIN_ASSIGN_OR_RETURN(std::string reply, client.Call(line, timeout));
  SSJOIN_ASSIGN_OR_RETURN(auto obj, serve::ParseJsonObject(reply));
  auto field = [&](const char* key, const char* fallback) {
    auto it = obj.find(key);
    return it != obj.end() && it->second.type == serve::JsonScalar::Type::kString
               ? it->second.str
               : std::string(fallback);
  };
  auto ok = obj.find("ok");
  if (ok == obj.end() || ok->second.type != serve::JsonScalar::Type::kBool) {
    return Status::IOError("server reply lacks 'ok'");
  }
  if (!ok->second.boolean) {
    return StatusFromWire(field("code", "IO error"),
                          field("error", "server reported failure"));
  }
  return obj;
}

std::string FormatHexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

Result<double> ParseHexDouble(std::string_view s) {
  // Accept exactly the shape FormatHexDouble ("%a") emits:
  // -?0x<hex>(.<hex>*)?p[+-]?<dec>. Bare strtod would also take "+1", "01",
  // " 1", decimal literals and "inf" — none of which a well-behaved shard
  // ever sends, so they indicate a corrupt or hostile peer and must fail
  // loudly instead of merging a garbage score.
  size_t i = 0;
  auto hex_digit = [&] {
    return i < s.size() && std::isxdigit(static_cast<unsigned char>(s[i]));
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (s.compare(i, 2, "0x") != 0) {
    return Status::Invalid("bad hex-float '" + std::string(s) + "'");
  }
  i += 2;
  if (!hex_digit()) {
    return Status::Invalid("bad hex-float '" + std::string(s) + "'");
  }
  while (hex_digit()) ++i;
  if (i < s.size() && s[i] == '.') {
    ++i;
    while (hex_digit()) ++i;
  }
  if (i >= s.size() || s[i] != 'p') {
    return Status::Invalid("bad hex-float '" + std::string(s) + "'");
  }
  ++i;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  auto dec_digit = [&] {
    return i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]));
  };
  if (!dec_digit()) {
    return Status::Invalid("bad hex-float '" + std::string(s) + "'");
  }
  while (dec_digit()) ++i;
  if (i != s.size()) {
    return Status::Invalid("bad hex-float '" + std::string(s) + "'");
  }

  std::string z(s);
  char* end = nullptr;
  double v = std::strtod(z.c_str(), &end);
  if (end != z.c_str() + z.size() || !std::isfinite(v)) {
    return Status::Invalid("bad hex-float '" + z + "'");
  }
  return v;
}

std::string PackNetstrings(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    out += std::to_string(item.size());
    out.push_back(':');
    out += item;
    out.push_back(',');
  }
  return out;
}

Result<std::vector<std::string>> UnpackNetstrings(std::string_view s) {
  std::vector<std::string> items;
  size_t i = 0;
  while (i < s.size()) {
    size_t colon = s.find(':', i);
    if (colon == std::string_view::npos || colon == i ||
        colon - i > 19) {  // 19 digits > any sane length
      return Status::Invalid("malformed netstring length");
    }
    uint64_t len = 0;
    for (size_t j = i; j < colon; ++j) {
      char c = s[j];
      if (c < '0' || c > '9') return Status::Invalid("malformed netstring length");
      len = len * 10 + static_cast<uint64_t>(c - '0');
    }
    size_t body = colon + 1;
    if (body + len + 1 > s.size() || s[body + len] != ',') {
      return Status::Invalid("truncated netstring");
    }
    items.emplace_back(s.substr(body, len));
    i = body + len + 1;
  }
  return items;
}

}  // namespace ssjoin::shard
