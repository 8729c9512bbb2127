#ifndef SSJOIN_SHARD_WIRE_CLIENT_H_
#define SSJOIN_SHARD_WIRE_CLIENT_H_

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "serve/wire.h"

namespace ssjoin::shard {

/// \brief Client end of ssjoin_served's newline-delimited-JSON protocol over
/// a unix-domain socket: one request line out, one response line back.
///
/// Timeouts are absolute-budget style: every Call gets a deadline and poll()s
/// toward it, so a stalled server costs the caller at most the budget — the
/// coordinator's remaining-deadline propagation depends on this. A zero
/// timeout means block indefinitely (administrative calls).
class WireClient {
 public:
  WireClient() = default;
  ~WireClient();
  WireClient(WireClient&& other) noexcept;
  WireClient& operator=(WireClient&& other) noexcept;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  static Result<WireClient> Connect(const std::string& socket_path);

  bool connected() const { return fd_ >= 0; }

  /// Sends `line` (newline appended) and reads one response line (newline
  /// stripped). `timeout` bounds the whole round trip; zero = no bound.
  Result<std::string> Call(std::string_view line,
                           std::chrono::milliseconds timeout);

  /// Reads the next response line (newline stripped) without sending, e.g.
  /// the lines a `metrics` header announces; `timeout` as in Call.
  Result<std::string> ReadLine(std::chrono::milliseconds timeout);

  /// Reads exactly `n` raw bytes — the body of a length-prefixed response
  /// (repl_fetch). Bytes already buffered from line reads are consumed first.
  Result<std::string> ReadRaw(size_t n, std::chrono::milliseconds timeout);

 private:
  explicit WireClient(int fd) : fd_(fd) {}
  void Close();
  /// Reads into buf_ until `done()` holds, within `timeout` (zero = no
  /// bound); `read` and `part` name the read and the unfinished part in
  /// timeout and early-EOF errors.
  Status ReadUntil(std::chrono::milliseconds timeout,
                   const std::function<bool()>& done, const char* read,
                   const char* part);

  int fd_ = -1;
  std::string buf_;  // bytes read past the last returned line
};

/// Sends `line` on `client` and returns the reply object when it says
/// {"ok": true}. An {"ok": false} reply comes back as the status code the
/// server reported, so wire hops do not flatten "deadline exceeded on the
/// shard" into a generic IO error (the fan-out's failure policy keys on the
/// code); an unparsable reply is an IOError.
Result<std::map<std::string, serve::JsonScalar>> CallExpectOk(
    WireClient& client, std::string_view line,
    std::chrono::milliseconds timeout);

/// \name Exact-value encodings of the shard wire protocol
///
/// Similarities cross the wire as C99 hex-float literals ("%a"), which
/// round-trip IEEE doubles exactly — the multi-process tier inherits the
/// in-process bit-identity contract only because no decimal rounding ever
/// touches a score. Document values cross as concatenated netstrings
/// ("<len>:<bytes>,"), immune to every byte the values may contain.
/// @{
std::string FormatHexDouble(double v);
Result<double> ParseHexDouble(std::string_view s);
std::string PackNetstrings(const std::vector<std::string>& items);
Result<std::vector<std::string>> UnpackNetstrings(std::string_view s);
/// @}

}  // namespace ssjoin::shard

#endif  // SSJOIN_SHARD_WIRE_CLIENT_H_
