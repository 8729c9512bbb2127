#include "shard/replication.h"

#include <chrono>
#include <filesystem>

#include "common/atomic_file.h"
#include "common/hash.h"
#include "index/manifest.h"
#include "serve/handler.h"
#include "shard/wire_client.h"

namespace ssjoin::shard {

namespace {

namespace fs = std::filesystem;

/// A fetched file name is leader-controlled input; confine it to a plain
/// basename so a compromised or confused leader cannot direct writes outside
/// the follower's directory.
bool SafeBasename(const std::string& name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string::npos &&
         name.find('\\') == std::string::npos;
}

/// True when the local file exists and already hashes to `checksum`.
bool LocalSegmentCurrent(const std::string& path, uint64_t checksum) {
  std::string bytes;
  if (!common::ReadFile(path, &bytes).ok()) return false;
  return HashString(bytes) == checksum;
}

}  // namespace

Result<std::string> FileFetcher::Fetch(const std::string& name) {
  if (!SafeBasename(name)) {
    return Status::Invalid("refusing to fetch non-basename '" + name + "'");
  }
  std::string path = dir_ + "/" + name;
  if (!fs::exists(path)) {
    return Status::KeyError("leader has no file '" + name + "'");
  }
  std::string bytes;
  SSJOIN_RETURN_NOT_OK(common::ReadFile(path, &bytes));
  return bytes;
}

Result<std::string> WireFetcher::Fetch(const std::string& name) {
  SSJOIN_ASSIGN_OR_RETURN(WireClient client,
                          WireClient::Connect(leader_socket_));
  std::string line = "{\"op\": \"repl_fetch\", \"name\": \"" +
                     serve::JsonEscape(name) + "\"}";
  auto header = CallExpectOk(client, line, std::chrono::milliseconds(30000));
  // Past a missing file or a timeout, a failed fetch is an IOError.
  StatusCode code = header.status().code();
  if (!header.ok() && code != StatusCode::kKeyError &&
      code != StatusCode::kDeadlineExceeded) {
    return Status::IOError(header.status().message());
  }
  SSJOIN_RETURN_NOT_OK(header.status());
  auto len = header->find("len");
  if (len == header->end()) {
    return Status::IOError("repl_fetch header lacks 'len'");
  }
  SSJOIN_ASSIGN_OR_RETURN(uint64_t n, serve::UintFromJson(len->second));
  return client.ReadRaw(n, std::chrono::milliseconds(60000));
}

void InstallReplFetch(serve::Handler* handler, const std::string& data_dir) {
  handler->Install(
      "repl_fetch", false,
      [data_dir](const serve::Request& req) -> Result<std::string> {
        SSJOIN_ASSIGN_OR_RETURN(std::string name,
                                serve::StringField(req, "name"));
        Result<std::string> bytes = FileFetcher(data_dir).Fetch(name);
        StatusCode code = bytes.status().code();
        if (code == StatusCode::kInvalidArgument) {
          return Status::Invalid("repl_fetch name must be a basename");
        }
        if (code == StatusCode::kKeyError) {
          return Status::KeyError("no file '" + name + "'");
        }
        SSJOIN_RETURN_NOT_OK(bytes.status());
        // The server's trailing newline lands after the body;
        // WireClient::ReadRaw consumes exactly `len`.
        return "{\"ok\": true, \"len\": " + std::to_string(bytes->size()) +
               "}\n" + *bytes;
      });
}

Result<SyncResult> SyncFromLeader(Fetcher& fetcher,
                                  const std::string& local_dir) {
  SSJOIN_ASSIGN_OR_RETURN(std::string manifest_bytes,
                          fetcher.Fetch(index::kManifestFileName));
  SSJOIN_ASSIGN_OR_RETURN(
      index::Manifest manifest,
      index::DecodeManifest(manifest_bytes, "fetched from leader"));

  SyncResult result;
  result.epoch = manifest.epoch;

  std::string local_manifest_path =
      local_dir + "/" + index::kManifestFileName;
  std::string local_manifest;
  if (common::ReadFile(local_manifest_path, &local_manifest).ok() &&
      local_manifest == manifest_bytes) {
    return result;  // byte-identical manifest: nothing to do
  }

  std::error_code ec;
  fs::create_directories(local_dir, ec);
  if (ec) {
    return Status::IOError("cannot create follower directory '" + local_dir +
                           "': " + ec.message());
  }

  for (const auto& seg : manifest.segments) {
    if (!SafeBasename(seg.file)) {
      return Status::IOError("leader manifest references unsafe name '" +
                             seg.file + "'");
    }
    std::string local_path = local_dir + "/" + seg.file;
    if (LocalSegmentCurrent(local_path, seg.checksum)) continue;
    SSJOIN_ASSIGN_OR_RETURN(std::string bytes, fetcher.Fetch(seg.file));
    if (HashString(bytes) != seg.checksum) {
      return Status::IOError("segment '" + seg.file +
                             "' fetched from leader fails its manifest "
                             "checksum; aborting sync");
    }
    SSJOIN_RETURN_NOT_OK(common::WriteFileAtomic(local_path, bytes));
    ++result.segments_fetched;
  }

  // Commit point: every referenced segment is verified on disk, so the new
  // manifest can become the follower's truth. A crash before this line
  // leaves the previous manifest serving its own (still complete) files.
  SSJOIN_RETURN_NOT_OK(
      common::WriteFileAtomic(local_manifest_path, manifest_bytes));
  result.updated = true;
  return result;
}

}  // namespace ssjoin::shard
