#ifndef SSJOIN_SHARD_REPLICATION_H_
#define SSJOIN_SHARD_REPLICATION_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/result.h"

namespace ssjoin::serve {
class Handler;
}  // namespace ssjoin::serve

namespace ssjoin::shard {

/// \brief Transport for pulling a leader's durable files by basename.
///
/// Sealed-snapshot replication is transport-agnostic: the follower drives one
/// Fetcher, whether the bytes come off a local directory (FileFetcher, also
/// the unit-test double) or over the wire from a running server (WireFetcher
/// calling the leader's `repl_fetch` op). Fetch returns the complete file
/// contents or a status (KeyError when the leader has no such file).
class Fetcher {
 public:
  virtual ~Fetcher() = default;
  virtual Result<std::string> Fetch(const std::string& name) = 0;
};

/// Reads the leader's files straight from a directory — deployments with a
/// shared filesystem, and every replication unit test.
class FileFetcher : public Fetcher {
 public:
  explicit FileFetcher(std::string dir) : dir_(std::move(dir)) {}
  Result<std::string> Fetch(const std::string& name) override;

 private:
  std::string dir_;
};

/// Fetches from a leader server's `repl_fetch` op, one fresh connection per
/// file: a header line with the byte count, then the raw body.
class WireFetcher : public Fetcher {
 public:
  explicit WireFetcher(std::string leader_socket)
      : leader_socket_(std::move(leader_socket)) {}
  Result<std::string> Fetch(const std::string& name) override;

 private:
  std::string leader_socket_;
};

/// The leader side: installs `repl_fetch` on `handler`, answering with a
/// FileFetcher over `data_dir` as the header line {"ok": true, "len": N}
/// followed by the N raw bytes.
void InstallReplFetch(serve::Handler* handler, const std::string& data_dir);

/// What one replication round did.
struct SyncResult {
  bool updated = false;        // a new manifest was committed locally
  uint64_t epoch = 0;          // epoch of the manifest now on local disk
  size_t segments_fetched = 0;  // segment files pulled this round
};

/// \brief One pull-based replication round: make `local_dir` serve the
/// leader's last *sealed* state.
///
/// Protocol (follower-driven, idempotent, crash-safe):
///   1. Fetch the leader's MANIFEST bytes. If they equal the local MANIFEST
///      byte-for-byte, the follower is current — done (updated=false).
///   2. Decode and validate the fetched manifest (magic, version, payload
///      checksum) *before* trusting any name inside it.
///   3. For every segment the manifest references and the follower is
///      missing (or holds with a mismatched checksum): fetch it, verify the
///      FNV checksum against the manifest entry, write it atomically. A
///      corrupt fetch fails the round and leaves the old state serving.
///   4. Only after every referenced segment is verified on disk, atomically
///      write the MANIFEST. The manifest is the commit point: a crash
///      anywhere earlier leaves the previous manifest (and its complete
///      segment set) intact.
///
/// The WAL is deliberately NOT replicated: followers serve at the leader's
/// last published *sealed* epoch, so unsealed tail mutations become visible
/// on the follower only after the leader's next Seal. Reopening the synced
/// directory (MutableFuzzyIndex::Open) starts a fresh empty WAL.
Result<SyncResult> SyncFromLeader(Fetcher& fetcher,
                                  const std::string& local_dir);

}  // namespace ssjoin::shard

#endif  // SSJOIN_SHARD_REPLICATION_H_
