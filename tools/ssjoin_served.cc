/// ssjoin_served — online fuzzy-lookup server over a unix domain socket.
///
/// Serves MutableFuzzyIndex lookups (the paper's §6 record-lookup scenario).
/// The standalone, shard-server and follower modes serve one
/// serve::LookupService, which owns the index, admission, deadlines and the
/// `serve.*` metrics; --shards and --coordinator serve a
/// shard::ShardedLookupIndex. Each lookup runs on its connection's thread,
/// which is joined soon after the connection closes. A follower swaps each replicated
/// epoch's index into its one service, so its counters keep counting across
/// syncs. The protocol is newline-delimited JSON (see src/serve/wire.h);
/// every request goes through one serve::Handler (src/serve/handler.h).
/// This file holds the flags, each mode's startup and the socket loop.
///
/// Examples:
///   # warm-start from a data dir built by `ssjoin_cli snapshot --out DIR`
///   ssjoin_served --data orgs.d --socket /tmp/ssjoin.sock
///
///   # cold-start straight from a CSV column
///   ssjoin_served --reference orgs.csv --col name --alpha 0.5
///                 --socket /tmp/ssjoin.sock
///
///   # then, from any client (or `ssjoin_cli lookup --socket ...`):
///   printf '{"op": "lookup", "query": "Mcrosoft Corp", "k": 3}\n'
///       | nc -U /tmp/ssjoin.sock

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/ssjoin.h"
#include "exec/metrics.h"
#include "filter/metrics.h"
#include "index/manifest.h"
#include "index/mutable_index.h"
#include "kernels/kernels.h"
#include "serve/handler.h"
#include "serve/lookup_service.h"
#include "shard/replication.h"
#include "shard/shard_client.h"
#include "shard/sharded_index.h"

namespace {

using namespace ssjoin;

int Usage() {
  std::fprintf(
      stderr,
      "usage: ssjoin_served (--data DIR | --reference FILE --col COL)\n"
      "                     --socket PATH [--alpha A] [--qgrams Q]\n"
      "                     [--max-queue N] [--k-default N]\n"
      "                     [--seal-threshold N] [--max-generations N]\n"
      "                     [--shards N] [--hedge-ms N] [--straggler-ms N]\n"
      "                     [--shard-server]\n"
      "       ssjoin_served --coordinator SOCK1,SOCK2,... --socket PATH\n"
      "                     [--hedge-ms N] [--straggler-ms N] [--no-degraded]\n"
      "                     [--admin-timeout-ms N]\n"
      "       ssjoin_served --follow LEADER_SOCK --data DIR --socket PATH\n"
      "                     [--sync-interval-ms N]\n"
      "  --data DIR       durable index directory: reopened (WAL replay) if it\n"
      "                   holds a MANIFEST (e.g. one written by ssjoin_cli\n"
      "                   snapshot), initialized from --reference otherwise\n"
      "  --reference FILE cold-start: build the index from this CSV\n"
      "  --col COL        CSV column holding the reference strings\n"
      "  --alpha A        min resemblance for a match (default 0.5)\n"
      "  --qgrams Q       use q-gram tokens instead of word tokens\n"
      "  --max-queue N    max lookups in flight; more are rejected with\n"
      "                   Unavailable (default 1024)\n"
      "  --k-default N    k when a lookup omits it (default 3)\n"
      "  --kernel T       intersection kernel tier: scalar|gallop|simd|auto\n"
      "                   (default auto; also via the SSJOIN_KERNEL env var)\n"
      "  --seal-threshold N   auto-seal the mutable tail at N docs (default 256)\n"
      "  --max-generations N  auto-compact beyond N sealed segments (default 4)\n"
      "modes:\n"
      "  --shards N       serve an in-process N-way sharded index (scatter-\n"
      "                   gather per lookup; results bit-identical to N=1)\n"
      "  --shard-server   serve as one shard of a --coordinator deployment:\n"
      "                   adds the shard-server ops below (single, follower)\n"
      "  --coordinator L  scatter-gather over --shard-server processes at the\n"
      "                   listed sockets (position = shard id); degraded\n"
      "                   partial responses when a shard is down unless\n"
      "                   --no-degraded\n"
      "  --hedge-ms N     re-issue a shard lookup unanswered after N ms, first\n"
      "                   answer wins (--shards, --coordinator; default 0: off)\n"
      "  --straggler-ms N count shards answering after N ms in shard.stragglers\n"
      "                   (--shards, --coordinator; default: hedge-ms)\n"
      "  --admin-timeout-ms N  coordinator wire budget of mutations, resync,\n"
      "                   seal and epoch (default 30000; 0: unbounded)\n"
      "  --follow SOCK    replicate the leader's sealed snapshots into --data\n"
      "                   and serve them read-only at the last sealed epoch\n"
      "ops (every mode): ping, lookup, upsert, delete, seal, compact, epoch,\n"
      "     stats (one-line JSON), metrics / stats+format=ndjson (header line,\n"
      "     then one NDJSON metric object per line), shutdown; every lookup\n"
      "     reply carries \"degraded\" and \"shards_ok\" (single: false, 1)\n"
      "shard-server ops (--shard-server only): slookup (exact hex-float\n"
      "     scores), upsert/delete with \"global\": true, gstats, gstats_reset,\n"
      "     dump, getvalue\n"
      "leader ops (single and follower with --data): repl_fetch\n"
      "mode ops: resync (--shards, --coordinator), sync (--follow)\n");
  return 2;
}

/// ServeLoop binds `<socket>` + this suffix, then renames it to `<socket>`.
constexpr char kBindSuffix[] = ".bind";

struct ServerState {
  const serve::Handler* handler = nullptr;
  int listen_fd = -1;
  std::atomic<bool> stop{false};
  std::mutex conn_mu;
  std::set<int> conn_fds;
  /// Connection threads that have ended and wait for ServeLoop to join them.
  std::vector<std::thread::id> finished;
};

/// Writes the whole buffer, riding out EINTR and short writes. Returns false
/// only when the peer is genuinely gone (EPIPE/ECONNRESET/EOF-like), which
/// tears down this one connection — never the accept loop.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // cannot make progress; avoid spinning
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Answers each request line of one connection in order. Lines are consumed
/// by offset and only newly read bytes are searched for '\n', so a long line
/// or a deep pipeline costs time linear in its bytes.
void ServeConnection(int fd, ServerState* state) {
  std::string buffer;
  size_t start = 0;    // first byte of the next line
  size_t scanned = 0;  // bytes [start, scanned) hold no '\n'
  char chunk[4096];
  for (;;) {
    size_t newline = buffer.find('\n', scanned);
    if (newline == std::string::npos) {
      buffer.erase(0, start);  // only the partial line's bytes move
      start = 0;
      scanned = buffer.size();
      ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;  // signal, not a dead client
      if (n <= 0) break;
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string_view line(buffer.data() + start, newline - start);
    start = scanned = newline + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    bool stop_after_reply = false;
    bool sent =
        WriteAll(fd, state->handler->Handle(line, &stop_after_reply) + "\n");
    if (stop_after_reply) {
      // Response is on the wire; now unblock the accept loop. The sweep in
      // ServeLoop nudges every other open connection.
      state->stop.store(true);
      ::shutdown(state->listen_fd, SHUT_RDWR);
    }
    if (!sent) break;
  }
  {
    // Deregister before close so the shutdown sweep never touches a
    // recycled descriptor.
    std::lock_guard<std::mutex> lock(state->conn_mu);
    state->conn_fds.erase(fd);
    state->finished.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

/// The index flags of the in-process modes. The match options (--alpha,
/// --qgrams) apply only when the index is created, not when a data dir is
/// reopened.
Result<index::MutableIndexOptions> IndexFlags(const Args& args) {
  index::MutableIndexOptions mopts;
  if (auto data = args.flags.find("data"); data != args.flags.end()) {
    mopts.data_dir = data->second;
  }
  SSJOIN_ASSIGN_OR_RETURN(mopts.seal_threshold,
                          SizeFlag(args, "seal-threshold", 256));
  SSJOIN_ASSIGN_OR_RETURN(mopts.max_generations,
                          SizeFlag(args, "max-generations", 4));
  SSJOIN_ASSIGN_OR_RETURN(mopts.match, MatchFlags(args));
  return mopts;
}

Result<std::unique_ptr<index::MutableFuzzyIndex>> BuildOrLoadIndex(
    const Args& args) {
  SSJOIN_ASSIGN_OR_RETURN(index::MutableIndexOptions mopts, IndexFlags(args));
  // A data dir that already holds a manifest wins over every other source:
  // reopen it (sealed segments + WAL replay).
  if (!mopts.data_dir.empty() &&
      std::filesystem::exists(mopts.data_dir + "/" + index::kManifestFileName)) {
    Timer t;
    auto index = index::MutableFuzzyIndex::Open(mopts);
    if (index.ok()) {
      auto stats = (*index)->GetStats();
      std::fprintf(stderr,
                   "opened data dir %s (%llu live docs, epoch %llu) in %.1f ms\n",
                   mopts.data_dir.c_str(),
                   static_cast<unsigned long long>(stats.live_docs),
                   static_cast<unsigned long long>(stats.epoch),
                   t.ElapsedMillis());
    }
    return index;
  }

  auto ref = args.flags.find("reference");
  auto col = args.flags.find("col");
  if (ref == args.flags.end() || col == args.flags.end()) {
    // A bare --data dir starts an empty index to be filled over the wire —
    // how a fresh shard server in a coordinator deployment comes up.
    if (!mopts.data_dir.empty()) {
      SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                              index::MutableFuzzyIndex::Create(mopts));
      std::fprintf(stderr, "created empty index in %s\n",
                   mopts.data_dir.c_str());
      return index;
    }
    return Status::Invalid("either --data or --reference/--col is required");
  }
  SSJOIN_ASSIGN_OR_RETURN(auto records,
                          ReadReferenceRecords(ref->second, col->second));
  Timer t;
  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                          index::MutableFuzzyIndex::Create(mopts));
  SSJOIN_RETURN_NOT_OK(index->BulkLoad(records));
  SSJOIN_RETURN_NOT_OK(index->Seal());
  std::fprintf(stderr, "built index over %zu reference strings in %.1f ms\n",
               records.size(), t.ElapsedMillis());
  return index;
}

/// Binds the unix socket and answers connections through `handler` until an
/// op (or signal) stops the server; then prints the final stats.
Result<int> ServeLoop(const std::string& socket_path,
                      const serve::Handler& handler, ServerState* state) {
  state->handler = &handler;
  state->listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (state->listen_fd < 0) return Status::IOError("socket() failed");
  // bind() creates the socket file before listen() lets a connect succeed,
  // and clients start as soon as the file exists. So bind a sibling name
  // and rename it into place once listening.
  const std::string bound_path = socket_path + kBindSuffix;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, bound_path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(bound_path.c_str());
  if (::bind(state->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(state->listen_fd);
    return Status::IOError("cannot bind '" + bound_path + "'");
  }
  if (::listen(state->listen_fd, 64) != 0) {
    ::close(state->listen_fd);
    ::unlink(bound_path.c_str());
    return Status::IOError("listen() failed");
  }
  if (::rename(bound_path.c_str(), socket_path.c_str()) != 0) {
    ::close(state->listen_fd);
    ::unlink(bound_path.c_str());
    return Status::IOError("cannot move the socket to '" + socket_path + "'");
  }
  std::printf("listening on %s\n", socket_path.c_str());
  std::fflush(stdout);

  // Each accept first joins the connection threads that have ended, so a
  // closed connection's thread stack is released instead of kept until
  // shutdown.
  std::map<std::thread::id, std::thread> connections;
  for (;;) {
    int fd = ::accept(state->listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (state->stop.load() || errno != EINTR) break;
      continue;
    }
    std::vector<std::thread::id> finished;
    {
      std::lock_guard<std::mutex> lock(state->conn_mu);
      finished.swap(state->finished);
      state->conn_fds.insert(fd);
    }
    for (std::thread::id id : finished) {
      auto it = connections.find(id);
      it->second.join();
      connections.erase(it);
    }
    std::thread conn(ServeConnection, fd, state);
    connections.emplace(conn.get_id(), std::move(conn));
  }
  ::close(state->listen_fd);
  // Nudge lingering connections so their threads observe EOF and exit.
  {
    std::lock_guard<std::mutex> lock(state->conn_mu);
    for (int fd : state->conn_fds) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& [id, conn] : connections) conn.join();
  ::unlink(socket_path.c_str());
  state->stop.store(true);
  bool unused = false;
  std::fprintf(stderr, "final stats: %s\n",
               handler.Handle(R"({"op": "stats"})", &unused).c_str());
  return 0;
}

/// The fan-out knobs both --shards and --coordinator accept.
Result<shard::FanoutOptions> FanoutFlags(const Args& args) {
  shard::FanoutOptions fanout;
  SSJOIN_ASSIGN_OR_RETURN(size_t hedge_ms, SizeFlag(args, "hedge-ms", 0));
  SSJOIN_ASSIGN_OR_RETURN(size_t straggler_ms, SizeFlag(args, "straggler-ms", 0));
  fanout.hedge_delay = std::chrono::milliseconds(hedge_ms);
  fanout.straggler_threshold = std::chrono::milliseconds(straggler_ms);
  return fanout;
}

/// Serves a fan-out (--shards or --coordinator) until shutdown.
Result<int> ServeFanout(const std::string& socket_path,
                        shard::ShardedLookupIndex* sharded, size_t default_k) {
  serve::Handler handler(sharded, default_k, /*read_only=*/false);
  shard::InstallResync(&handler, sharded);
  ServerState state;
  return ServeLoop(socket_path, handler, &state);
}

/// Serves one LookupService (standalone, shard server, follower) until
/// shutdown. The shard-internal ops (slookup, gstats, gstats_reset, dump,
/// getvalue, "global": true mutations) exist only with --shard-server: they
/// let a caller rewrite the scoring statistics, which only a coordinator
/// may do. `install` adds the mode's own ops; `state` is shared with the
/// follower's sync thread.
Result<int> ServeService(const Args& args, const std::string& socket_path,
                         serve::LookupService* service, size_t default_k,
                         const std::string& data_dir, bool read_only,
                         ServerState* state,
                         const std::function<void(serve::Handler*)>& install) {
  serve::Handler handler(service, default_k, read_only);
  if (args.flags.count("shard-server") > 0) {
    shard::InstallShardServerOps(&handler, service);
  }
  // A server with a data dir is a replication leader (chained followers
  // included).
  if (!data_dir.empty()) shard::InstallReplFetch(&handler, data_dir);
  if (install) install(&handler);
  Result<int> rc = ServeLoop(socket_path, handler, state);
  service->Shutdown();
  return rc;
}

Result<int> RunCoordinator(const Args& args, const std::string& socket_path,
                           const std::string& shard_list, size_t default_k) {
  SSJOIN_ASSIGN_OR_RETURN(shard::FanoutOptions fanout, FanoutFlags(args));
  SSJOIN_ASSIGN_OR_RETURN(size_t admin_ms,
                          SizeFlag(args, "admin-timeout-ms", 30000));
  SSJOIN_ASSIGN_OR_RETURN(
      std::unique_ptr<shard::ShardedLookupIndex> coordinator,
      shard::ShardedLookupIndex::Connect(SplitAndDropEmpty(shard_list, ","),
                                         std::chrono::milliseconds(admin_ms),
                                         fanout,
                                         args.flags.count("no-degraded") == 0));
  std::fprintf(stderr, "coordinating %u shard servers\n",
               coordinator->num_shards());
  return ServeFanout(socket_path, coordinator.get(), default_k);
}

Result<int> RunFollower(const Args& args, const std::string& socket_path,
                        const std::string& leader_socket, size_t default_k,
                        const serve::LookupServiceOptions& options) {
  auto data = args.flags.find("data");
  if (data == args.flags.end()) {
    return Status::Invalid("--follow requires --data DIR");
  }
  const std::string& dir = data->second;
  SSJOIN_ASSIGN_OR_RETURN(size_t interval_ms,
                          SizeFlag(args, "sync-interval-ms", 500));

  shard::WireFetcher fetcher(leader_socket);
  // First sync before serving. An unreachable leader is tolerated only when
  // a previously replicated manifest exists — stale reads beat no reads.
  Result<shard::SyncResult> first = shard::SyncFromLeader(fetcher, dir);
  if (!first.ok() &&
      !std::filesystem::exists(dir + "/" + index::kManifestFileName)) {
    return first.status();
  }

  index::MutableIndexOptions mopts;
  mopts.data_dir = dir;
  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                          index::MutableFuzzyIndex::Open(mopts));
  SSJOIN_ASSIGN_OR_RETURN(
      std::unique_ptr<serve::LookupService> service,
      serve::LookupService::Create(std::move(index), options));
  std::fprintf(stderr, "following %s at epoch %llu\n", leader_socket.c_str(),
               static_cast<unsigned long long>(service->index()->epoch()));

  // One replication round; swaps the freshly opened index into the service
  // when the leader had a new sealed epoch. Returns the `sync` op's reply.
  std::mutex sync_mu;
  auto sync_once = [&](const serve::Request&) -> Result<std::string> {
    std::lock_guard<std::mutex> lock(sync_mu);
    SSJOIN_ASSIGN_OR_RETURN(shard::SyncResult sr,
                            shard::SyncFromLeader(fetcher, dir));
    if (sr.updated) {
      SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> fresh,
                              index::MutableFuzzyIndex::Open(mopts));
      service->Replace(std::move(fresh));
    }
    return std::string("{\"ok\": true, \"updated\": ") +
           (sr.updated ? "true" : "false") + ", \"epoch\": " +
           std::to_string(service->index()->epoch()) + "}";
  };

  ServerState state;
  std::thread syncer([&] {
    while (!state.stop.load()) {
      for (size_t waited = 0; waited < interval_ms && !state.stop.load();
           waited += 50) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (state.stop.load()) break;
      Result<std::string> r = sync_once({});
      if (!r.ok()) {
        std::fprintf(stderr, "sync: %s\n", r.status().ToString().c_str());
      }
    }
  });
  Result<int> rc = ServeService(
      args, socket_path, service.get(), default_k, dir, /*read_only=*/true,
      &state, [&](serve::Handler* handler) {
        handler->Install("sync", false, sync_once);
      });
  state.stop.store(true);
  syncer.join();
  return rc;
}

Result<int> RunSharded(const Args& args, const std::string& socket_path,
                       size_t num_shards, size_t default_k,
                       const serve::LookupServiceOptions& options) {
  SSJOIN_ASSIGN_OR_RETURN(index::MutableIndexOptions mopts, IndexFlags(args));
  shard::ShardedIndexOptions sopts;
  sopts.num_shards = static_cast<uint32_t>(num_shards);
  sopts.match = mopts.match;
  sopts.data_dir = mopts.data_dir;
  sopts.seal_threshold = mopts.seal_threshold;
  sopts.max_generations = mopts.max_generations;
  sopts.service = options;
  SSJOIN_ASSIGN_OR_RETURN(sopts.fanout, FanoutFlags(args));

  std::unique_ptr<shard::ShardedLookupIndex> sharded;
  if (!sopts.data_dir.empty() &&
      std::filesystem::exists(sopts.data_dir + "/SHARDS")) {
    Timer t;
    SSJOIN_ASSIGN_OR_RETURN(sharded, shard::ShardedLookupIndex::Open(sopts));
    std::fprintf(stderr, "opened %u-shard data dir %s in %.1f ms\n",
                 sharded->num_shards(), sopts.data_dir.c_str(),
                 t.ElapsedMillis());
  } else {
    SSJOIN_ASSIGN_OR_RETURN(sharded, shard::ShardedLookupIndex::Create(sopts));
    auto ref = args.flags.find("reference");
    auto col = args.flags.find("col");
    if (ref != args.flags.end() && col != args.flags.end()) {
      Timer t;
      SSJOIN_ASSIGN_OR_RETURN(
          auto records, ReadReferenceRecords(ref->second, col->second));
      SSJOIN_RETURN_NOT_OK(sharded->BulkLoad(records));
      SSJOIN_RETURN_NOT_OK(sharded->Seal().status());
      std::fprintf(stderr,
                   "built %u-shard index over %zu reference strings in %.1f ms\n",
                   sharded->num_shards(), records.size(), t.ElapsedMillis());
    }
  }

  return ServeFanout(socket_path, sharded.get(), default_k);
}

Result<int> RunServer(const Args& args) {
  auto socket_it = args.flags.find("socket");
  if (socket_it == args.flags.end()) {
    return Status::Invalid("--socket PATH is required");
  }
  const std::string& socket_path = socket_it->second;
  if (socket_path.size() + std::strlen(kBindSuffix) >=
      sizeof(sockaddr_un{}.sun_path)) {
    return Status::Invalid("socket path too long");
  }
  SSJOIN_ASSIGN_OR_RETURN(size_t default_k, SizeFlag(args, "k-default", 3));

  if (auto it = args.flags.find("coordinator"); it != args.flags.end()) {
    return RunCoordinator(args, socket_path, it->second, default_k);
  }

  // Validate every numeric flag before the (possibly slow) index build, so
  // a typo'd flag fails in milliseconds instead of after a CSV load.
  serve::LookupServiceOptions options;
  SSJOIN_ASSIGN_OR_RETURN(options.max_queue, SizeFlag(args, "max-queue", 1024));

  if (auto it = args.flags.find("follow"); it != args.flags.end()) {
    return RunFollower(args, socket_path, it->second, default_k, options);
  }

  SSJOIN_ASSIGN_OR_RETURN(size_t num_shards, SizeFlag(args, "shards", 1));
  if (num_shards > 1) {
    return RunSharded(args, socket_path, num_shards, default_k, options);
  }

  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                          BuildOrLoadIndex(args));
  std::string data_dir = index->options().data_dir;
  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<serve::LookupService> service,
                          serve::LookupService::Create(std::move(index), options));
  ServerState state;
  return ServeService(args, socket_path, service.get(), default_k, data_dir,
                      /*read_only=*/false, &state, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  // Pre-create the core and exec metric names so the NDJSON export covers
  // all three layers even before the first lookup dispatches (the serve.*,
  // index.* and shard.* names come from the registries of the serving
  // instances, linked into the global one).
  core::RegisterCoreMetrics();
  exec::RegisterExecMetrics();
  kernels::RegisterKernelMetrics();
  filter::RegisterFilterMetrics();
  Args args = ParseArgs(argc, argv, /*with_command=*/false);
  if (args.flags.count("help") > 0 || argc < 2) return Usage();
  if (Status st = ApplyKernelFlag(args); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  Result<int> rc = RunServer(args);
  if (!rc.ok()) {
    std::fprintf(stderr, "error: %s\n", rc.status().ToString().c_str());
    return 1;
  }
  return *rc;
}
