/// The two serving workloads: the real ssjoin_served binary, spawned on a
/// unix socket over a seeded reference CSV and driven closed-loop from this
/// process, so request bytes in to reply bytes out are on the clock.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datagen/address_gen.h"
#include "datagen/error_model.h"
#include "engine/csv.h"
#include "index/mutable_index.h"
#include "obs/metrics.h"
#include "serve/wire.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace ssjoin;
using Clock = std::chrono::steady_clock;

constexpr size_t kReferenceSize = 20000;
constexpr double kAlpha = 0.35;
constexpr size_t kTopK = 3;
constexpr size_t kSetupSpawns = 7;
constexpr size_t kChurnQueries = 1000;
/// Cold queries generated per second of the run: about three times the
/// measured rate (2-3K lookups/s on 4 cores), so no query repeats unless
/// lookups get that much faster. A run that does repeat one says so in its
/// descriptor (queries_repeated).
constexpr size_t kColdQueriesPerSecond = 8000;
/// Under churn the Zipf ranking drifts: every kZipfDriftEvery lookups a
/// reader's rank-0 query moves one place along the pool. The head then
/// visits a few hundred queries per run instead of resting on the few that
/// one seed happens to make hot, while short-range repetition (what the
/// cache sees) keeps the Zipf shape.
constexpr size_t kZipfDriftEvery = 16;
constexpr size_t kProbeQueries = 200;
constexpr size_t kReplicaLookups = 2000;
constexpr size_t kReplicaUpserts = 300;
constexpr size_t kOracleThreads = 3;
const char* const kWalPolicy = "fflush per record, no fsync";

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// The server process and its wire.

/// One spawned ssjoin_served. The destructor kills and reaps a server that
/// is still running, so no exit path leaves a process behind.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv, const std::string& log_path) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    if (posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() {
    if (pid_ > 0 && !WaitExit(0)) {
      ::kill(pid_, SIGKILL);
      WaitExit(10000);
    }
  }

  int pid() const { return pid_; }
  bool running() {
    if (pid_ <= 0) return false;
    return ::waitpid(pid_, nullptr, WNOHANG) == 0;
  }

  /// Waits up to `timeout_ms` for the process to exit; true once reaped.
  bool WaitExit(int timeout_ms) {
    if (pid_ <= 0) return true;
    auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      pid_t r = ::waitpid(pid_, nullptr, WNOHANG);
      if (r == pid_ || (r < 0 && errno == ECHILD)) {
        pid_ = -1;
        return true;
      }
      if (Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

 private:
  pid_t pid_ = -1;
};

/// One client connection speaking the newline-delimited JSON protocol.
class Connection {
 public:
  explicit Connection(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  /// Sends `request` plus '\n' and reads one reply line (without '\n').
  bool Call(const std::string& request, std::string* reply) {
    return Send(request) && ReadLine(reply);
  }

  bool Send(const std::string& request) {
    if (fd_ < 0) return false;
    std::string data = request + "\n";
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  bool ReadLine(std::string* line) {
    for (;;) {
      size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[8192];
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  size_t scanned_ = 0;
};

/// Polls the socket until a ping succeeds; false if the server died or
/// `timeout_s` passed.
bool WaitReady(ServerProcess* server, const std::string& socket_path, double timeout_s) {
  auto deadline = Clock::now() + std::chrono::duration<double>(timeout_s);
  while (Clock::now() < deadline) {
    if (!server->running()) return false;
    Connection conn(socket_path);
    std::string reply;
    if (conn.ok() && conn.Call("{\"op\": \"ping\"}", &reply) &&
        reply.rfind("{\"ok\": true", 0) == 0) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

bool Shutdown(ServerProcess* server, const std::string& socket_path) {
  {
    Connection conn(socket_path);
    std::string reply;
    if (conn.ok()) conn.Call("{\"op\": \"shutdown\"}", &reply);
  }
  return server->WaitExit(20000);
}

/// Reads the registry export of the `metrics` op: a header line announcing
/// the line count, then one flat JSON object per metric.
bool ReadServerMetrics(const std::string& socket_path, ServerMetrics* out) {
  Connection conn(socket_path);
  std::string header;
  if (!conn.ok() || !conn.Call("{\"op\": \"metrics\"}", &header)) return false;
  auto head = serve::ParseJsonObject(header);
  if (!head.ok() || head->count("metrics") == 0) return false;
  auto lines = static_cast<size_t>(head->at("metrics").num);
  for (size_t i = 0; i < lines; ++i) {
    std::string line;
    if (!conn.ReadLine(&line)) return false;
    auto obj = serve::ParseJsonObject(line);
    if (!obj.ok() || obj->count("metric") == 0) return false;
    ServerMetric m;
    if (auto it = obj->find("value"); it != obj->end()) m.value = it->second.num;
    if (auto it = obj->find("count"); it != obj->end()) m.count = it->second.num;
    if (auto it = obj->find("sum"); it != obj->end()) m.sum = it->second.num;
    (*out)[obj->at("metric").str] = m;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Inputs and replies.

std::string LookupLine(const std::string& query) {
  return "{\"op\": \"lookup\", \"query\": \"" + serve::JsonEscape(query) +
         "\", \"k\": " + std::to_string(kTopK) + "}";
}

/// One lookup reply reduced to what the oracle compares: ids in rank order
/// and the similarities as the server prints them.
struct Answer {
  std::vector<uint64_t> ids;
  std::vector<std::string> sims;
  bool operator==(const Answer& o) const { return ids == o.ids && sims == o.sims; }
};

/// Parses {"ok": true, "matches": [{"ref": N, "similarity": X, ...}, ...]}.
/// Values are JSON-escaped by the server, so the '{"ref": ' marker cannot
/// occur inside one.
std::optional<Answer> ParseLookupReply(const std::string& reply) {
  if (reply.rfind("{\"ok\": true", 0) != 0) return std::nullopt;
  size_t pos = reply.find("\"matches\": [");
  if (pos == std::string::npos || reply.back() != '}') return std::nullopt;
  Answer a;
  const std::string ref = "{\"ref\": ", sim = ", \"similarity\": ";
  while ((pos = reply.find(ref, pos)) != std::string::npos) {
    pos += ref.size();
    size_t id_end = reply.find(sim, pos);
    if (id_end == std::string::npos) return std::nullopt;
    char* end = nullptr;
    a.ids.push_back(std::strtoull(reply.c_str() + pos, &end, 10));
    if (end != reply.c_str() + id_end) return std::nullopt;
    size_t s_begin = id_end + sim.size();
    size_t s_end = reply.find(',', s_begin);
    if (s_end == std::string::npos) return std::nullopt;
    a.sims.push_back(reply.substr(s_begin, s_end - s_begin));
    pos = s_end;
  }
  return a;
}

Answer AnswerOf(const std::vector<index::MutableFuzzyIndex::Match>& matches) {
  Answer a;
  for (const auto& m : matches) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", m.similarity);
    a.ids.push_back(m.id);
    a.sims.push_back(buf);
  }
  return a;
}

/// A churn lookup reply is well-formed when it parses, holds at most k
/// matches of known ids and every similarity is within [alpha, 1].
bool WellFormed(const std::optional<Answer>& a) {
  if (!a || a->ids.size() > kTopK) return false;
  for (size_t i = 0; i < a->ids.size(); ++i) {
    double s = std::atof(a->sims[i].c_str());
    if (a->ids[i] >= kReferenceSize || s < kAlpha - 1e-6 || s > 1.0 + 1e-6) return false;
  }
  return true;
}

std::vector<std::string> DirtyQueries(const std::vector<std::string>& master,
                                      size_t n, Rng* rng) {
  datagen::ErrorModelOptions errors;
  errors.char_edits_mean = 1.5;
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  out.reserve(n);
  while (out.size() < n) {
    std::string q =
        datagen::CorruptRecord(master[rng->Uniform(master.size())], {}, errors, rng);
    if (!q.empty() && seen.insert(q).second) out.push_back(std::move(q));
  }
  return out;
}

bool WriteReferenceCsv(const std::vector<std::string>& records, const std::string& path) {
  std::ofstream out(path);
  out << "name\n";
  for (const std::string& r : records) {
    std::string quoted = "\"";
    for (char c : r) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    out << quoted << "\"\n";
  }
  return static_cast<bool>(out.flush());
}

Result<std::vector<std::pair<uint64_t, std::string>>> ReadReference(
    const std::string& csv_path) {
  SSJOIN_ASSIGN_OR_RETURN(engine::Table table, engine::ReadCsvFile(csv_path));
  SSJOIN_ASSIGN_OR_RETURN(size_t c, table.schema().FieldIndex("name"));
  std::vector<std::pair<uint64_t, std::string>> records;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    records.emplace_back(r, table.GetValue(c, r).ToString());
  }
  return records;
}

Result<std::unique_ptr<index::MutableFuzzyIndex>> BuildIndex(
    const std::vector<std::pair<uint64_t, std::string>>& records,
    const std::string& data_dir) {
  index::MutableIndexOptions opts;
  opts.match.alpha = kAlpha;
  opts.data_dir = data_dir;
  SSJOIN_ASSIGN_OR_RETURN(auto idx, index::MutableFuzzyIndex::Create(opts));
  SSJOIN_RETURN_NOT_OK(idx->BulkLoad(records));
  SSJOIN_RETURN_NOT_OK(idx->Seal());
  return idx;
}

// ---------------------------------------------------------------------------
// Closed-loop traffic.

/// What one client connection saw during a measured phase.
struct ClientLog {
  std::vector<double> lookup_us;
  std::vector<double> upsert_us;
  /// Completion time of every request, in seconds from the phase start.
  std::vector<double> done_s;
  /// (query index, reply) of every lookup, checked after the phase.
  std::vector<std::pair<size_t, std::string>> lookups;
  OpCount ops;
};

struct Traffic {
  std::string socket_path;
  const std::vector<std::string>* queries = nullptr;
  bool churn = false;
  uint64_t seed = 0;
  /// Writer state carried across phases: its Rng and the upserts the server
  /// acknowledged, in order (id, index into the master records).
  Rng* writer_rng = nullptr;
  std::vector<std::pair<uint64_t, size_t>>* applied = nullptr;
  /// Next query position per reader, carried across phases.
  std::vector<size_t>* cursor = nullptr;
  Tracer* tracer = nullptr;
  std::atomic<uint64_t>* next_request_id = nullptr;
};

void ReaderLoop(const Traffic& t, size_t reader, Clock::time_point phase_start,
                Clock::time_point deadline, ClientLog* log) {
  Connection conn(t.socket_path);
  Rng rng(t.seed * 1000003 + 17 + reader + (*t.cursor)[reader] * 7919);
  static const ZipfTable zipf(kChurnQueries, 1.0);
  size_t& cursor = (*t.cursor)[reader];
  std::string reply;
  while (Clock::now() < deadline) {
    size_t qi = t.churn ? (zipf.Sample(&rng) + cursor / kZipfDriftEvery) % kChurnQueries
                        : (cursor * 2 + reader) % t.queries->size();
    ++cursor;
    const std::string line = LookupLine((*t.queries)[qi]);
    uint64_t rid = t.tracer ? t.next_request_id->fetch_add(1) : 0;
    int64_t start_ns = t.tracer ? t.tracer->Now() : 0;
    auto start = Clock::now();
    bool ok = conn.ok() && conn.Call(line, &reply);
    log->lookup_us.push_back(MicrosSince(start));
    log->done_s.push_back(MicrosSince(phase_start) / 1e6);
    if (t.tracer) t.tracer->Add("client.lookup", start_ns, t.tracer->Now(), -1, rid);
    if (!ok) {
      log->ops.Record(false);
      return;  // socket error: the connection is gone
    }
    log->lookups.emplace_back(qi, reply);
  }
}

void WriterLoop(const Traffic& t, const std::vector<std::string>& master,
                Clock::time_point phase_start, Clock::time_point deadline, ClientLog* log) {
  Connection conn(t.socket_path);
  std::string reply;
  while (Clock::now() < deadline) {
    uint64_t id = t.writer_rng->Uniform(kReferenceSize);
    size_t value = t.writer_rng->Uniform(master.size());
    const std::string line = "{\"op\": \"upsert\", \"id\": " + std::to_string(id) +
                             ", \"value\": \"" + serve::JsonEscape(master[value]) +
                             "\"}";
    uint64_t rid = t.tracer ? t.next_request_id->fetch_add(1) : 0;
    int64_t start_ns = t.tracer ? t.tracer->Now() : 0;
    auto start = Clock::now();
    bool ok = conn.ok() && conn.Call(line, &reply);
    log->upsert_us.push_back(MicrosSince(start));
    log->done_s.push_back(MicrosSince(phase_start) / 1e6);
    if (t.tracer) t.tracer->Add("client.upsert", start_ns, t.tracer->Now(), -1, rid);
    if (!ok) {
      log->ops.Record(false);
      return;
    }
    bool acked = reply.rfind("{\"ok\": true, \"epoch\": ", 0) == 0;
    log->ops.Record(acked);
    if (acked) t.applied->emplace_back(id, value);
  }
}

struct PhaseLogs {
  Phase phase;  // every request: lookups and upserts
  std::vector<ClientLog> clients;
};

PhaseLogs RunPhase(const Traffic& t, const std::vector<std::string>& master,
                   double seconds) {
  PhaseLogs out;
  size_t readers = 2;
  out.clients.resize(readers + (t.churn ? 1 : 0));
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back(ReaderLoop, std::cref(t), r, start, deadline, &out.clients[r]);
  }
  if (t.churn) {
    threads.emplace_back(WriterLoop, std::cref(t), std::cref(master), start, deadline,
                         &out.clients[readers]);
  }
  for (std::thread& th : threads) th.join();
  out.phase.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const ClientLog& c : out.clients) {
    for (double us : c.lookup_us) out.phase.latency_ms.push_back(us / 1e3);
    for (double us : c.upsert_us) out.phase.latency_ms.push_back(us / 1e3);
    out.phase.done_s.insert(out.phase.done_s.end(), c.done_s.begin(), c.done_s.end());
  }
  return out;
}

/// Checks every lookup reply of a phase and counts it: against the
/// in-process oracle for the cold workload, for well-formedness under churn.
void CheckLookups(PhaseLogs* logs, const std::vector<std::string>& queries,
                  const index::MutableFuzzyIndex* oracle, OpCount* ops) {
  std::vector<std::pair<size_t, std::string>*> all;
  for (ClientLog& c : logs->clients) {
    for (auto& l : c.lookups) all.push_back(&l);
    ops->Add(c.ops);
  }
  std::vector<OpCount> counts(kOracleThreads);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kOracleThreads; ++w) {
    threads.emplace_back([&, w] {
      auto state = oracle != nullptr ? oracle->Snapshot() : nullptr;
      for (size_t i = w; i < all.size(); i += kOracleThreads) {
        std::optional<Answer> got = ParseLookupReply(all[i]->second);
        bool ok = WellFormed(got);
        if (ok && oracle != nullptr) {
          ok = *got == AnswerOf(oracle->LookupAt(*state, queries[all[i]->first], kTopK));
        }
        counts[w].Record(ok);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const OpCount& c : counts) ops->Add(c);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Per-layer figures of the server, from its own metrics between two
/// snapshots that bracket the traced phase.
void ServerLayerFigures(const ServerMetrics& a, const ServerMetrics& b,
                        const std::vector<double>& client_lookup_us,
                        std::map<std::string, double>* m) {
  auto lookups = static_cast<double>(client_lookup_us.size());
  (*m)["serve.admission_us"] = HistMean(a, b, "serve.span.admission_us");
  (*m)["serve.queue_wait_us"] = HistMean(a, b, "serve.span.queue_wait_us");
  (*m)["serve.lookup_us"] = HistMean(a, b, "serve.span.lookup_us");
  (*m)["serve.reply_us"] = HistMean(a, b, "serve.span.reply_us");
  (*m)["serve.batch_size_mean"] =
      Ratio(Delta(a, b, "serve.batched_lookups"), Delta(a, b, "serve.batches"));
  double hits = Delta(a, b, "serve.cache_hits");
  (*m)["serve.cache_hit_rate"] = Ratio(hits, hits + Delta(a, b, "serve.cache_misses"));
  (*m)["serve.cache_stale_purged"] = Delta(a, b, "serve.cache_stale_purged");
  (*m)["served.overhead_us"] = ServedOverheadUs(client_lookup_us, a, b);
  double busy = Delta(a, b, "exec.worker_busy_us");
  double idle = Delta(a, b, "exec.worker_idle_us");
  (*m)["exec.worker_busy_us"] = Ratio(busy, lookups);
  (*m)["exec.worker_idle_us"] = Ratio(idle, lookups);
  (*m)["exec.busy_share"] = Ratio(busy, busy + idle);
  (*m)["exec.morsels_dispatched"] = Ratio(Delta(a, b, "exec.morsels_dispatched"), lookups);
  for (const char* k : {"kernels.intersect.calls", "kernels.intersect.elements",
                        "kernels.probe.rows", "kernels.accumulate.rows"}) {
    (*m)[k] = Ratio(Delta(a, b, k), lookups);
  }
  (*m)["index.publish_us"] = HistMean(a, b, "index.publish_us");
  (*m)["index.compaction_us"] = HistMean(a, b, "index.compaction_us");
  (*m)["index.seals"] = Delta(a, b, "index.seals");
  (*m)["index.compactions"] = Delta(a, b, "index.compactions");
}

/// The index and wire layers replayed in-process on the workload's own
/// inputs, one span per public call: BulkLoad (+ Seal) of the reference,
/// then per request ParseJsonRequest, the index tokenizer and LookupAt, and
/// under churn the writer's first upserts.
Status ReplayLayers(const std::vector<std::pair<uint64_t, std::string>>& records,
                    const std::vector<std::string>& queries,
                    const std::vector<std::pair<uint64_t, size_t>>& upserts,
                    const std::vector<std::string>& master, const std::string& data_dir,
                    Tracer* tracer, std::map<std::string, double>* m) {
  std::unique_ptr<index::MutableFuzzyIndex> idx;
  int64_t t0 = tracer->Now();
  {
    ScopedSpan s(tracer, "index.bulk_load");
    SSJOIN_ASSIGN_OR_RETURN(idx, BuildIndex(records, data_dir));
  }
  (*m)["index.bulk_load_us"] = static_cast<double>(tracer->Now() - t0) / 1e3;

  obs::Counter* intersect = obs::Registry::Global().GetCounter("kernels.intersect.calls");
  uint64_t calls_before = intersect->value();
  std::vector<double> lookup_us, tokenize_us, parse_us;
  size_t tokens = 0;
  size_t n = std::min(queries.size(), kReplicaLookups);
  auto state = idx->Snapshot();
  for (size_t i = 0; i < n; ++i) {
    const std::string line = LookupLine(queries[i]);
    ScopedSpan req(tracer, "serve.request", -1, i);
    auto start = Clock::now();
    {
      ScopedSpan s(tracer, "serve.wire_parse", req.id(), i);
      if (!serve::ParseJsonRequest(line).ok()) return Status::Invalid("bad request line");
    }
    parse_us.push_back(MicrosSince(start));
    start = Clock::now();
    {
      ScopedSpan s(tracer, "index.query_tokenize", req.id(), i);
      tokens += idx->tokenizer().Tokenize(queries[i]).size();
    }
    tokenize_us.push_back(MicrosSince(start));
    start = Clock::now();
    {
      ScopedSpan s(tracer, "index.lookup", req.id(), i);
      idx->LookupAt(*state, queries[i], kTopK);
    }
    lookup_us.push_back(MicrosSince(start));
  }
  (*m)["index.lookup_p50_us"] = Median(lookup_us);
  (*m)["index.lookup_p99_us"] = ChooseTail(lookup_us).value;
  (*m)["index.query_tokenize_us"] = Mean(tokenize_us);
  (*m)["text.tokens"] = Ratio(static_cast<double>(tokens), static_cast<double>(n));
  (*m)["serve.wire_parse_us"] = Mean(parse_us);
  (*m)["index.verifications_per_lookup"] =
      Ratio(static_cast<double>(intersect->value() - calls_before),
            static_cast<double>(lookup_us.size()));

  std::vector<double> upsert_us;
  for (size_t i = 0; i < upserts.size() && i < kReplicaUpserts; ++i) {
    ScopedSpan s(tracer, "index.upsert", -1, i);
    auto start = Clock::now();
    SSJOIN_RETURN_NOT_OK(idx->Upsert(upserts[i].first, master[upserts[i].second]));
    upsert_us.push_back(MicrosSince(start));
  }
  (*m)["index.upsert_us"] = Mean(upsert_us);
  return Status::OK();
}

}  // namespace

RunResult RunServeWorkload(const RunOptions& options) {
  RunResult result;
  const bool churn = options.workload == "serve_mixed_churn";
  auto fail = [&](const std::string& why) {
    result.correct = false;
    result.ops.Record(false);
    result.notes.push_back(why);
    return std::move(result);
  };

  // Inputs, all from the seed: the reference CSV and the query stream.
  datagen::AddressGenOptions gen;
  gen.num_records = kReferenceSize;
  gen.duplicate_fraction = 0.25;
  gen.include_name = true;
  gen.seed = options.seed;
  const std::vector<std::string> master = datagen::GenerateAddresses(gen).records;
  Rng rng(options.seed ^ 0x5eed5eed5eedULL);
  size_t pool = churn ? kChurnQueries
                      : std::max<size_t>(20000, static_cast<size_t>(
                                                    kColdQueriesPerSecond * options.seconds));
  const std::vector<std::string> queries = DirtyQueries(master, pool, &rng);
  const std::string csv = options.run_dir + "/reference.csv";
  if (!WriteReferenceCsv(master, csv)) return fail("cannot write " + csv);
  auto records = ReadReference(csv);
  if (!records.ok()) return fail("cannot read back " + csv);

  const std::string socket_path = options.run_dir + "/served.sock";
  auto server_argv = [&](size_t spawn) {
    std::vector<std::string> argv = {PERFBENCH_SERVED_PATH, "--reference", csv,
                                     "--col", "name", "--alpha", "0.35",
                                     "--threads", "2", "--socket", socket_path};
    if (churn) {
      argv.insert(argv.end(), {"--cache", "4096", "--data",
                               options.run_dir + "/data" + std::to_string(spawn)});
    } else {
      argv.insert(argv.end(), {"--cache", "0"});
    }
    return argv;
  };
  std::string flags;
  for (const std::string& a : server_argv(kSetupSpawns - 1)) flags += (flags.empty() ? "" : " ") + a;
  result.info.emplace_back("server_flags", JsonString(flags));
  result.info.emplace_back("reference_records", std::to_string(master.size()));
  result.info.emplace_back("distinct_queries", std::to_string(queries.size()));
  result.info.emplace_back("wal_flush_policy", JsonString(churn ? kWalPolicy : "no WAL (no --data)"));
  result.info.emplace_back(
      "traffic", JsonString(churn ? "closed loop: 2 Zipf(s=1) lookup connections over "
                                    "1000 dirty queries + 1 back-to-back upsert connection"
                                  : "closed loop: 2 lookup connections, every query a "
                                    "distinct dirty variant"));

  // Set-up: spawn to first successful ping, several times; the last server
  // stays up for the workload.
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  const std::string log = options.run_dir + "/served.log";
  for (size_t spawn = 0; spawn < kSetupSpawns; ++spawn) {
    if (server && !Shutdown(server.get(), socket_path)) return fail("server did not stop");
    Timer t;
    server = std::make_unique<ServerProcess>(server_argv(spawn), log);
    if (!WaitReady(server.get(), socket_path, 120)) {
      return fail("server did not come up; see " + log);
    }
    setup_s.push_back(t.ElapsedMillis() / 1e3);
  }

  // The oracle for the cold workload: the same CSV loaded in-process.
  std::unique_ptr<index::MutableFuzzyIndex> oracle;
  if (!churn) {
    auto built = BuildIndex(*records, "");
    if (!built.ok()) return fail("oracle build failed: " + built.status().ToString());
    oracle = std::move(*built);
  }

  Rng writer_rng(options.seed * 31 + 7);
  std::vector<std::pair<uint64_t, size_t>> applied;
  std::vector<size_t> cursor(2, 0);
  std::atomic<uint64_t> next_request_id{0};
  Traffic traffic{socket_path, &queries, churn, options.seed, &writer_rng, &applied,
                  &cursor,     nullptr,  &next_request_id};

  PhaseLogs untraced = RunPhase(traffic, master, options.trace ? options.seconds / 2
                                                               : options.seconds);
  CheckLookups(&untraced, queries, oracle.get(), &result.ops);

  if (options.trace) {
    ServerMetrics before, after;
    if (!ReadServerMetrics(socket_path, &before)) return fail("metrics op failed");
    result.tracer = std::make_unique<Tracer>();
    traffic.tracer = result.tracer.get();
    PhaseLogs traced = RunPhase(traffic, master, options.seconds / 2);
    if (!ReadServerMetrics(socket_path, &after)) return fail("metrics op failed");
    CheckLookups(&traced, queries, oracle.get(), &result.ops);

    std::vector<double> lookup_b, lookup_a, upsert_a;
    for (const ClientLog& c : traced.clients) {
      lookup_b.insert(lookup_b.end(), c.lookup_us.begin(), c.lookup_us.end());
    }
    for (const ClientLog& c : untraced.clients) {
      lookup_a.insert(lookup_a.end(), c.lookup_us.begin(), c.lookup_us.end());
      upsert_a.insert(upsert_a.end(), c.upsert_us.begin(), c.upsert_us.end());
    }
    auto& m = result.metrics;
    ServerLayerFigures(before, after, lookup_b, &m);
    Status replay = ReplayLayers(*records, queries, applied, master,
                                 churn ? options.run_dir + "/replica" : "",
                                 result.tracer.get(), &m);
    if (!replay.ok()) return fail("layer replay failed: " + replay.ToString());
    // Self time per layer over the replayed requests only.
    std::vector<Span> spans = result.tracer->spans();
    std::vector<int64_t> self = SelfTimesNs(spans);
    double replayed = static_cast<double>(std::min(queries.size(), kReplicaLookups));
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string& name = spans[i].name;
      if (name == "serve.request" || name == "serve.wire_parse" ||
          name == "index.query_tokenize" || name == "index.lookup") {
        m[LayerOf(name) + ".self_us"] += static_cast<double>(self[i]) / 1e3 / replayed;
      }
    }
    m["client.lookup_qps"] = Ratio(static_cast<double>(lookup_a.size()),
                                   untraced.phase.elapsed_s);
    m["client.lookup_p50_us"] = Median(lookup_a);
    m["client.lookup_p99_us"] = ChooseTail(lookup_a).value;
    m["client.upsert_per_s"] = Ratio(static_cast<double>(upsert_a.size()),
                                     untraced.phase.elapsed_s);
    m["client.upsert_p50_us"] = Median(upsert_a);
    m["client.upsert_p99_us"] = ChooseTail(upsert_a).value;
    double base = Median(untraced.phase.latency_ms);
    m["trace.overhead_ms"] = Median(traced.phase.latency_ms) - base;
    m["trace.overhead_pct"] = Ratio(Median(traced.phase.latency_ms) - base, base) * 100.0;
  }

  // Churn oracle: after the writer stopped, a fixed probe set against an
  // in-process index holding the reference with the acknowledged upserts
  // applied in order (bit-identical to applying them one by one, by the
  // index's equivalence contract).
  if (churn) {
    std::vector<std::pair<uint64_t, std::string>> final_records = *records;
    for (const auto& [id, value] : applied) final_records[id].second = master[value];
    auto built = BuildIndex(final_records, "");
    if (!built.ok()) return fail("oracle build failed: " + built.status().ToString());
    auto state = (*built)->Snapshot();
    Connection conn(socket_path);
    std::string reply;
    for (size_t i = 0; i < kProbeQueries; ++i) {
      bool ok = conn.ok() && conn.Call(LookupLine(queries[i]), &reply);
      std::optional<Answer> got = ok ? ParseLookupReply(reply) : std::nullopt;
      result.ops.Record(got.has_value() &&
                        *got == AnswerOf((*built)->LookupAt(*state, queries[i], kTopK)));
    }
    result.info.emplace_back("upserts_applied", std::to_string(applied.size()));
  }

  if (!churn) {
    // Reader r sent the queries at 2 * i + r for i below its cursor.
    bool repeated = false;
    for (size_t r = 0; r < cursor.size(); ++r) {
      repeated |= cursor[r] > 0 && (cursor[r] - 1) * 2 + r >= queries.size();
    }
    result.info.emplace_back("lookups_sent", std::to_string(cursor[0] + cursor[1]));
    result.info.emplace_back("queries_repeated", repeated ? "true" : "false");
    if (repeated) result.notes.push_back("the cold query pool wrapped: some queries repeated");
  }

  double peak_rss_mb = PeakRssMb(server->pid());
  if (!Shutdown(server.get(), socket_path)) result.notes.push_back("server needed SIGKILL");
  if (!options.trace) SetEndToEnd(setup_s, peak_rss_mb, untraced.phase, &result);
  result.correct = result.ops.failed == 0;
  result.info.emplace_back("samples", std::to_string(untraced.phase.latency_ms.size()));
  return result;
}

}  // namespace perfbench
