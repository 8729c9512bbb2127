/// ssjoin_cli — similarity joins over CSV files from the command line.
///
/// Examples:
///   # fuzzy self-join (dedup candidates) on the 'name' column
///   ssjoin_cli join --left customers.csv --left-col name
///                   --sim jaccard --threshold 0.8 --out matches.csv
///
///   # join two tables on edit similarity of addresses
///   ssjoin_cli join --left a.csv --left-col addr --right b.csv
///                   --right-col address --sim edit --threshold 0.85
///
///   # build a fuzzy-match snapshot (a one-segment data dir), then look
///   # queries up against it
///   ssjoin_cli snapshot --reference orgs.csv --col name --out orgs.d
///   ssjoin_cli lookup --data orgs.d --query "Mcrosoft Corp" --k 3
///
///   # query a running ssjoin_served instance over its unix socket
///   ssjoin_cli lookup --socket /tmp/ssjoin.sock --query "Mcrosoft Corp"
///   ssjoin_cli lookup --socket /tmp/ssjoin.sock --stats
///
/// Similarity functions: jaccard (resemblance, word tokens, IDF),
/// containment, cosine, edit (edit similarity, 3-grams), ges, soundex.
/// Algorithms: basic, inverted-index, prefix-filter, inline (default),
/// approx (MinHash-LSH candidate tier, see --target-recall), hybrid
/// (route frequent-token-heavy inputs to approx), cost.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "approx/approx_ssjoin.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/ssjoin.h"
#include "engine/csv.h"
#include "exec/metrics.h"
#include "filter/attr.h"
#include "filter/metrics.h"
#include "filter/predicate.h"
#include "index/mutable_index.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "serve/wire.h"
#include "shard/wire_client.h"
#include "simjoin/ges_join.h"
#include "simjoin/string_joins.h"

namespace {

using namespace ssjoin;

std::string FlagOr(const Args& args, const std::string& name,
                   const std::string& fallback) {
  auto it = args.flags.find(name);
  return it == args.flags.end() ? fallback : it->second;
}

/// --filter JSON: a boolean attribute predicate on lookups, e.g.
/// '{"state": ["CA", "WA"], "!tier": [1]}' (a leading '!' negates the
/// conjunct). Parsed with the same strict wire grammar ssjoin_served uses,
/// so a typo fails here rather than at the server.
Result<filter::FilterPredicate> FilterFlag(const Args& args) {
  auto it = args.flags.find("filter");
  if (it == args.flags.end()) return filter::FilterPredicate{};
  auto parsed = serve::ParseJsonRequest("{\"filter\": " + it->second + "}");
  if (!parsed.ok()) {
    return Status::Invalid("--filter: " + parsed.status().message());
  }
  auto f = parsed->find("filter");
  if (f == parsed->end() || !f->second.is_object) {
    return Status::Invalid(
        "--filter must be a JSON object of attribute conjuncts, e.g. "
        "'{\"state\": [\"CA\"], \"!tier\": [1]}'");
  }
  auto predicate = serve::FilterFromWire(f->second);
  if (!predicate.ok()) {
    return Status::Invalid("--filter: " + predicate.status().message());
  }
  return *predicate;
}

/// --attrs JSON: structured attributes attached on upsert, e.g.
/// '{"state": "CA", "tier": 3}'. Values must be strings or integers;
/// names and string values reject NUL / raw control bytes client-side,
/// the same rule the server enforces.
Result<filter::AttrSet> AttrsFlag(const Args& args) {
  auto it = args.flags.find("attrs");
  if (it == args.flags.end()) return filter::AttrSet{};
  auto parsed = serve::ParseJsonRequest("{\"attrs\": " + it->second + "}");
  if (!parsed.ok()) {
    return Status::Invalid("--attrs: " + parsed.status().message());
  }
  auto a = parsed->find("attrs");
  if (a == parsed->end() || !a->second.is_object) {
    return Status::Invalid(
        "--attrs must be a JSON object of name -> string|int values, e.g. "
        "'{\"state\": \"CA\", \"tier\": 3}'");
  }
  auto attrs = serve::AttrsFromWire(a->second);
  if (!attrs.ok()) {
    return Status::Invalid("--attrs: " + attrs.status().message());
  }
  return *attrs;
}

/// --stats-json PATH: dumps the global metric registry as NDJSON after the
/// command ran (one {"metric": ...} object per line).
Status MaybeWriteStatsJson(const Args& args) {
  auto it = args.flags.find("stats-json");
  if (it == args.flags.end()) return Status::OK();
  std::FILE* f = std::fopen(it->second.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot write --stats-json file '" + it->second + "'");
  }
  std::string ndjson = obs::Registry::Global().ToNdjson();
  std::fwrite(ndjson.data(), 1, ndjson.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", it->second.c_str());
  return Status::OK();
}

int Usage() {
  std::fprintf(stderr,
               "usage: ssjoin_cli join --left FILE --left-col COL "
               "[--right FILE --right-col COL]\n"
               "                  [--sim jaccard|containment|cosine|edit|ges|"
               "soundex] [--threshold A]\n"
               "                  [--algorithm basic|inverted-index|"
               "prefix-filter|inline|approx|hybrid|cost]\n"
               "                  [--target-recall R] [--threads N] [--morsel N]\n"
               "                  [--q N] [--out FILE] [--max-print N]\n"
               "                  [--stats-json FILE] "
               "[--kernel scalar|gallop|simd|auto]\n"
               "  --kernel T    intersection kernel tier for hot loops "
               "(default auto;\n"
               "                also via the SSJOIN_KERNEL env var; all tiers "
               "are bit-identical)\n"
               "  --threads N   worker threads for the SSJoin + verify stages"
               " (default 1;\n"
               "                0 = one per hardware thread)\n"
               "  --morsel N    scheduler work-unit size in groups/pairs "
               "(default 2048)\n"
               "  --target-recall R  recall target in (0, 1] of the approx/"
               "hybrid tiers\n"
               "                (default 0.9; exact algorithms ignore it)\n"
               "\n"
               "       ssjoin_cli snapshot --reference FILE --col COL --out DIR\n"
               "                  [--alpha A] [--qgrams Q]\n"
               "           build the lookup index and save it as a data dir\n"
               "           (one sealed segment; serve it with "
               "ssjoin_served --data DIR)\n"
               "\n"
               "       ssjoin_cli lookup (--data DIR | --reference FILE "
               "--col COL | --socket PATH)\n"
               "                  [--query STR] [--k N] [--alpha A] "
               "[--deadline-ms D]\n"
               "                  [--filter JSON]\n"
               "                  [--stats] [--metrics] [--ping] [--shutdown]\n"
               "                  [--stats-json FILE]\n"
               "           top-k fuzzy lookups, in-process or against a running\n"
               "           ssjoin_served; without --query, queries are read from "
               "stdin\n"
               "  --filter JSON  attribute predicate, e.g. "
               "'{\"state\": [\"CA\"], \"!tier\": [1]}';\n"
               "                a leading '!' on a name negates that conjunct "
               "(NOT-IN)\n"
               "  --stats-json FILE  dump this process's metric registry as "
               "NDJSON\n"
               "  --metrics          fetch the server's metric registry as "
               "NDJSON (with --socket)\n"
               "\n"
               "       ssjoin_cli upsert --socket PATH --id N --value STR "
               "[--attrs JSON]\n"
               "  --attrs JSON  structured attributes on the doc, e.g. "
               "'{\"state\": \"CA\", \"tier\": 3}'\n"
               "       ssjoin_cli delete --socket PATH --id N\n"
               "       ssjoin_cli compact --socket PATH\n"
               "       ssjoin_cli seal --socket PATH\n"
               "           mutate a running ssjoin_served's index; each op\n"
               "           publishes (and prints) a new index epoch. Against a\n"
               "           coordinator, upsert/delete route to the owner shard\n"
               "           and seal/compact broadcast to every shard\n"
               "\n"
               "       ssjoin_cli epoch --socket PATH\n"
               "           print the index epoch (cluster epoch on a "
               "coordinator)\n"
               "       ssjoin_cli resync --socket PATH\n"
               "           coordinator only: rebuild every shard's global IDF\n"
               "           statistics from a full cluster dump (run after a\n"
               "           shard process restart)\n"
               "       ssjoin_cli sync --socket PATH\n"
               "           follower only: force a replication round against "
               "the leader\n");
  return 2;
}

Result<simjoin::JoinExecution> ParseAlgorithm(const std::string& name) {
  simjoin::JoinExecution exec;
  if (name == "basic") {
    exec.algorithm = core::SSJoinAlgorithm::kBasic;
  } else if (name == "inverted-index") {
    exec.algorithm = core::SSJoinAlgorithm::kInvertedIndex;
  } else if (name == "prefix-filter") {
    exec.algorithm = core::SSJoinAlgorithm::kPrefixFilter;
  } else if (name == "inline") {
    exec.algorithm = core::SSJoinAlgorithm::kPrefixFilterInline;
  } else if (name == "approx") {
    exec.algorithm = core::SSJoinAlgorithm::kApprox;
  } else if (name == "hybrid") {
    exec.algorithm = core::SSJoinAlgorithm::kHybrid;
  } else if (name == "cost") {
    exec.use_cost_model = true;
  } else {
    return Status::Invalid(
        "unknown algorithm '" + name +
        "' (valid: basic, inverted-index, prefix-filter, inline, approx, "
        "hybrid, cost)");
  }
  return exec;
}

Result<int> RunJoin(const Args& args) {
  auto left_path = args.flags.find("left");
  auto left_col = args.flags.find("left-col");
  if (left_path == args.flags.end() || left_col == args.flags.end()) {
    return Status::Invalid("--left and --left-col are required");
  }
  SSJOIN_ASSIGN_OR_RETURN(std::vector<std::string> left,
                          ReadCsvColumn(left_path->second, left_col->second));
  bool self_join = args.flags.find("right") == args.flags.end();
  std::vector<std::string> right_storage;
  if (!self_join) {
    auto right_col = args.flags.find("right-col");
    std::string col = right_col == args.flags.end() ? left_col->second
                                                    : right_col->second;
    SSJOIN_ASSIGN_OR_RETURN(right_storage,
                            ReadCsvColumn(args.flags.at("right"), col));
  }
  const std::vector<std::string>& right = self_join ? left : right_storage;

  std::string sim = FlagOr(args, "sim", "jaccard");
  SSJOIN_ASSIGN_OR_RETURN(double threshold, DoubleFlag(args, "threshold", 0.8));
  SSJOIN_ASSIGN_OR_RETURN(size_t q, SizeFlag(args, "q", 3));
  SSJOIN_ASSIGN_OR_RETURN(simjoin::JoinExecution exec,
                          ParseAlgorithm(FlagOr(args, "algorithm", "inline")));
  SSJOIN_ASSIGN_OR_RETURN(exec.approx.target_recall,
                          DoubleFlag(args, "target-recall", 0.9));
  if (!(exec.approx.target_recall > 0.0) || exec.approx.target_recall > 1.0) {
    return Status::Invalid("--target-recall must be in (0, 1]");
  }
  SSJOIN_ASSIGN_OR_RETURN(exec.exec.num_threads, SizeFlag(args, "threads", 1));
  SSJOIN_ASSIGN_OR_RETURN(size_t morsel, SizeFlag(args, "morsel", 0));
  if (morsel > 0) exec.exec.morsel_size = morsel;

  simjoin::SimJoinStats stats;
  Result<std::vector<simjoin::MatchPair>> result =
      Status::Invalid("unreachable");
  if (sim == "jaccard") {
    result = simjoin::JaccardResemblanceJoin(left, right, threshold, {}, exec,
                                             &stats);
  } else if (sim == "containment") {
    result = simjoin::JaccardContainmentJoin(left, right, threshold, {}, exec,
                                             &stats);
  } else if (sim == "cosine") {
    result = simjoin::CosineJoin(left, right, threshold, {}, exec, &stats);
  } else if (sim == "edit") {
    result = simjoin::EditSimilarityJoin(left, right, threshold, q, exec, &stats);
  } else if (sim == "ges") {
    simjoin::GESJoinOptions opts;
    opts.exec = exec;
    result = simjoin::GESJoin(left, right, threshold, opts, &stats);
  } else if (sim == "soundex") {
    result = simjoin::SoundexJoin(left, right, exec, &stats);
  } else {
    return Status::Invalid("unknown similarity '" + sim + "'");
  }
  SSJOIN_ASSIGN_OR_RETURN(std::vector<simjoin::MatchPair> matches,
                          std::move(result));

  // Assemble the output table.
  engine::Table out{engine::Schema({{"left_index", engine::DataType::kInt64},
                                    {"right_index", engine::DataType::kInt64},
                                    {"left_value", engine::DataType::kString},
                                    {"right_value", engine::DataType::kString},
                                    {"similarity", engine::DataType::kFloat64}})};
  for (const auto& m : matches) {
    if (self_join && m.r >= m.s) continue;  // one direction, no self-pairs
    SSJOIN_RETURN_NOT_OK(out.AppendRow({static_cast<int64_t>(m.r),
                                        static_cast<int64_t>(m.s), left[m.r],
                                        right[m.s], m.similarity}));
  }

  std::fprintf(stderr,
               "%zu x %zu input, %zu match pairs (%zu emitted); "
               "SSJoin candidates %zu, UDF verifications %zu\n",
               left.size(), right.size(), matches.size(), out.num_rows(),
               stats.ssjoin.candidate_pairs, stats.verifier_calls);
  for (const auto& [phase, ms] : stats.phases.phases()) {
    std::fprintf(stderr, "  %-14s %10.1f ms\n", phase.c_str(), ms);
  }

  auto out_path = args.flags.find("out");
  if (out_path != args.flags.end()) {
    SSJOIN_RETURN_NOT_OK(engine::WriteCsvFile(out, out_path->second));
    std::fprintf(stderr, "wrote %s\n", out_path->second.c_str());
  } else {
    SSJOIN_ASSIGN_OR_RETURN(size_t max_print, SizeFlag(args, "max-print", 20));
    std::printf("%s", out.ToString(max_print).c_str());
  }
  SSJOIN_RETURN_NOT_OK(MaybeWriteStatsJson(args));
  return 0;
}

/// Builds the lookup index over --reference/--col as one sealed segment,
/// persisted in `data_dir` when it is non-empty.
Result<std::unique_ptr<index::MutableFuzzyIndex>> BuildFuzzyIndex(
    const Args& args, const std::string& data_dir) {
  auto ref = args.flags.find("reference");
  auto col = args.flags.find("col");
  if (ref == args.flags.end() || col == args.flags.end()) {
    return Status::Invalid("--reference and --col are required");
  }
  index::MutableIndexOptions options;
  options.data_dir = data_dir;
  // Validated before reading the CSV, so a bad flag fails fast.
  SSJOIN_ASSIGN_OR_RETURN(options.match, MatchFlags(args));
  SSJOIN_ASSIGN_OR_RETURN(auto records, ReadReferenceRecords(ref->second, col->second));
  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                          index::MutableFuzzyIndex::Create(options));
  SSJOIN_RETURN_NOT_OK(index->BulkLoad(records));
  SSJOIN_RETURN_NOT_OK(index->Seal());
  return index;
}

Result<int> RunSnapshot(const Args& args) {
  auto out = args.flags.find("out");
  if (out == args.flags.end()) {
    return Status::Invalid("--out DIR is required");
  }
  Timer build_timer;
  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                          BuildFuzzyIndex(args, out->second));
  std::fprintf(stderr,
               "snapshot %s: %llu reference strings in one sealed segment; "
               "built and saved in %.1f ms\n",
               out->second.c_str(),
               static_cast<unsigned long long>(index->GetStats().live_docs),
               build_timer.ElapsedMillis());
  return 0;
}

/// True when a server reply says {"ok": false}.
bool ReplyFailed(const std::string& reply) {
  auto parsed = serve::ParseJsonObjectRaw(reply);
  return parsed.ok() && parsed->count("ok") > 0 && parsed->at("ok") == "false";
}

/// One round trip on a ssjoin_served socket: send `line`, print the server's
/// response line to stdout, and reflect a server-side failure in the exit
/// code.
Result<int> SocketRoundTrip(const std::string& path, const std::string& line) {
  SSJOIN_ASSIGN_OR_RETURN(shard::WireClient client,
                          shard::WireClient::Connect(path));
  SSJOIN_ASSIGN_OR_RETURN(std::string reply,
                          client.Call(line, std::chrono::milliseconds(0)));
  std::printf("%s\n", reply.c_str());
  return ReplyFailed(reply) ? 1 : 0;
}

/// The multi-line `metrics` op: the server replies with a header object
/// announcing how many NDJSON metric lines follow. Prints the metric lines
/// (not the header) so stdout is a clean NDJSON document.
Result<int> MetricsRoundTrip(const std::string& path) {
  SSJOIN_ASSIGN_OR_RETURN(shard::WireClient client,
                          shard::WireClient::Connect(path));
  SSJOIN_ASSIGN_OR_RETURN(
      std::string header,
      client.Call("{\"op\": \"metrics\"}", std::chrono::milliseconds(0)));
  SSJOIN_ASSIGN_OR_RETURN(auto parsed, serve::ParseJsonObject(header));
  auto count = parsed.find("metrics");
  if (ReplyFailed(header) || count == parsed.end()) {
    std::printf("%s\n", header.c_str());
    return 1;
  }
  SSJOIN_ASSIGN_OR_RETURN(uint64_t lines, serve::UintFromJson(count->second));
  for (uint64_t i = 0; i < lines; ++i) {
    SSJOIN_ASSIGN_OR_RETURN(std::string line,
                            client.ReadLine(std::chrono::milliseconds(0)));
    std::printf("%s\n", line.c_str());
  }
  return 0;
}

Result<int> RunRemoteLookup(const Args& args, const std::string& socket_path) {
  if (args.flags.count("metrics") > 0) {
    return MetricsRoundTrip(socket_path);
  }
  if (args.flags.count("stats") > 0) {
    return SocketRoundTrip(socket_path, "{\"op\": \"stats\"}");
  }
  if (args.flags.count("ping") > 0) {
    return SocketRoundTrip(socket_path, "{\"op\": \"ping\"}");
  }
  if (args.flags.count("shutdown") > 0) {
    return SocketRoundTrip(socket_path, "{\"op\": \"shutdown\"}");
  }
  auto query = args.flags.find("query");
  if (query == args.flags.end()) {
    return Status::Invalid(
        "--query (or --stats/--metrics/--ping/--shutdown) is required with "
        "--socket");
  }
  // Validate numeric flags client-side so a typo'd --k never reaches the
  // wire as malformed JSON.
  SSJOIN_ASSIGN_OR_RETURN(size_t k, SizeFlag(args, "k", 3));
  std::string request = "{\"op\": \"lookup\", \"query\": \"" +
                        serve::JsonEscape(query->second) +
                        "\", \"k\": " + std::to_string(k);
  if (args.flags.count("deadline-ms") > 0) {
    SSJOIN_ASSIGN_OR_RETURN(size_t deadline, SizeFlag(args, "deadline-ms", 0));
    request += ", \"deadline_ms\": " + std::to_string(deadline);
  }
  SSJOIN_ASSIGN_OR_RETURN(filter::FilterPredicate filter, FilterFlag(args));
  if (!filter.empty()) {
    request += ", \"filter\": " + filter.CanonicalJson();
  }
  request += "}";
  return SocketRoundTrip(socket_path, request);
}

/// The socket-only mutation subcommands (upsert/delete/compact): one JSON
/// request, one JSON reply carrying the newly published epoch.
Result<int> RunMutation(const Args& args, const std::string& op) {
  auto socket_path = args.flags.find("socket");
  if (socket_path == args.flags.end()) {
    return Status::Invalid("--socket PATH is required for '" + op + "'");
  }
  std::string request = "{\"op\": \"" + op + "\"";
  if (op == "upsert" || op == "delete") {
    auto id = args.flags.find("id");
    if (id == args.flags.end()) {
      return Status::Invalid("--id N is required for '" + op + "'");
    }
    SSJOIN_ASSIGN_OR_RETURN(uint64_t doc_id, ParseUint64(id->second));
    request += ", \"id\": " + std::to_string(doc_id);
  }
  if (op == "upsert") {
    auto value = args.flags.find("value");
    if (value == args.flags.end()) {
      return Status::Invalid("--value STR is required for 'upsert'");
    }
    request += ", \"value\": \"" + serve::JsonEscape(value->second) + "\"";
    SSJOIN_ASSIGN_OR_RETURN(filter::AttrSet attrs, AttrsFlag(args));
    if (!attrs.empty()) {
      request += ", \"attrs\": " + serve::AttrsToJson(attrs);
    }
  }
  request += "}";
  return SocketRoundTrip(socket_path->second, request);
}

Result<int> RunLookup(const Args& args) {
  auto socket_path = args.flags.find("socket");
  if (socket_path != args.flags.end()) {
    return RunRemoteLookup(args, socket_path->second);
  }

  std::unique_ptr<index::MutableFuzzyIndex> index;
  if (auto data = args.flags.find("data"); data != args.flags.end()) {
    index::MutableIndexOptions options;
    options.data_dir = data->second;
    SSJOIN_ASSIGN_OR_RETURN(index, index::MutableFuzzyIndex::Open(options));
  } else {
    SSJOIN_ASSIGN_OR_RETURN(index, BuildFuzzyIndex(args, ""));
  }
  SSJOIN_ASSIGN_OR_RETURN(size_t k, SizeFlag(args, "k", 3));
  SSJOIN_ASSIGN_OR_RETURN(filter::FilterPredicate filter, FilterFlag(args));
  std::shared_ptr<const index::EpochState> state = index->Snapshot();

  auto print_matches = [&](const std::string& query) {
    auto matches = index->LookupAt(*state, query, k, filter);
    for (const auto& m : matches) {
      std::printf("%llu\t%.6f\t%s\n", static_cast<unsigned long long>(m.id),
                  m.similarity,
                  index->ValueAt(*state, m.id).value_or("").c_str());
    }
    if (matches.empty()) {
      std::fprintf(stderr, "no match above alpha=%.2f for '%s'\n",
                   index->options().match.alpha, query.c_str());
    }
  };

  auto query = args.flags.find("query");
  if (query != args.flags.end()) {
    print_matches(query->second);
    SSJOIN_RETURN_NOT_OK(MaybeWriteStatsJson(args));
    return 0;
  }
  // Without --query, serve stdin line by line (one query per line).
  char line[4096];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    std::string q(line);
    while (!q.empty() && (q.back() == '\n' || q.back() == '\r')) q.pop_back();
    if (!q.empty()) print_matches(q);
  }
  SSJOIN_RETURN_NOT_OK(MaybeWriteStatsJson(args));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pre-create the core/exec/approx metric names so --stats-json output
  // covers the full set even for commands that never touch a layer.
  core::RegisterCoreMetrics();
  exec::RegisterExecMetrics();
  approx::RegisterApproxMetrics();
  kernels::RegisterKernelMetrics();
  filter::RegisterFilterMetrics();
  Args args = ParseArgs(argc, argv, /*with_command=*/true);
  if (Status st = ApplyKernelFlag(args); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  Result<int> rc = Status::Invalid("unreachable");
  if (args.command == "join") {
    rc = RunJoin(args);
  } else if (args.command == "snapshot") {
    rc = RunSnapshot(args);
  } else if (args.command == "lookup") {
    rc = RunLookup(args);
  } else if (args.command == "upsert" || args.command == "delete" ||
             args.command == "compact" || args.command == "seal" ||
             args.command == "resync" || args.command == "sync" ||
             args.command == "epoch") {
    rc = RunMutation(args, args.command);
  } else {
    return Usage();
  }
  if (!rc.ok()) {
    std::fprintf(stderr, "error: %s\n", rc.status().ToString().c_str());
    return 1;
  }
  return *rc;
}
