/// End-to-end tests of the ssjoin_cli and ssjoin_served tools: writes CSV
/// inputs, invokes the binaries (paths injected by CMake as SSJOIN_CLI_PATH
/// and SSJOIN_SERVED_PATH), and checks outputs. Exercises argument
/// validation, the snapshot/lookup subcommands (a snapshot is a one-segment
/// data dir), and a live socket round trip against ssjoin_served.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/csv.h"
#include "serve/wire.h"

#ifndef SSJOIN_CLI_PATH
#error "SSJOIN_CLI_PATH must be defined by the build"
#endif
#ifndef SSJOIN_SERVED_PATH
#error "SSJOIN_SERVED_PATH must be defined by the build"
#endif
#ifndef SSJOIN_FUZZ_PATH
#error "SSJOIN_FUZZ_PATH must be defined by the build"
#endif

namespace ssjoin {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good());
  out << content;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int RunCli(const std::string& args) {
  std::string cmd = std::string(SSJOIN_CLI_PATH) + " " + args + " 2>/dev/null";
  int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

// Runs an arbitrary binary and captures its stderr into *err.
int RunCaptureStderr(const std::string& binary, const std::string& args,
                     std::string* err) {
  std::string err_path =
      TempPath("cli_stderr_" + std::to_string(::getpid()) + ".txt");
  std::string cmd =
      binary + " " + args + " >/dev/null 2>" + err_path;
  int rc = std::system(cmd.c_str());
  *err = ReadWholeFile(err_path);
  std::remove(err_path.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

// Runs the CLI and captures its stdout into *out.
int RunCliCapture(const std::string& args, std::string* out) {
  // Per-process name: ctest runs sibling tests as concurrent processes.
  std::string out_path =
      TempPath("cli_capture_" + std::to_string(::getpid()) + ".txt");
  std::string cmd = std::string(SSJOIN_CLI_PATH) + " " + args + " >" +
                    out_path + " 2>/dev/null";
  int rc = std::system(cmd.c_str());
  *out = ReadWholeFile(out_path);
  std::remove(out_path.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

bool WaitFor(const std::function<bool()>& pred,
             std::chrono::milliseconds budget) {
  auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

TEST(CliTest, EditJoinEndToEnd) {
  std::string in = TempPath("cli_orgs.csv");
  std::string out = TempPath("cli_matches.csv");
  WriteFile(in,
            "name\n"
            "Microsoft Corp\n"
            "Mcrosoft Corp\n"
            "Oracle Corporation\n"
            "Apple Inc\n");
  int rc = RunCli("join --left " + in + " --left-col name --sim edit "
                  "--threshold 0.8 --out " + out);
  ASSERT_EQ(rc, 0);
  auto table = *engine::ReadCsvFile(out);
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.GetValue(2, 0).string(), "Microsoft Corp");
  EXPECT_EQ(table.GetValue(3, 0).string(), "Mcrosoft Corp");
  EXPECT_GE(table.GetValue(4, 0).float64(), 0.8);
  std::remove(in.c_str());
  std::remove(out.c_str());
}

TEST(CliTest, TwoTableJaccardJoin) {
  std::string left = TempPath("cli_left.csv");
  std::string right = TempPath("cli_right.csv");
  std::string out = TempPath("cli_out2.csv");
  WriteFile(left, "org\nInternational Business Machines\nOracle Corp\n");
  WriteFile(right,
            "company\nInternational Business Machines Corp\nApple Inc\n");
  int rc = RunCli("join --left " + left + " --left-col org --right " + right +
                  " --right-col company --sim jaccard --threshold 0.5 --out " + out);
  ASSERT_EQ(rc, 0);
  auto table = *engine::ReadCsvFile(out);
  ASSERT_EQ(table.num_rows(), 1u);
  EXPECT_EQ(table.GetValue(0, 0).int64(), 0);
  EXPECT_EQ(table.GetValue(1, 0).int64(), 0);
  std::remove(left.c_str());
  std::remove(right.c_str());
  std::remove(out.c_str());
}

TEST(CliTest, UsageAndErrorPaths) {
  EXPECT_NE(RunCli(""), 0);                       // no command
  EXPECT_NE(RunCli("join"), 0);                   // missing flags
  EXPECT_NE(RunCli("join --left /nope.csv --left-col x"), 0);  // bad file
  std::string in = TempPath("cli_err.csv");
  WriteFile(in, "name\nfoo\n");
  EXPECT_NE(RunCli("join --left " + in + " --left-col missing"), 0);
  EXPECT_NE(RunCli("join --left " + in + " --left-col name --sim bogus"), 0);
  EXPECT_NE(RunCli("join --left " + in + " --left-col name --algorithm bogus"), 0);
  std::remove(in.c_str());
}

TEST(CliTest, UnknownAlgorithmListsValidNames) {
  std::string in = TempPath("cli_alg_err.csv");
  WriteFile(in, "name\nfoo\nfood\n");
  std::string err;
  int rc = RunCaptureStderr(SSJOIN_CLI_PATH,
                            "join --left " + in + " --left-col name "
                            "--threshold 0.5 --algorithm bogus", &err);
  EXPECT_NE(rc, 0);
  // The error must name the offender and enumerate every valid spelling.
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
  for (const char* name : {"basic", "inverted-index", "prefix-filter",
                           "inline", "approx", "hybrid", "cost"}) {
    EXPECT_NE(err.find(name), std::string::npos) << "missing " << name
                                                 << " in: " << err;
  }
  std::remove(in.c_str());
}

TEST(CliTest, ApproxAndHybridAlgorithmsJoin) {
  std::string in = TempPath("cli_approx.csv");
  std::string out = TempPath("cli_approx_out.csv");
  WriteFile(in,
            "name\n"
            "Microsoft Corp\n"
            "Mcrosoft Corp\n"
            "Oracle Corporation\n"
            "Apple Inc\n");
  for (std::string algorithm : {"approx", "hybrid"}) {
    int rc = RunCli("join --left " + in + " --left-col name --sim jaccard "
                    "--threshold 0.1 --algorithm " + algorithm +
                    " --target-recall 0.9 --out " + out);
    ASSERT_EQ(rc, 0) << algorithm;
    auto table = *engine::ReadCsvFile(out);
    // At this scale the exact floor fires, so the approximate tier returns
    // the full exact result: the one Microsoft/Mcrosoft pair.
    ASSERT_EQ(table.num_rows(), 1u) << algorithm;
    std::remove(out.c_str());
  }
  // Recall knob validation: out-of-range values die loudly.
  EXPECT_NE(RunCli("join --left " + in + " --left-col name --sim jaccard "
                   "--threshold 0.4 --algorithm approx --target-recall 0"),
            0);
  EXPECT_NE(RunCli("join --left " + in + " --left-col name --sim jaccard "
                   "--threshold 0.4 --algorithm approx --target-recall 1.5"),
            0);
  EXPECT_NE(RunCli("join --left " + in + " --left-col name --sim jaccard "
                   "--threshold 0.4 --algorithm approx --target-recall abc"),
            0);
  std::remove(in.c_str());
}

TEST(CliTest, FuzzToolRejectsMalformedNumericFlags) {
  std::string err;
  // std::atoi previously turned these into 0 silently; each must now be a
  // loud usage error naming the flag.
  EXPECT_EQ(RunCaptureStderr(SSJOIN_FUZZ_PATH, "--seeds=abc", &err), 2);
  EXPECT_NE(err.find("--seeds"), std::string::npos) << err;
  EXPECT_EQ(RunCaptureStderr(SSJOIN_FUZZ_PATH, "--start-seed=1x", &err), 2);
  EXPECT_NE(err.find("--start-seed"), std::string::npos) << err;
  EXPECT_EQ(RunCaptureStderr(SSJOIN_FUZZ_PATH, "--max-failures=-3", &err), 2);
  EXPECT_NE(err.find("--max-failures"), std::string::npos) << err;
  EXPECT_EQ(
      RunCaptureStderr(SSJOIN_FUZZ_PATH,
                       "--seeds=99999999999999999999999999", &err),
      2);
}

int RunServed(const std::string& args) {
  std::string cmd = std::string(SSJOIN_SERVED_PATH) + " " + args + " 2>/dev/null";
  int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(CliTest, RejectsMalformedNumericFlags) {
  std::string in = TempPath("cli_flags.csv");
  WriteFile(in, "name\nfoo\nfood\n");
  std::string base = "join --left " + in + " --left-col name --sim edit ";

  // Positive control first: the command is fine with well-formed values.
  EXPECT_EQ(RunCli(base + "--threshold 0.8 --threads=2"), 0);

  // std::atoi silently turned these into 0 (or wrapped negatives); every
  // one must now be a loud nonzero-exit error.
  EXPECT_NE(RunCli(base + "--threshold 0.8 --threads=abc"), 0);
  EXPECT_NE(RunCli(base + "--threshold 0.8 --threads abc"), 0);
  EXPECT_NE(RunCli(base + "--threshold 0.8 --threads -1"), 0);
  EXPECT_NE(RunCli(base + "--threshold 0.8 --threads 2x"), 0);
  EXPECT_NE(RunCli(base + "--threshold 0.8 --threads ''"), 0);
  EXPECT_NE(RunCli(base + "--threshold 0.8 --threads 99999999999999999999"), 0);
  EXPECT_NE(RunCli(base + "--threshold abc"), 0);
  EXPECT_NE(RunCli(base + "--threshold 1e999"), 0);
  EXPECT_NE(RunCli(base + "--threshold 0.8 --q=x"), 0);
  EXPECT_NE(RunCli(base + "--threshold 0.8 --morsel=-4"), 0);

  // ssjoin_served validates its numeric flags before loading anything, so a
  // bad value fails in milliseconds even alongside other broken flags.
  EXPECT_NE(RunServed("--data /nope.d --socket /tmp/unused.sock "
                      "--cache=abc"),
            0);
  EXPECT_NE(RunServed("--data /nope.d --socket /tmp/unused.sock "
                      "--max-queue -5"),
            0);

  std::remove(in.c_str());
}

TEST(CliTest, StatsJsonDumpsMetricRegistry) {
  std::string in = TempPath("cli_statsjson.csv");
  std::string stats_path = TempPath("cli_stats.ndjson");
  WriteFile(in, "name\nMicrosoft Corp\nMcrosoft Corp\nApple Inc\n");
  ASSERT_EQ(RunCli("join --left " + in + " --left-col name --sim jaccard "
                   "--threshold 0.5 --threads=2 --stats-json " + stats_path),
            0);

  std::string ndjson = ReadWholeFile(stats_path);
  ASSERT_FALSE(ndjson.empty());
  // Every line is a flat JSON object naming a metric; the run must have
  // touched all three layers' registries (serve is absent in a local join).
  bool saw_core_joins = false;
  bool saw_exec = false;
  std::istringstream lines(ndjson);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto obj = serve::ParseJsonObject(line);
    ASSERT_TRUE(obj.ok()) << obj.status().ToString() << " line: " << line;
    ASSERT_TRUE(obj->count("metric")) << line;
    const std::string& name = obj->at("metric").str;
    if (name == "core.joins") {
      saw_core_joins = true;
      EXPECT_GE(obj->at("value").num, 1.0) << line;
    }
    if (name == "exec.tasks_executed") saw_exec = true;
  }
  EXPECT_TRUE(saw_core_joins) << ndjson;
  EXPECT_TRUE(saw_exec) << ndjson;

  std::remove(in.c_str());
  std::remove(stats_path.c_str());
}

const char kReferenceCsv[] =
    "name\n"
    "Microsoft Corp\n"
    "Oracle Corporation\n"
    "Apple Inc\n"
    "International Business Machines\n";

TEST(CliTest, SnapshotAndDirectLookup) {
  std::string in = TempPath("cli_ref.csv");
  std::string snap = TempPath("cli_ref.d");
  WriteFile(in, kReferenceCsv);
  std::filesystem::remove_all(snap);
  ASSERT_EQ(RunCli("snapshot --reference " + in + " --col name --alpha 0.4 "
                   "--out " + snap),
            0);

  // Lookup against the snapshot must find the corrupted string's source.
  std::string out;
  ASSERT_EQ(RunCliCapture("lookup --data " + snap +
                              " --query \"International Business Machines Inc\" --k 2",
                          &out),
            0);
  EXPECT_NE(out.find("International Business Machines"), std::string::npos) << out;

  // The same lookup straight from the CSV (no snapshot) must agree.
  std::string direct;
  ASSERT_EQ(RunCliCapture("lookup --reference " + in +
                              " --col name --alpha 0.4 "
                              "--query \"International Business Machines Inc\" --k 2",
                          &direct),
            0);
  EXPECT_EQ(out, direct);

  // A second snapshot into the same data dir is refused, not merged.
  EXPECT_NE(RunCli("snapshot --reference " + in + " --col name --out " + snap),
            0);

  std::remove(in.c_str());
  std::filesystem::remove_all(snap);
}

TEST(CliTest, SnapshotAndLookupErrorPaths) {
  std::string in = TempPath("cli_ref_err.csv");
  WriteFile(in, kReferenceCsv);
  EXPECT_NE(RunCli("snapshot --reference " + in + " --col name"), 0);  // no --out
  EXPECT_NE(RunCli("snapshot --reference /nope.csv --col name --out x.d"), 0);
  EXPECT_NE(RunCli("lookup --data /nope.d --query x"), 0);
  EXPECT_NE(RunCli("lookup --query x"), 0);  // no index source
  std::remove(in.c_str());
}

TEST(CliTest, ZeroLengthQGramsFailCleanly) {
  // q = 0 is an invalid tokenizer: both tools must exit 1 with a message,
  // never abort.
  std::string in = TempPath("cli_qgram0.csv");
  std::string snap = TempPath("cli_qgram0.d");
  std::string sock = TempPath("cli_qgram0.sock");
  WriteFile(in, kReferenceCsv);
  std::filesystem::remove_all(snap);
  std::string err;
  EXPECT_EQ(RunCaptureStderr(SSJOIN_CLI_PATH,
                             "snapshot --reference " + in +
                                 " --col name --qgrams 0 --out " + snap,
                             &err),
            1);
  EXPECT_NE(err.find("q-gram length must be at least 1"), std::string::npos)
      << err;
  EXPECT_FALSE(std::filesystem::exists(snap));
  EXPECT_EQ(RunCaptureStderr(SSJOIN_SERVED_PATH,
                             "--reference " + in +
                                 " --col name --qgrams 0 --socket " + sock,
                             &err),
            1);
  EXPECT_NE(err.find("q-gram length must be at least 1"), std::string::npos)
      << err;
  std::remove(in.c_str());
}

TEST(CliTest, ServedSocketRoundTrip) {
  std::string in = TempPath("served_ref.csv");
  std::string snap = TempPath("served_ref.d");
  std::string sock = TempPath("served.sock");
  WriteFile(in, kReferenceCsv);
  std::remove(sock.c_str());
  std::filesystem::remove_all(snap);
  ASSERT_EQ(RunCli("snapshot --reference " + in + " --col name --alpha 0.4 "
                   "--out " + snap),
            0);

  std::string server_log = TempPath("served.log");
  std::string server_cmd = std::string(SSJOIN_SERVED_PATH) + " --data " +
                           snap + " --socket " + sock + " >" + server_log +
                           " 2>&1 &";
  ASSERT_EQ(std::system(server_cmd.c_str()), 0);
  ASSERT_TRUE(WaitFor([&] { return ::access(sock.c_str(), F_OK) == 0; },
                      std::chrono::seconds(10)))
      << ReadWholeFile(server_log);

  std::string out;
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock +
                              " --query \"International Business Machines Inc\" --k 2",
                          &out),
            0)
      << ReadWholeFile(server_log);
  EXPECT_NE(out.find("\"ok\": true"), std::string::npos) << out;
  EXPECT_NE(out.find("International Business Machines"), std::string::npos) << out;

  // Repeat the query: second time must be served from the cache.
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock +
                              " --query \"International Business Machines Inc\" --k 2",
                          &out),
            0);
  std::string stats;
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock + " --stats", &stats), 0);
  EXPECT_NE(stats.find("\"requests\": 2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"cache_hits\": 1"), std::string::npos) << stats;

  // The metrics op streams the server's full obs registry as NDJSON; every
  // line must parse and the three layers (core, exec, serve) must all show.
  std::string metrics;
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock + " --metrics", &metrics), 0);
  bool saw_core = false;
  bool saw_exec = false;
  bool saw_serve_requests = false;
  std::istringstream metric_lines(metrics);
  std::string line;
  while (std::getline(metric_lines, line)) {
    if (line.empty()) continue;
    auto obj = serve::ParseJsonObject(line);
    ASSERT_TRUE(obj.ok()) << obj.status().ToString() << " line: " << line;
    ASSERT_TRUE(obj->count("metric")) << line;
    const std::string& name = obj->at("metric").str;
    if (name.rfind("core.", 0) == 0) saw_core = true;
    if (name.rfind("exec.", 0) == 0) saw_exec = true;
    if (name == "serve.requests") {
      saw_serve_requests = true;
      EXPECT_GE(obj->at("value").num, 2.0) << line;
    }
  }
  EXPECT_TRUE(saw_core) << metrics;
  EXPECT_TRUE(saw_exec) << metrics;
  EXPECT_TRUE(saw_serve_requests) << metrics;

  // Ping, then orderly shutdown; the server removes its socket on exit.
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock + " --ping", &out), 0);
  EXPECT_NE(out.find("\"ok\": true"), std::string::npos) << out;
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock + " --shutdown", &out), 0);
  EXPECT_NE(out.find("\"stopping\": true"), std::string::npos) << out;
  EXPECT_TRUE(WaitFor([&] { return ::access(sock.c_str(), F_OK) != 0; },
                      std::chrono::seconds(10)))
      << ReadWholeFile(server_log);

  // A client against the dead socket fails cleanly.
  EXPECT_NE(RunCli("lookup --socket " + sock + " --ping"), 0);

  std::remove(in.c_str());
  std::filesystem::remove_all(snap);
  std::remove(server_log.c_str());
}

/// Raw-socket client that misbehaves on purpose: connects, sends `bytes`
/// (possibly a partial request), optionally reads `read_bytes` of response,
/// then slams the connection shut.
void TruncatedClient(const std::string& sock, const std::string& bytes,
                     size_t read_bytes) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  if (read_bytes > 0) {
    std::string buf(read_bytes, '\0');
    (void)!::read(fd, buf.data(), buf.size());
  }
  ::close(fd);  // no clean goodbye: the server's write hits a dead peer
}

TEST(CliTest, ServedSurvivesTruncatedClients) {
  std::string in = TempPath("trunc_ref.csv");
  std::string snap = TempPath("trunc_ref.d");
  std::string sock = TempPath("trunc.sock");
  WriteFile(in, kReferenceCsv);
  std::remove(sock.c_str());
  std::filesystem::remove_all(snap);
  ASSERT_EQ(RunCli("snapshot --reference " + in + " --col name --alpha 0.4 "
                   "--out " + snap),
            0);
  std::string server_log = TempPath("trunc_served.log");
  std::string server_cmd = std::string(SSJOIN_SERVED_PATH) + " --data " +
                           snap + " --socket " + sock + " >" + server_log +
                           " 2>&1 &";
  ASSERT_EQ(std::system(server_cmd.c_str()), 0);
  ASSERT_TRUE(WaitFor([&] { return ::access(sock.c_str(), F_OK) == 0; },
                      std::chrono::seconds(10)))
      << ReadWholeFile(server_log);

  const std::string lookup =
      "{\"op\": \"lookup\", \"query\": \"International Business Machines\", "
      "\"k\": 3}\n";
  for (int round = 0; round < 5; ++round) {
    // Full request, zero response bytes read: the server's response write
    // lands on a closed peer (EPIPE path of the write loop).
    TruncatedClient(sock, lookup, 0);
    // Full request, response truncated after 1 byte (close mid-response).
    TruncatedClient(sock, lookup, 1);
    // Half a request and no newline: EOF mid-line must not be treated as a
    // request, and must not wedge the connection thread.
    TruncatedClient(sock, lookup.substr(0, lookup.size() / 2), 0);
  }

  // The server is still healthy for well-behaved clients afterwards.
  std::string out;
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock +
                              " --query \"International Business Machines\" --k 2",
                          &out),
            0)
      << ReadWholeFile(server_log);
  EXPECT_NE(out.find("\"ok\": true"), std::string::npos) << out;
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock + " --shutdown", &out), 0);
  EXPECT_TRUE(WaitFor([&] { return ::access(sock.c_str(), F_OK) != 0; },
                      std::chrono::seconds(10)))
      << ReadWholeFile(server_log);

  std::remove(in.c_str());
  std::filesystem::remove_all(snap);
  std::remove(server_log.c_str());
}

/// Sends one request line over a fresh connection and returns the one-line
/// response (without its newline).
std::string RoundTrip(const std::string& sock, const std::string& request) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::string line = request + "\n";
  EXPECT_EQ(::write(fd, line.data(), line.size()),
            static_cast<ssize_t>(line.size()));
  std::string response;
  char c;
  while (::read(fd, &c, 1) == 1 && c != '\n') response.push_back(c);
  ::close(fd);
  return response;
}

TEST(CliTest, ServedRejectsInexactNumericFields) {
  std::string in = TempPath("numeric_ref.csv");
  std::string sock = TempPath("numeric.sock");
  std::string server_log = TempPath("numeric_served.log");
  WriteFile(in, kReferenceCsv);
  std::remove(sock.c_str());
  std::string server_cmd = std::string(SSJOIN_SERVED_PATH) + " --reference " +
                           in + " --col name --alpha 0.4 --socket " + sock +
                           " >" + server_log + " 2>&1 &";
  ASSERT_EQ(std::system(server_cmd.c_str()), 0);
  ASSERT_TRUE(WaitFor([&] { return ::access(sock.c_str(), F_OK) == 0; },
                      std::chrono::seconds(10)))
      << ReadWholeFile(server_log);

  // Each number below used to be cast from double unchecked: a huge
  // deadline wrapped negative and expired at once, a huge k returned [],
  // a fractional k was truncated, and a fractional id overwrote doc 2.
  // Every one must now be an Invalid error naming its field.
  const std::vector<std::pair<std::string, std::string>> probes = {
      {R"({"op": "lookup", "query": "Microsoft Corp", "deadline_ms": 1e19})",
       "deadline_ms"},
      {R"({"op": "lookup", "query": "Microsoft Corp", "k": 1e30})", "'k'"},
      {R"({"op": "lookup", "query": "Microsoft Corp", "k": 2.9})", "'k'"},
      {R"({"op": "upsert", "id": 2.5, "value": "Overwritten Co"})", "'id'"},
  };
  for (const auto& [request, field] : probes) {
    std::string response = RoundTrip(sock, request);
    EXPECT_NE(response.find("\"ok\": false"), std::string::npos) << response;
    EXPECT_NE(response.find("\"code\": \"Invalid"), std::string::npos)
        << request << " -> " << response;
    EXPECT_NE(response.find(field), std::string::npos)
        << request << " -> " << response;
  }
  // Doc 2 is untouched, and in-range integral values still work.
  std::string response = RoundTrip(
      sock, R"({"op": "lookup", "query": "Apple Inc", "k": 1, "deadline_ms": 86400000})");
  EXPECT_NE(response.find("\"ok\": true"), std::string::npos) << response;
  EXPECT_NE(response.find("Apple Inc"), std::string::npos) << response;
  EXPECT_EQ(response.find("Overwritten"), std::string::npos) << response;

  std::string out;
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock + " --shutdown", &out), 0);
  EXPECT_TRUE(WaitFor([&] { return ::access(sock.c_str(), F_OK) != 0; },
                      std::chrono::seconds(10)))
      << ReadWholeFile(server_log);
  std::remove(in.c_str());
  std::remove(server_log.c_str());
}

TEST(CliTest, ServedChurnKillRestartRecovers) {
  std::string in = TempPath("churn_ref.csv");
  std::string sock = TempPath("churn.sock");
  std::string data = TempPath("churn_data");
  std::string pid_path = TempPath("churn.pid");
  WriteFile(in, kReferenceCsv);
  std::filesystem::remove_all(data);
  std::remove(sock.c_str());

  auto start_server = [&](const std::string& log) {
    std::string cmd = std::string(SSJOIN_SERVED_PATH) + " --reference " + in +
                      " --col name --alpha 0.4 --data " + data + " --socket " +
                      sock + " >" + log + " 2>&1 & echo $! > " + pid_path;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    ASSERT_TRUE(WaitFor([&] { return ::access(sock.c_str(), F_OK) == 0; },
                        std::chrono::seconds(10)))
        << ReadWholeFile(log);
  };

  std::string log1 = TempPath("churn1.log");
  start_server(log1);

  // Churn through the CLI: a new doc, a replacement, a delete, a compaction,
  // then one more unsealed upsert the restart must replay from the WAL.
  std::string out;
  ASSERT_EQ(RunCliCapture("upsert --socket " + sock +
                              " --id 100 --value "
                              "\"International Business Machines Corp\"",
                          &out),
            0)
      << ReadWholeFile(log1);
  EXPECT_NE(out.find("\"ok\": true"), std::string::npos) << out;
  EXPECT_NE(out.find("\"epoch\""), std::string::npos) << out;
  ASSERT_EQ(RunCli("upsert --socket " + sock + " --id 1 --value \"Oracle Corp\""),
            0);
  ASSERT_EQ(RunCli("delete --socket " + sock + " --id 2"), 0);
  ASSERT_EQ(RunCliCapture("compact --socket " + sock, &out), 0);
  EXPECT_NE(out.find("\"ok\": true"), std::string::npos) << out;
  ASSERT_EQ(RunCli("upsert --socket " + sock +
                   " --id 101 --value \"Apple Computer Inc\""),
            0);

  const std::vector<std::string> lookups = {
      "lookup --socket " + sock +
          " --query \"International Business Machines Inc\" --k 3",
      "lookup --socket " + sock + " --query \"Oracle Corp\" --k 3",
      "lookup --socket " + sock + " --query \"Apple Computer\" --k 3",
  };
  std::vector<std::string> before;
  for (const std::string& cmd : lookups) {
    ASSERT_EQ(RunCliCapture(cmd, &out), 0);
    before.push_back(out);
  }
  // The churn is visible pre-kill: the upserted doc matches, the deleted
  // original "Apple Inc" row is gone in favor of the replayed-tail doc.
  EXPECT_NE(before[0].find("International Business Machines Corp"),
            std::string::npos)
      << before[0];
  EXPECT_NE(before[2].find("Apple Computer Inc"), std::string::npos)
      << before[2];

  // Kill -9: no orderly shutdown, no final seal. Durability now rests
  // entirely on the manifest + WAL.
  int pid = std::atoi(ReadWholeFile(pid_path).c_str());
  ASSERT_GT(pid, 1);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  WaitFor([&] { return ::kill(pid, 0) != 0; }, std::chrono::seconds(5));
  std::remove(sock.c_str());

  // Restart against the same data dir: the manifest wins over --reference,
  // so the server reopens sealed segments and replays the unsealed WAL.
  std::string log2 = TempPath("churn2.log");
  start_server(log2);
  for (size_t i = 0; i < lookups.size(); ++i) {
    ASSERT_EQ(RunCliCapture(lookups[i], &out), 0) << ReadWholeFile(log2);
    EXPECT_EQ(out, before[i]) << "lookup " << i
                              << " diverged after kill+restart";
  }

  ASSERT_EQ(RunCliCapture("lookup --socket " + sock + " --shutdown", &out), 0);
  EXPECT_TRUE(WaitFor([&] { return ::access(sock.c_str(), F_OK) != 0; },
                      std::chrono::seconds(10)))
      << ReadWholeFile(log2);

  std::remove(in.c_str());
  std::remove(pid_path.c_str());
  std::remove(log1.c_str());
  std::remove(log2.c_str());
  std::filesystem::remove_all(data);
}

}  // namespace
}  // namespace ssjoin
