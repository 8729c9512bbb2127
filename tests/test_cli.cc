/// End-to-end tests of the ssjoin_cli and ssjoin_served tools: writes CSV
/// inputs, invokes the binaries (paths injected by CMake as SSJOIN_CLI_PATH
/// and SSJOIN_SERVED_PATH), and checks outputs. Exercises argument
/// validation, the snapshot/lookup subcommands (a snapshot is a one-segment
/// data dir), live socket round trips against ssjoin_served, and a
/// coordinator over shard-server processes.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/csv.h"
#include "serve/wire.h"
#include "shard/router.h"
#include "shard/wire_client.h"

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

/// This test's own scratch directory, created on first use. The process id
/// and the test name keep concurrent runs (ctest -j, or two checkouts) from
/// sharing a socket, a data dir or a pid file.
std::string TestDir() {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = ::testing::TempDir() + "ssjoin_cli." +
                    std::to_string(::getpid()) + "." + test->name();
  std::filesystem::create_directories(dir);
  return dir;
}

std::string TempPath(const std::string& name) {
  return TestDir() + "/" + name;
}

class CliTest : public ::testing::Test {
 protected:
  /// A failed test keeps its directory: its server logs are there.
  void TearDown() override {
    if (!HasFailure()) std::filesystem::remove_all(TestDir());
  }
};

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
  std::string err_path = TempPath("cli_stderr.txt");
  std::string cmd =
      binary + " " + args + " >/dev/null 2>" + err_path;
  int rc = std::system(cmd.c_str());
  *err = ReadWholeFile(err_path);
  std::remove(err_path.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

// Runs the CLI and captures its stdout into *out.
int RunCliCapture(const std::string& args, std::string* out) {
  std::string out_path = TempPath("cli_capture.txt");
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

TEST_F(CliTest, EditJoinEndToEnd) {
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

TEST_F(CliTest, TwoTableJaccardJoin) {
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

TEST_F(CliTest, UsageAndErrorPaths) {
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

TEST_F(CliTest, UnknownAlgorithmListsValidNames) {
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

TEST_F(CliTest, ApproxAndHybridAlgorithmsJoin) {
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

TEST_F(CliTest, FuzzToolRejectsMalformedNumericFlags) {
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

TEST_F(CliTest, RejectsMalformedNumericFlags) {
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
                      "--k-default=abc"),
            0);
  EXPECT_NE(RunServed("--data /nope.d --socket /tmp/unused.sock "
                      "--max-queue -5"),
            0);

  std::remove(in.c_str());
}

TEST_F(CliTest, StatsJsonDumpsMetricRegistry) {
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

TEST_F(CliTest, SnapshotAndDirectLookup) {
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

TEST_F(CliTest, SnapshotAndLookupErrorPaths) {
  std::string in = TempPath("cli_ref_err.csv");
  WriteFile(in, kReferenceCsv);
  EXPECT_NE(RunCli("snapshot --reference " + in + " --col name"), 0);  // no --out
  EXPECT_NE(RunCli("snapshot --reference /nope.csv --col name --out x.d"), 0);
  EXPECT_NE(RunCli("lookup --data /nope.d --query x"), 0);
  EXPECT_NE(RunCli("lookup --query x"), 0);  // no index source
  std::remove(in.c_str());
}

TEST_F(CliTest, ZeroLengthQGramsFailCleanly) {
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

TEST_F(CliTest, ServedSocketRoundTrip) {
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

  // Repeat the query: the second lookup runs again and answers the same
  // bytes.
  std::string repeat;
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock +
                              " --query \"International Business Machines Inc\" --k 2",
                          &repeat),
            0);
  EXPECT_EQ(repeat, out);
  std::string stats;
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock + " --stats", &stats), 0);
  EXPECT_NE(stats.find("\"requests\": 2"), std::string::npos) << stats;

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

TEST_F(CliTest, ServedSurvivesTruncatedClients) {
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

TEST_F(CliTest, ServedRejectsInexactNumericFields) {
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

/// Reads from `fd` until `lines` newline-terminated replies have arrived
/// (or the socket's receive timeout / EOF), returning them without newlines.
std::vector<std::string> ReadLines(int fd, size_t lines) {
  std::vector<std::string> out;
  std::string current;
  char buf[4096];
  while (out.size() < lines) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] != '\n') {
        current.push_back(buf[i]);
      } else {
        out.push_back(std::move(current));
        current.clear();
      }
    }
  }
  return out;
}

TEST_F(CliTest, ServedAnswersPipelinedAndSplitRequests) {
  std::string in = TempPath("pipeline_ref.csv");
  std::string sock = TempPath("pipeline.sock");
  std::string server_log = TempPath("pipeline_served.log");
  WriteFile(in, kReferenceCsv);
  std::remove(sock.c_str());
  // getvalue and gstats_reset are shard-server ops.
  std::string server_cmd = std::string(SSJOIN_SERVED_PATH) + " --reference " +
                           in + " --col name --alpha 0.4 --shard-server --socket " +
                           sock + " >" + server_log + " 2>&1 &";
  ASSERT_EQ(std::system(server_cmd.c_str()), 0);
  ASSERT_TRUE(WaitFor([&] { return ::access(sock.c_str(), F_OK) == 0; },
                      std::chrono::seconds(10)))
      << ReadWholeFile(server_log);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{30, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)),
            0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // A burst in one write: 40 upserts, then 40 reads of them in reverse
  // order, with blank and CRLF-terminated lines mixed in. Each request is
  // answered exactly once, in order: the epochs climb by one per upsert and
  // every read names its own id's value.
  constexpr size_t kBurst = 40;
  std::string burst;
  for (size_t i = 0; i < kBurst; ++i) {
    burst += "{\"op\": \"upsert\", \"id\": " + std::to_string(1000 + i) +
             ", \"value\": \"Burst Record " + std::to_string(i) + "\"}" +
             (i % 7 == 0 ? "\r\n\n" : "\n");
  }
  for (size_t i = kBurst; i-- > 0;) {
    burst += "{\"op\": \"getvalue\", \"id\": " + std::to_string(1000 + i) +
             "}\n";
  }
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  std::vector<std::string> replies = ReadLines(fd, 2 * kBurst);
  ASSERT_EQ(replies.size(), 2 * kBurst) << ReadWholeFile(server_log);
  uint64_t first_epoch = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    auto obj = serve::ParseJsonObject(replies[i]);
    ASSERT_TRUE(obj.ok()) << replies[i];
    ASSERT_TRUE(obj->count("epoch")) << replies[i];
    uint64_t epoch = static_cast<uint64_t>(obj->at("epoch").num);
    if (i == 0) first_epoch = epoch;
    EXPECT_EQ(epoch, first_epoch + i) << replies[i];
  }
  for (size_t j = 0; j < kBurst; ++j) {
    size_t i = kBurst - 1 - j;
    EXPECT_EQ(replies[kBurst + j],
              "{\"ok\": true, \"found\": true, \"value\": \"Burst Record " +
                  std::to_string(i) + "\"}");
  }

  // One multi-MB request split across many small writes, then a ping on the
  // same connection: the server reassembles the line and stays in step.
  std::vector<std::string> values(150000, "Initech Corporation");
  std::string big = "{\"op\": \"gstats_reset\", \"values\": \"" +
                    serve::JsonEscape(shard::PackNetstrings(values)) +
                    "\"}\n{\"op\": \"ping\"}\n";
  ASSERT_GT(big.size(), size_t{3} << 20);
  for (size_t off = 0; off < big.size(); off += 3000) {
    size_t len = std::min<size_t>(3000, big.size() - off);
    ASSERT_EQ(::write(fd, big.data() + off, len), static_cast<ssize_t>(len));
  }
  replies = ReadLines(fd, 2);
  ASSERT_EQ(replies.size(), 2u) << ReadWholeFile(server_log);
  EXPECT_EQ(replies[0].rfind("{\"ok\": true, \"epoch\": ", 0), 0u)
      << replies[0];
  EXPECT_EQ(replies[1], "{\"ok\": true}");
  ::close(fd);

  std::string out;
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock + " --shutdown", &out), 0);
  EXPECT_TRUE(WaitFor([&] { return ::access(sock.c_str(), F_OK) != 0; },
                      std::chrono::seconds(10)))
      << ReadWholeFile(server_log);
  std::remove(in.c_str());
  std::remove(server_log.c_str());
}

TEST_F(CliTest, ServedChurnKillRestartRecovers) {
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

/// The `"matches": [...]` tail of a lookup reply (the last field).
std::string MatchesOf(const std::string& reply) {
  size_t at = reply.find("\"matches\": ");
  return at == std::string::npos ? "<no matches in " + reply + ">"
                                 : reply.substr(at);
}

/// The `"epoch": N` field of a reply, or -1 when it has none.
long long EpochOf(const std::string& reply) {
  size_t at = reply.find("\"epoch\": ");
  if (at == std::string::npos) return -1;
  return std::atoll(reply.c_str() + at + std::strlen("\"epoch\": "));
}

/// Background ssjoin_served processes, each killed at scope exit if still
/// alive, so a failing assertion never leaks a server.
class ServerFleet {
 public:
  ~ServerFleet() {
    for (const auto& [sock, pid] : pids_) ::kill(pid, SIGKILL);
  }

  /// Starts `ssjoin_served <args> --socket <sock>` and waits for its socket.
  void Start(const std::string& sock, const std::string& args) {
    std::string pid_path = sock + ".pid";
    std::string log = sock + ".log";
    std::remove(sock.c_str());
    std::string cmd = std::string(SSJOIN_SERVED_PATH) + " " + args +
                      " --socket " + sock + " >" + log + " 2>&1 & echo $! > " +
                      pid_path;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
    pids_[sock] = std::atoi(ReadWholeFile(pid_path).c_str());
    std::remove(pid_path.c_str());
    ASSERT_GT(pids_[sock], 1);
    ASSERT_TRUE(WaitFor([&] { return ::access(sock.c_str(), F_OK) == 0; },
                        std::chrono::seconds(10)))
        << ReadWholeFile(log);
  }

  /// kill -9: no orderly shutdown, the socket file stays behind.
  void Kill(const std::string& sock) {
    int pid = pids_[sock];
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    WaitFor([&] { return ::kill(pid, 0) != 0; }, std::chrono::seconds(5));
    pids_.erase(sock);
  }

  /// Orderly shutdown of every server; each removes its socket on exit.
  void ShutdownAll() {
    for (const auto& [sock, pid] : pids_) {
      EXPECT_NE(RoundTrip(sock, R"({"op": "shutdown"})").find("stopping"),
                std::string::npos);
      EXPECT_TRUE(WaitFor([&] { return ::access(sock.c_str(), F_OK) != 0; },
                          std::chrono::seconds(10)))
          << ReadWholeFile(sock + ".log");
      std::remove((sock + ".log").c_str());
    }
    pids_.clear();
  }

  /// The process id of the server at `sock`.
  int pid(const std::string& sock) const { return pids_.at(sock); }

 private:
  std::map<std::string, int> pids_;
};

/// The number of memory mappings of process `pid` (lines of its maps file).
size_t MappingCount(int pid) {
  std::istringstream maps(
      ReadWholeFile("/proc/" + std::to_string(pid) + "/maps"));
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST_F(CliTest, ClosedConnectionsReleaseTheirThreads) {
  const std::string in = TempPath("ref.csv");
  WriteFile(in, kReferenceCsv);
  const std::string sock = TempPath("s.sock");
  ServerFleet fleet;
  fleet.Start(sock, "--reference " + in + " --col name --alpha 0.4");
  const int pid = fleet.pid(sock);
  auto ping = [&] {
    ASSERT_EQ(RoundTrip(sock, R"({"op": "ping"})").find("\"ok\": true"), 1u);
  };
  // A thread kept until shutdown keeps its stack and guard page mapped: two
  // mappings per closed connection, 400 over the 200 below. After a warm-up
  // (connection threads map a malloc arena, and a sanitizer runtime a few
  // dozen regions of its own, once), the count must stay flat.
  for (int i = 0; i < 50; ++i) ping();
  const size_t start = MappingCount(pid);
  ASSERT_GT(start, 0u);
  for (int i = 0; i < 200; ++i) ping();
  EXPECT_TRUE(WaitFor([&] { return MappingCount(pid) <= start + 64; },
                      std::chrono::seconds(5)))
      << "mappings " << start << " -> " << MappingCount(pid);
  fleet.ShutdownAll();
}

TEST_F(CliTest, FollowerKeepsCountingAcrossSync) {
  const std::string root = TempPath("follow");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string in = root + "/ref.csv";
  WriteFile(in, kReferenceCsv);
  const std::string leader = root + "/leader.sock";
  const std::string follower = root + "/follower.sock";
  ServerFleet fleet;
  fleet.Start(leader, "--reference " + in + " --col name --alpha 0.4 --data " +
                          root + "/leader");
  // A long interval leaves every sync to the explicit op below.
  fleet.Start(follower, "--follow " + leader + " --data " + root +
                            "/follower --sync-interval-ms 600000");

  auto lookup = [](const std::string& query) {
    return R"({"op": "lookup", "query": ")" + query + R"(", "k": 2})";
  };
  for (int i = 0; i < 5; ++i) {
    const std::string reply = RoundTrip(follower, lookup("Oracle Corporation"));
    ASSERT_NE(reply.find("Oracle Corporation"), std::string::npos) << reply;
  }
  ASSERT_NE(RoundTrip(leader, R"({"op": "upsert", "id": 100, )"
                              R"("value": "Hooli Extreme Widgets"})")
                .find("\"ok\": true"),
            std::string::npos);
  ASSERT_NE(RoundTrip(leader, R"({"op": "seal"})").find("\"ok\": true"),
            std::string::npos);
  const std::string synced = RoundTrip(follower, R"({"op": "sync"})");
  ASSERT_NE(synced.find("\"updated\": true"), std::string::npos) << synced;
  EXPECT_EQ(EpochOf(synced), EpochOf(RoundTrip(leader, R"({"op": "epoch"})")));

  // The swapped-in index answers with the new doc, and the service that
  // counted the five lookups before the sync counts this one too.
  const std::string found = RoundTrip(follower, lookup("Hooli Extreme Widgets"));
  EXPECT_NE(found.find(R"("ref": 100, "similarity": 1.000000)"),
            std::string::npos)
      << found;
  const std::string stats = RoundTrip(follower, R"({"op": "stats"})");
  EXPECT_NE(stats.find(R"("requests": 6,)"), std::string::npos) << stats;

  fleet.ShutdownAll();
  std::filesystem::remove_all(root);
}

TEST_F(CliTest, CoordinatorMatchesUnshardedOracle) {
  const std::string root = TempPath("coord_e2e");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  auto sock = [&](const std::string& name) {
    return root + "/" + name + ".sock";
  };
  ServerFleet fleet;
  std::vector<std::string> shard_socks;
  for (int i = 0; i < 3; ++i) {
    std::string name = "s" + std::to_string(i);
    shard_socks.push_back(sock(name));
    fleet.Start(sock(name),
                "--data " + root + "/" + name + " --alpha 0.4 --shard-server");
  }
  fleet.Start(sock("oracle"), "--data " + root + "/oracle --alpha 0.4");
  fleet.Start(sock("coord"), "--coordinator " + shard_socks[0] + "," +
                                 shard_socks[1] + "," + shard_socks[2]);
  const std::string coord = sock("coord");
  const std::string oracle = sock("oracle");

  // Every mutation goes through the coordinator and, verbatim, to the
  // oracle. Each coordinator reply carries the cluster epoch: the `epoch`
  // op right after it must agree, and the sequence never decreases — a
  // delete of an absent id included.
  const std::vector<std::string> names = {
      "International Business Machines Corporation", "Microsoft Corporation",
      "Apple Computer Inc", "Oracle Systems Corporation",
      "Sun Microsystems Inc", "Digital Equipment Corporation",
      "Hewlett Packard Company", "Silicon Graphics Inc",
      "Advanced Micro Devices Inc", "Texas Instruments Incorporated"};
  std::vector<std::string> mutations;
  for (size_t id = 0; id < names.size(); ++id) {
    mutations.push_back(R"({"op": "upsert", "id": )" + std::to_string(id) +
                        R"(, "value": ")" + names[id] + R"("})");
  }
  for (const char* id : {"7", "77", "78", "7"}) {
    mutations.push_back(std::string(R"({"op": "delete", "id": )") + id + "}");
  }
  long long last_epoch = -1;
  for (const std::string& request : mutations) {
    std::string reply = RoundTrip(coord, request);
    ASSERT_NE(reply.find("\"ok\": true"), std::string::npos)
        << request << " -> " << reply;
    ASSERT_NE(RoundTrip(oracle, request).find("\"ok\": true"),
              std::string::npos);
    long long epoch = EpochOf(reply);
    EXPECT_EQ(epoch, EpochOf(RoundTrip(coord, R"({"op": "epoch"})")))
        << request << " -> " << reply;
    EXPECT_GE(epoch, last_epoch) << request << " -> " << reply;
    last_epoch = epoch;
  }

  const std::vector<std::string> queries = {
      "International Business Machines Inc", "Oracle Systems",
      "Advanced Micro Devices", "Packard Hewlett", "Digital Equipment"};
  auto lookup = [](const std::string& query) {
    return R"({"op": "lookup", "query": ")" + query + R"(", "k": 3})";
  };
  auto expect_identical = [&](const char* phase) {
    for (const std::string& q : queries) {
      std::string got = RoundTrip(coord, lookup(q));
      EXPECT_NE(got.find(R"("degraded": false, "shards_ok": 3)"),
                std::string::npos)
          << phase << ": " << got;
      EXPECT_EQ(MatchesOf(got), MatchesOf(RoundTrip(oracle, lookup(q))))
          << phase << ", query " << q;
    }
  };
  expect_identical("after churn");

  // kill -9 one shard: lookups degrade to the two survivors, and a mutation
  // the dead shard owns fails.
  fleet.Kill(shard_socks[1]);
  std::string degraded = RoundTrip(coord, lookup(queries[1]));
  EXPECT_NE(degraded.find(R"("degraded": true, "shards_ok": 2)"),
            std::string::npos)
      << degraded;
  uint64_t dead_id = 100;
  while (shard::ShardOf(dead_id, 3) != 1) ++dead_id;
  std::string refused = RoundTrip(
      coord, R"({"op": "upsert", "id": )" + std::to_string(dead_id) +
                 R"(, "value": "Should Not Land"})");
  EXPECT_NE(refused.find("\"ok\": false"), std::string::npos) << refused;

  // Restart it on its durable dir (WAL replay) and resync the cluster's
  // global statistics: the answers are whole and identical again.
  fleet.Start(shard_socks[1], "--data " + root + "/s1 --alpha 0.4 --shard-server");
  EXPECT_NE(RoundTrip(coord, R"({"op": "resync"})").find("\"resynced\": true"),
            std::string::npos);
  expect_identical("after restart + resync");

  fleet.ShutdownAll();
  std::filesystem::remove_all(root);
}

TEST_F(CliTest, ShardedServerExportsEachMetricLabelOnce) {
  const std::string in = TempPath("ref.csv");
  WriteFile(in, kReferenceCsv);
  const std::string sock = TempPath("s.sock");
  ServerFleet fleet;
  fleet.Start(sock, "--reference " + in + " --col name --alpha 0.4 --shards 3");
  constexpr int kLookups = 5;
  for (int i = 0; i < kLookups; ++i) {
    const std::string reply =
        RoundTrip(sock, R"({"op": "lookup", "query": "Oracle Corp", "k": 2})");
    ASSERT_NE(reply.find("\"ok\": true"), std::string::npos) << reply;
  }

  // Every shard's service and index export the same names; the shard=<i>
  // label tells them apart, so no (metric, label) pair repeats. The
  // fan-out's shard.* family belongs to the server and has no label.
  std::string metrics;
  ASSERT_EQ(RunCliCapture("lookup --socket " + sock + " --metrics", &metrics), 0);
  std::map<std::pair<std::string, std::string>, double> values;
  std::istringstream lines(metrics);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto obj = serve::ParseJsonObject(line);
    ASSERT_TRUE(obj.ok()) << obj.status().ToString() << " line: " << line;
    const std::string label = obj->count("label") ? obj->at("label").str : "";
    const double value =
        obj->at(obj->count("value") ? "value" : "count").num;
    EXPECT_TRUE(
        values.emplace(std::make_pair(obj->at("metric").str, label), value)
            .second)
        << "repeated: " << line;
  }
  size_t serve_requests = 0;
  double live_docs = 0;
  for (const auto& [key, value] : values) {
    const auto& [name, label] = key;
    if (name.rfind("shard.", 0) == 0) EXPECT_EQ(label, "") << name;
    if (name == "serve.requests") {
      ++serve_requests;
      EXPECT_EQ(label.rfind("shard=", 0), 0u) << label;
      EXPECT_EQ(value, kLookups) << label;
    }
    if (name == "index.live_docs") live_docs += value;
  }
  EXPECT_EQ(serve_requests, 3u) << metrics;
  for (const char* label : {"shard=0", "shard=1", "shard=2"}) {
    EXPECT_EQ(values.count({"serve.requests", label}), 1u) << label;
  }
  EXPECT_EQ(live_docs, 4.0) << metrics;
  ASSERT_EQ(values.count({"shard.lookups", ""}), 1u) << metrics;
  EXPECT_EQ((values[{"shard.lookups", ""}]), kLookups);

  fleet.ShutdownAll();
}

TEST_F(CliTest, StandaloneServerRefusesShardOps) {
  const std::string root = TempPath("standalone_ops");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string in = root + "/ref.csv";
  WriteFile(in, kReferenceCsv);
  const std::string sock = root + "/s.sock";
  ServerFleet fleet;
  fleet.Start(sock, "--reference " + in + " --col name --alpha 0.4");

  const std::string lookup =
      R"({"op": "lookup", "query": "Oracle Systems Corporation", "k": 2})";
  const std::string before = RoundTrip(sock, lookup);
  ASSERT_NE(before.find("Oracle Corporation"), std::string::npos) << before;

  // Without --shard-server no client may reach the shard-internal ops: a
  // gstats_reset would switch the server into global-stats scoring and
  // make the match above disappear.
  for (const std::string& request : {
           std::string(R"({"op": "gstats_reset", "values": "5:Hooli,"})"),
           std::string(R"({"op": "gstats", "has_added": true, "added": "Hooli"})"),
           std::string(R"({"op": "slookup", "query": "Oracle", "k": 1})"),
           std::string(R"({"op": "dump"})"),
           std::string(R"({"op": "getvalue", "id": 1})")}) {
    const std::string reply = RoundTrip(sock, request);
    EXPECT_NE(reply.find("\"ok\": false"), std::string::npos) << request << " -> " << reply;
    EXPECT_NE(reply.find("unknown op"), std::string::npos) << request << " -> " << reply;
  }
  EXPECT_EQ(MatchesOf(RoundTrip(sock, lookup)), MatchesOf(before));

  fleet.ShutdownAll();
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace ssjoin
