#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/// \file
/// What a workload run hands back to main(), and the shared end-to-end
/// metric computation.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Working directory of this run (sockets, CSV, data dirs), relative to
  /// the working directory so socket paths stay short.
  std::string run_dir;
};

struct RunResult {
  bool correct = true;
  OpCount ops;
  /// End-to-end metrics (untraced runs) or per-layer metrics (traced runs),
  /// by name; main() attaches units and fills unmeasured layers.
  std::map<std::string, double> metrics;
  /// Extra descriptor fields as raw JSON values (seed, input sizes, server
  /// flags, WAL policy, ...).
  std::vector<std::pair<std::string, std::string>> info;
  /// Human-readable notes printed before the result line.
  std::vector<std::string> notes;
  /// Spans of the traced run, written out by main().
  std::unique_ptr<Tracer> tracer;
};

/// Timings of one measured phase: per-operation latencies and the wall time
/// the phase took. Phases with many ops a second also keep when each op
/// completed, so their throughput is a median over 1 s sub-windows.
struct Phase {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // completion times from the phase start
  double elapsed_s = 0.0;

  double OpsPerSecond() const {
    if (done_s.empty()) {
      return elapsed_s > 0 ? static_cast<double>(latency_ms.size()) / elapsed_s : 0.0;
    }
    return MedianRate(done_s, elapsed_s, 1.0);
  }
};

/// Fills the five end-to-end metrics from a measured phase.
void SetEndToEnd(const std::vector<double>& setup_s, double peak_rss_mb,
                 const Phase& phase, RunResult* out);

/// The join_edit_8k workload and the two serving workloads.
RunResult RunJoinWorkload(const RunOptions& options);
RunResult RunServeWorkload(const RunOptions& options);

/// JSON string literal for `s` (quotes included).
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
