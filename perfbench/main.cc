/// perfbench: runs one benchmark workload and prints every metric by
/// name with its unit, then one JSON result line.
///
///   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///                    [--out-dir DIR]
///
/// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
/// metrics of a traced run and writes its spans to
/// DIR/traces/<workload>-seed<N>.jsonl. Every run writes its full record
/// (machine descriptor, inputs, metrics) to DIR/results/.

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/ssjoin.h"
#include "exec/metrics.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, in BENCHMARK.json order. An "op" is one join on
/// the join workload and one request (lookup or upsert) on the serving ones.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
};

/// The per-layer metrics, in BENCHMARK.json order. Time and count figures
/// are per op (per join, per lookup or per upsert). A workload that does not
/// exercise a layer reports 0 for it.
const MetricDef kPerLayer[] = {
    {"text.tokenize_us", "us"},
    {"text.encode_us", "us"},
    {"text.tokens", "count"},
    {"simjoin.prep_us", "us"},
    {"simjoin.verify_us", "us"},
    {"simjoin.verifier_calls", "count"},
    {"simjoin.verify_pass_ratio", "ratio"},
    {"simjoin.self_us", "us"},
    {"core.weights_us", "us"},
    {"core.order_us", "us"},
    {"core.build_relation_us", "us"},
    {"core.prefix_filter_us", "us"},
    {"core.prefix_elements", "count"},
    {"core.ssjoin_us", "us"},
    {"core.candidate_pairs", "count"},
    {"core.result_pairs", "count"},
    {"core.candidate_precision", "ratio"},
    {"core.self_us", "us"},
    {"exec.worker_busy_us", "us"},
    {"exec.worker_idle_us", "us"},
    {"exec.busy_share", "ratio"},
    {"exec.morsels_dispatched", "count"},
    {"kernels.intersect.calls", "count"},
    {"kernels.intersect.elements", "count"},
    {"kernels.probe.rows", "count"},
    {"kernels.accumulate.rows", "count"},
    {"index.lookup_p50_us", "us"},
    {"index.lookup_p99_us", "us"},
    {"index.query_tokenize_us", "us"},
    {"index.verifications_per_lookup", "count"},
    {"index.upsert_us", "us"},
    {"index.publish_us", "us"},
    {"index.seals", "count"},
    {"index.compactions", "count"},
    {"index.compaction_us", "us"},
    {"index.bulk_load_us", "us"},
    {"index.self_us", "us"},
    {"serve.wire_parse_us", "us"},
    {"serve.admission_us", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.lookup_us", "us"},
    {"serve.reply_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.cache_stale_purged", "count"},
    {"serve.self_us", "us"},
    {"served.overhead_us", "us"},
    {"client.join_ms_p50", "ms"},
    {"client.lookup_qps", "1/s"},
    {"client.lookup_p50_us", "us"},
    {"client.lookup_p99_us", "us"},
    {"client.upsert_per_s", "1/s"},
    {"client.upsert_p50_us", "us"},
    {"client.upsert_p99_us", "us"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

void SetEndToEnd(const std::vector<double>& setup_s, double peak_rss_mb,
                 const Phase& phase, RunResult* out) {
  TailChoice tail = ChooseTail(phase.latency_ms);
  out->metrics["setup_s"] = Median(setup_s);
  out->metrics["peak_rss_mb"] = peak_rss_mb;
  out->metrics["ops_per_s"] = phase.OpsPerSecond();
  out->metrics["latency_p50_ms"] = Median(phase.latency_ms);
  // The tail is reported but not bounded: on a shared host its run-to-run
  // spread is wider than any bound the benchmark may set.
  char note[160];
  std::snprintf(note, sizeof(note), "latency tail: p%g = %.6f ms of %zu ops (%zu beyond it)%s",
                tail.percentile, tail.value, phase.latency_ms.size(), tail.beyond,
                tail.qualified ? "" : "; too few ops for a tail, median shown");
  out->notes.push_back(note);
  std::string setups = "set-ups (s):";
  for (double s : setup_s) setups += " " + std::to_string(s);
  out->notes.push_back(setups);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

/// Shortest decimal that reads back as the same double.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The active kernel tier, read from the kernels.tier.* gauges.
std::string KernelTier() {
  ssjoin::kernels::RegisterKernelMetrics();
  for (const auto& p : ssjoin::obs::Registry::Global().Snapshot()) {
    if (p.name.rfind("kernels.tier.", 0) == 0 && p.gauge == 1) return p.name.substr(13);
  }
  return "unknown";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR]\n"
               "workloads: join_edit_8k serve_lookup_cold serve_mixed_churn\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  std::string out_dir = ".bench_build";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || !(options.seconds > 0)) return Usage();

  ssjoin::core::RegisterCoreMetrics();
  ssjoin::exec::RegisterExecMetrics();
  std::string tier = KernelTier();

  namespace fs = std::filesystem;
  std::string tag = options.workload + "-seed" + std::to_string(options.seed);
  options.run_dir = out_dir + "/run-" + std::to_string(::getpid());
  fs::remove_all(options.run_dir);
  fs::create_directories(options.run_dir);
  fs::create_directories(out_dir + "/results");

  RunResult result;
  const CpuSample cpu_before = ReadCpu();
  if (options.workload == "join_edit_8k") {
    result = RunJoinWorkload(options);
  } else if (options.workload == "serve_lookup_cold" ||
             options.workload == "serve_mixed_churn") {
    result = RunServeWorkload(options);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return Usage();
  }
  // Measured after the run, when every server it spawned has been reaped.
  const HostLoad load = HostLoadBetween(cpu_before, ReadCpu());
  fs::remove_all(options.run_dir);
  if (result.ops.attempted == 0) {
    for (const std::string& n : result.notes) std::fprintf(stderr, "%s\n", n.c_str());
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }

  // Every metric the mode reports, by name with its unit.
  std::string metrics_json;
  std::span<const MetricDef> declared =
      options.trace ? std::span<const MetricDef>(kPerLayer) : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& def : declared) {
    auto it = result.metrics.find(def.name);
    double value = it == result.metrics.end() ? 0.0 : it->second;
    if (it != result.metrics.end()) result.metrics.erase(it);
    std::printf("%-32s %16.6f %s\n", def.name, value, def.unit);
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"" + std::string(def.name) + "\": {\"value\": " + JsonNumber(value) +
                    ", \"unit\": \"" + def.unit + "\"}";
  }
  for (const auto& [name, value] : result.metrics) {
    std::fprintf(stderr, "internal error: metric %s is not declared\n", name.c_str());
    return 1;
  }

  std::string descriptor =
      "{\"workload\": " + JsonString(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + JsonNumber(options.seconds) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      ", \"kernel_tier\": " + JsonString(tier) +
      ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
      ", \"host_steal_share\": " + JsonNumber(load.steal) +
      ", \"host_other_busy_share\": " + JsonNumber(load.other);
  for (const auto& [key, value] : result.info) descriptor += ", \"" + key + "\": " + value;
  descriptor += "}";

  double error_rate = result.ops.ErrorRate();
  for (const std::string& n : result.notes) std::printf("# %s\n", n.c_str());
  std::printf("# error_rate %s (%llu failed of %llu attempted)\n",
              JsonNumber(error_rate).c_str(),
              static_cast<unsigned long long>(result.ops.failed),
              static_cast<unsigned long long>(result.ops.attempted));
  std::printf("# descriptor %s\n", descriptor.c_str());

  if (result.tracer != nullptr) {
    fs::create_directories(out_dir + "/traces");
    std::string path = out_dir + "/traces/" + tag + ".jsonl";
    if (!result.tracer->WriteJsonl(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# spans written to %s\n", path.c_str());
  }

  std::string line = std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.ops.attempted) +
                     ", \"failed\": " + std::to_string(result.ops.failed) +
                     ", \"metrics\": {" + metrics_json + "}}";
  std::ofstream(out_dir + "/results/" + tag + "-trace" + (options.trace ? "1" : "0") +
                ".json")
      << "{\"descriptor\": " << descriptor << ", \"error_rate\": " << JsonNumber(error_rate)
      << ", \"result\": " << line << "}\n";
  std::printf("%s\n", line.c_str());
  return 0;
}
