#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

/// \file
/// The benchmark's own arithmetic: percentiles, the reported tail, error
/// counting, server-metric snapshot differences and the served overhead, the
/// host-load shares and the order-independent result checksum. Kept free of
/// the library so the self-tests cover it alone.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
/// The value at 1-based rank ceil(p/100 * n), clamped to [1, n].
double Percentile(std::vector<double> samples, double p);

/// Median of `samples` (the mean of the two middle values for even n);
/// 0 when empty.
double Median(std::vector<double> samples);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& samples);

/// Throughput of a measured window whose ops completed at `done_s` seconds
/// from its start: the median over its whole sub-windows of `sub_s` seconds
/// of the completions per second in each, so a stall shorter than half the
/// window does not move it. With fewer than 3 whole sub-windows it is all
/// completions divided by `elapsed_s`.
double MedianRate(const std::vector<double>& done_s, double elapsed_s, double sub_s);

/// The tail percentile a run reports: the highest of p99, p90 and p50 whose
/// nearest rank leaves at least `kTailBeyond` samples above it. With fewer
/// than 2 * kTailBeyond samples no rung qualifies; the median is reported
/// and `qualified` is false.
inline constexpr size_t kTailBeyond = 10;
struct TailChoice {
  double percentile = 50.0;
  double value = 0.0;
  size_t beyond = 0;   // samples strictly above the chosen rank
  bool qualified = false;
};
TailChoice ChooseTail(const std::vector<double>& samples);

/// Attempted and failed operations of one run. A failure is a non-ok reply,
/// a socket error, or an output that differs from its oracle.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Add(const OpCount& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  /// failed / attempted; 1.0 when nothing was attempted (a run that did no
  /// work has no successes to show).
  double ErrorRate() const;
};

/// One metric of the server's registry export: a counter or gauge value, or
/// a histogram's count and sum.
struct ServerMetric {
  double value = 0;
  double count = 0;
  double sum = 0;
};
using ServerMetrics = std::map<std::string, ServerMetric>;

/// Counter growth between snapshots `a` and `b`: a metric missing from `a`
/// counts from 0; one missing from `b` gives 0.
double Delta(const ServerMetrics& a, const ServerMetrics& b, const std::string& name);

/// Mean of a server histogram over the observations made between snapshots
/// `a` and `b` (sum delta / count delta); 0 if none.
double HistMean(const ServerMetrics& a, const ServerMetrics& b, const std::string& name);

/// `served.overhead_us`: what a lookup costs beyond the server's own
/// measured latency — socket framing, dispatch to the service and reply
/// encoding. `client_us` are the client latencies of the lookups made
/// between snapshots `a` and `b`. Both sides are means over those requests
/// (the server's histogram sum / count is exact, its interpolated p50 is
/// not).
double ServedOverheadUs(const std::vector<double>& client_us, const ServerMetrics& a,
                        const ServerMetrics& b);

/// Order-independent digest of a set of (r, s) pairs: the count plus a
/// wrapping sum of a 64-bit mix of each pair.
struct PairDigest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(uint32_t r, uint32_t s);
  bool operator==(const PairDigest& other) const {
    return count == other.count && sum == other.sum;
  }
  std::string ToString() const;
};

/// Peak resident set (VmHWM) of a process in MiB, from /proc/<pid>/status;
/// pid 0 = this process. Returns 0 if the file cannot be read.
double PeakRssMb(int pid = 0);

/// CPU seconds, summed over all CPUs, of the machine (/proc/stat) and of
/// this process plus its reaped children (getrusage).
struct CpuSample {
  double total_s = 0;  // every state, idle included
  double busy_s = 0;   // user, nice, system, irq, softirq
  double steal_s = 0;  // taken by the hypervisor for other guests
  double ours_s = 0;   // this process and its reaped children
};
CpuSample ReadCpu();

/// Where the machine's CPU went between two samples, as shares of its
/// total: `steal` is time the hypervisor gave to other guests, `other` is
/// busy time of processes that are neither this one nor its children. Both
/// near 0 mean the run had the machine to itself.
struct HostLoad {
  double steal = 0;
  double other = 0;
};
HostLoad HostLoadBetween(const CpuSample& a, const CpuSample& b);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
