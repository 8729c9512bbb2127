#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

/// 1-based nearest rank ceil(p/100 * n); p * n is formed first so integral
/// percentiles give exact ranks.
size_t NearestRank(double p, size_t n) {
  return static_cast<size_t>(std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  size_t rank = std::clamp<size_t>(NearestRank(p, n), 1, n);
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  if (n % 2 == 1) return samples[n / 2];
  return (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double total = 0.0;
  for (double v : samples) total += v;
  return total / static_cast<double>(samples.size());
}

double MedianRate(const std::vector<double>& done_s, double elapsed_s, double sub_s) {
  if (elapsed_s <= 0) return 0.0;
  auto windows = sub_s > 0 ? static_cast<size_t>(elapsed_s / sub_s) : 0;
  if (windows < 3) return static_cast<double>(done_s.size()) / elapsed_s;
  std::vector<double> counts(windows, 0.0);
  for (double t : done_s) {
    auto w = static_cast<size_t>(std::max(0.0, t) / sub_s);
    if (w < windows) counts[w] += 1;
  }
  return Median(counts) / sub_s;
}

TailChoice ChooseTail(const std::vector<double>& samples) {
  size_t n = samples.size();
  for (double p : {99.0, 90.0, 50.0}) {
    size_t rank = NearestRank(p, n);
    if (rank >= 1 && rank <= n && n - rank >= kTailBeyond) {
      return {p, Percentile(samples, p), n - rank, true};
    }
  }
  TailChoice median;
  median.value = Median(samples);
  median.beyond = n / 2;
  return median;
}

double OpCount::ErrorRate() const {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

double Delta(const ServerMetrics& a, const ServerMetrics& b, const std::string& name) {
  auto ia = a.find(name), ib = b.find(name);
  if (ib == b.end()) return 0;
  return ib->second.value - (ia == a.end() ? 0 : ia->second.value);
}

double HistMean(const ServerMetrics& a, const ServerMetrics& b, const std::string& name) {
  auto ia = a.find(name), ib = b.find(name);
  if (ib == b.end()) return 0;
  double count = ib->second.count - (ia == a.end() ? 0 : ia->second.count);
  double sum = ib->second.sum - (ia == a.end() ? 0 : ia->second.sum);
  return count > 0 ? sum / count : 0;
}

double ServedOverheadUs(const std::vector<double>& client_us, const ServerMetrics& a,
                        const ServerMetrics& b) {
  return Mean(client_us) - HistMean(a, b, "serve.latency_us");
}

void PairDigest::Add(uint32_t r, uint32_t s) {
  // splitmix64 finalizer over the packed pair.
  uint64_t z = (static_cast<uint64_t>(r) << 32) | s;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  ++count;
  sum += z;
}

std::string PairDigest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu/%016llx",
                static_cast<unsigned long long>(count),
                static_cast<unsigned long long>(sum));
  return buf;
}

double PeakRssMb(int pid) {
  std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

CpuSample ReadCpu() {
  CpuSample s;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::ifstream in("/proc/stat");
  std::string cpu;
  // user nice system idle iowait irq softirq steal
  double v[8] = {};
  if (in >> cpu && cpu == "cpu") {
    for (double& x : v) in >> x;
    for (double x : v) s.total_s += x / tick;
    s.busy_s = (v[0] + v[1] + v[2] + v[5] + v[6]) / tick;
    s.steal_s = v[7] / tick;
  }
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage u{};
    ::getrusage(who, &u);
    for (const timeval& t : {u.ru_utime, u.ru_stime}) {
      s.ours_s += static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
    }
  }
  return s;
}

HostLoad HostLoadBetween(const CpuSample& a, const CpuSample& b) {
  double total = b.total_s - a.total_s;
  if (total <= 0) return {};
  HostLoad load;
  load.steal = (b.steal_s - a.steal_s) / total;
  load.other = std::max(0.0, (b.busy_s - a.busy_s) - (b.ours_s - a.ours_s)) / total;
  return load;
}

}  // namespace perfbench
