/// Self-tests of the benchmark's own arithmetic: the reported tail
/// percentile, error-rate counting, span self time, the server-snapshot
/// differences behind served.overhead_us, the host-load shares and the
/// result digest. Exits non-zero if any check fails.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "measure.h"
#include "trace.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

void TestTail() {
  using perfbench::ChooseTail;
  // 1000 samples: p99 is rank 990 and leaves exactly ten above it.
  auto t = ChooseTail(OneTo(1000));
  Check(t.qualified && t.percentile == 99 && t.value == 990 && t.beyond == 10,
        "1000 samples report p99 = 990 with 10 beyond");
  // 999 samples: p99 (rank 990) leaves only 9, so p90 (rank 900) is chosen.
  t = ChooseTail(OneTo(999));
  Check(t.qualified && t.percentile == 90 && t.value == 900 && t.beyond == 99,
        "999 samples fall back to p90");
  // 100 samples: p90 is rank 90, ten beyond.
  t = ChooseTail(OneTo(100));
  Check(t.qualified && t.percentile == 90 && t.value == 90, "100 samples report p90");
  // 20 samples: only the median qualifies.
  t = ChooseTail(OneTo(20));
  Check(t.qualified && t.percentile == 50 && t.value == 10 && t.beyond == 10,
        "20 samples report p50");
  // 19 samples: nothing has ten beyond; the median is shown, unqualified.
  t = ChooseTail(OneTo(19));
  Check(!t.qualified && t.percentile == 50 && t.value == 10, "19 samples: median, unqualified");
  t = ChooseTail({});
  Check(!t.qualified && t.value == 0, "no samples");
  Check(perfbench::Percentile(OneTo(10), 50) == 5, "nearest-rank p50 of 1..10 is 5");
  Check(perfbench::Median(OneTo(10)) == 5.5, "median of 1..10 is 5.5");
}

void TestMedianRate() {
  using perfbench::MedianRate;
  // Whole 1 s sub-windows with 10, 10, 2 (a stall), 10 and 12 completions,
  // then a partial one with 3 that does not count.
  std::vector<double> done;
  const int per_second[] = {10, 10, 2, 10, 12, 3};
  for (int second = 0; second < 6; ++second) {
    int n = per_second[second];
    for (int i = 0; i < n; ++i) done.push_back(second + (i + 0.5) / n);
  }
  Check(Near(MedianRate(done, 5.3, 1.0), 10), "median over whole 1 s sub-windows");
  Check(Near(MedianRate(done, 5.3, 0.5), 10),
        "0.5 s sub-windows: median of 5-per-window rates");
  Check(Near(MedianRate(done, 5.3, 2.0), 47 / 5.3),
        "fewer than 3 whole sub-windows: the overall rate");
  Check(Near(MedianRate(done, 5.3, 0.0), 47 / 5.3), "no sub-windows: the overall rate");
  Check(MedianRate({}, 0.0, 1.0) == 0, "an empty window has rate 0");
}

void TestErrorRate() {
  perfbench::OpCount c;
  Check(c.ErrorRate() == 1.0, "nothing attempted counts as all failed");
  for (int i = 0; i < 8; ++i) c.Record(true);
  c.Record(false);
  c.Record(false);
  Check(c.attempted == 10 && c.failed == 2 && Near(c.ErrorRate(), 0.2),
        "2 failures of 10 is 0.2");
  perfbench::OpCount other;
  other.Record(true);
  c.Add(other);
  Check(c.attempted == 11 && c.failed == 2, "Add sums both counts");
  perfbench::OpCount clean;
  clean.Record(true);
  Check(clean.ErrorRate() == 0.0, "no failures is 0");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0, 100) with children [10, 40) and [30, 60) overlapping (parallel
  // workers) and [90, 120) running past the root's end; grandchild [15, 20)
  // inside the first child.
  std::vector<Span> spans = {
      {"simjoin.join", 0, 100, -1, 7},  {"core.ssjoin", 10, 40, 0, 7},
      {"core.ssjoin", 30, 60, 0, 7},    {"text.tokenize", 90, 120, 0, 7},
      {"text.encode", 15, 20, 1, 7},
  };
  std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  // Root: children cover [10, 60) and [90, 100) -> 60 covered, 40 self.
  Check(self[0] == 40, "root self time excludes the union of its children");
  Check(self[1] == 25, "child self time excludes its grandchild");
  Check(self[2] == 30 && self[3] == 30 && self[4] == 5, "leaf self time is its duration");
  Check(perfbench::LayerOf("kernels.intersect.calls") == "kernels" &&
            perfbench::LayerOf("trace") == "trace",
        "a span's layer is its name up to the first dot");

  perfbench::Tracer tracer;
  {
    perfbench::ScopedSpan outer(&tracer, "serve.request", -1, 3);
    perfbench::ScopedSpan inner(&tracer, "index.lookup", outer.id(), 3);
  }
  auto recorded = tracer.spans();
  Check(recorded.size() == 2 && recorded[1].parent == 0 && recorded[1].request_id == 3 &&
            recorded[0].end_ns >= recorded[1].end_ns,
        "scoped spans nest and close in order");
  perfbench::ScopedSpan off(nullptr, "text.tokenize");
  Check(off.id() == -1, "a null tracer records nothing");
}

void TestOverhead() {
  using perfbench::ServerMetrics;
  // Two snapshots of the server's registry around three lookups. The
  // latency histogram grew by 3 observations summing to 1260 us (mean 420);
  // "serve.batches" first appears in the second snapshot.
  ServerMetrics a = {{"serve.latency_us", {0, 10, 4000}}, {"serve.cache_hits", {5, 0, 0}}};
  ServerMetrics b = {{"serve.latency_us", {0, 13, 5260}},
                     {"serve.cache_hits", {12, 0, 0}},
                     {"serve.batches", {4, 0, 0}},
                     {"serve.span.reply_us", {0, 2, 30}}};
  Check(perfbench::Delta(a, b, "serve.cache_hits") == 7, "counter delta");
  Check(perfbench::Delta(a, b, "serve.batches") == 4,
        "a counter missing from the first snapshot counts from 0");
  Check(perfbench::Delta(b, a, "serve.batches") == 0 &&
            perfbench::HistMean(b, a, "serve.span.reply_us") == 0,
        "a metric missing from the second snapshot gives 0");
  Check(Near(perfbench::HistMean(a, b, "serve.latency_us"), 420),
        "histogram mean over the snapshot difference");
  Check(Near(perfbench::HistMean(a, b, "serve.span.reply_us"), 15),
        "a histogram missing from the first snapshot counts from 0");
  Check(perfbench::HistMean(a, a, "serve.latency_us") == 0, "no observations gives 0");
  Check(Near(perfbench::ServedOverheadUs({400, 500, 600}, a, b), 80),
        "overhead is the client mean minus the server's mean over the same span");
  Check(Near(perfbench::ServedOverheadUs({300, 400, 500}, a, b), -20),
        "a negative overhead is reported as measured");
}

void TestHostLoad() {
  // 40 CPU seconds passed (4 CPUs for 10 s): 22 busy, of which 18 were ours,
  // and 2 stolen.
  perfbench::CpuSample a{100, 50, 1, 5};
  perfbench::CpuSample b{140, 72, 3, 23};
  perfbench::HostLoad load = perfbench::HostLoadBetween(a, b);
  Check(Near(load.steal, 0.05) && Near(load.other, 0.1), "steal and other-busy shares");
  b.ours_s = 30;  // our accounting ran ahead of the machine's
  Check(perfbench::HostLoadBetween(a, b).other == 0, "other-busy share is never negative");
  Check(perfbench::HostLoadBetween(a, a).steal == 0, "no time passed");
}

void TestDigest() {
  perfbench::PairDigest a, b;
  a.Add(1, 2);
  a.Add(3, 4);
  b.Add(3, 4);
  b.Add(1, 2);
  Check(a == b, "digest is order independent");
  perfbench::PairDigest c;
  c.Add(2, 1);
  c.Add(3, 4);
  Check(!(a == c), "digest tells (r, s) from (s, r)");
}

}  // namespace

int main() {
  TestTail();
  TestMedianRate();
  TestErrorRate();
  TestSelfTime();
  TestOverhead();
  TestHostLoad();
  TestDigest();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
