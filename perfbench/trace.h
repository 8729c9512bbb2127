#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/// \file
/// In-memory spans recorded by the benchmark around its calls into each
/// layer's public functions. A span's name is "<layer>.<what>"; spans of one
/// request (one join, one lookup) share a request id and nest through their
/// parent index. Spans are written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  // steady clock, relative to the tracer's origin
  int64_t end_ns = 0;
  int64_t parent = -1;   // index into the span list, -1 for a root
  uint64_t request_id = 0;
};

/// The layer a span belongs to: its name up to the first '.'.
std::string LayerOf(const std::string& span_name);

/// Per-span self time: the span's duration minus the part of its interval
/// that its children cover (children may overlap each other, e.g. parallel
/// workers; the covered part is the union of their clipped intervals).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Thread-safe span recorder. A null Tracer* means tracing is off; every
/// helper below then does nothing, so untraced runs pay no clock reads.
class Tracer {
 public:
  Tracer();

  int64_t Begin(const std::string& name, int64_t parent, uint64_t request_id);
  void End(int64_t id);
  /// Records a span whose interval was measured elsewhere.
  int64_t Add(const std::string& name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request_id);
  int64_t Now() const;

  std::vector<Span> spans() const;
  /// Writes one JSON object per span and line; false on I/O failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t parent = -1,
             uint64_t request_id = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, parent, request_id) : -1) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
