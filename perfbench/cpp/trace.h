// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, request id): the benchmark opens one
// around every call it makes into a layer — a cache verb through the timing
// decorator, a replicate's training interval, a layer's forward or backward
// in the step replay, a tensor kernel — and the per-layer metrics are sums
// of span self times (a span's duration minus what its child spans cover).
// Spans stay in memory and are written once, as Chrome trace-event JSON
// (viewable in chrome://tracing or Perfetto), when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the benchmark's monotonic clock.
inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;  // now_s() clock
  double end = 0.0;
  int parent = -1;  // index into the tracer's spans, -1 for a root
  std::string request;  // groups the spans of one replicate / wave / step
  int thread = 0;       // small per-thread id
};

class Tracer {
 public:
  /// Records a finished span; returns its index (a parent for later spans).
  int add(std::string name, double start, double end, int parent = -1,
          std::string request = {});
  /// Opens a span ending at close(); returns its index.
  int open(std::string name, int parent = -1, std::string request = {});
  void close(int span);

  /// Per-name totals of self time (duration minus child coverage) and of
  /// span counts.
  struct Totals {
    double self_s = 0.0;
    std::int64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  /// Returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction. A null tracer
/// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent = -1,
             std::string request = {})
      : tracer_(tracer),
        id_(tracer != nullptr
                ? tracer->open(std::move(name), parent, std::move(request))
                : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
