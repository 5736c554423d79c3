// In-memory span recorder and small statistics helpers for the benchmark
// program. Spans are recorded only by the benchmark's own code, around calls
// into the library's public functions; nothing here reaches inside the
// library. A span's layer is the part of its name before the first '.'.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;   ///< index of the enclosing span, -1 for a root
  uint32_t request = 0;  ///< id shared by every span of one replayed batch
  uint64_t count = 0;    ///< work units the span covered (queries, bytes, ...)
};

/// Single-threaded recorder: spans nest by call order (Begin pushes, End pops).
class SpanRecorder {
 public:
  int32_t Begin(const char* name, uint32_t request);
  void End(int32_t id, uint64_t count = 0);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Duration minus the time the span's direct children cover.
  std::vector<uint64_t> SelfNs() const;
  /// Summed self time per layer over the spans of `request`.
  std::map<std::string, uint64_t> LayerSelfNs(uint32_t request) const;
  /// Summed total (inclusive) time and count of every span named `name`.
  uint64_t TotalNs(const std::string& name, uint64_t* count = nullptr,
                   uint64_t* instances = nullptr) const;
  /// Writes one JSON object per span; false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint32_t request)
      : rec_(rec), id_(rec->Begin(name, request)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(uint64_t c) noexcept { count_ = c; }
  void Close() {
    if (id_ >= 0) rec_->End(id_, count_);
    id_ = -1;
  }

 private:
  SpanRecorder* rec_;
  int32_t id_;
  uint64_t count_ = 0;
};

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// The highest percentile, up to `max_percentile`, that leaves at least
/// `beyond` samples above it, with its value and the sample count.
struct TailPoint {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};
TailPoint TailPercentile(std::vector<double> samples, double max_percentile = 100.0,
                         size_t beyond = 10);

}  // namespace perfbench
