#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

int32_t SpanRecorder::Begin(const char* name, uint32_t request) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id, uint64_t count) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = NowNs();
  s.count = count;
  // Spans close in LIFO order; tolerate a parent closed before a child.
  while (!stack_.empty()) {
    const int32_t top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::vector<uint64_t> SpanRecorder::SelfNs() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::vector<uint64_t> self(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    self[i] = dur > child_ns[i] ? dur - child_ns[i] : 0;
  }
  return self;
}

std::map<std::string, uint64_t> SpanRecorder::LayerSelfNs(uint32_t request) const {
  const std::vector<uint64_t> self = SelfNs();
  std::map<std::string, uint64_t> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].request != request) continue;
    const std::string& n = spans_[i].name;
    layers[n.substr(0, n.find('.'))] += self[i];
  }
  return layers;
}

uint64_t SpanRecorder::TotalNs(const std::string& name, uint64_t* count,
                               uint64_t* instances) const {
  uint64_t total = 0, c = 0, n = 0;
  for (const Span& s : spans_) {
    if (s.name != name) continue;
    total += s.end_ns - s.start_ns;
    c += s.count;
    ++n;
  }
  if (count != nullptr) *count = c;
  if (instances != nullptr) *instances = n;
  return total;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<uint64_t> self = SelfNs();
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,\"request\":%u,"
                 "\"start_ns\":%llu,\"end_ns\":%llu,\"self_ns\":%llu,\"count\":%llu}\n",
                 i, s.name.c_str(), s.parent, s.request,
                 static_cast<unsigned long long>(s.start_ns - origin),
                 static_cast<unsigned long long>(s.end_ns - origin),
                 static_cast<unsigned long long>(self[i]),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double Median(std::vector<double> samples) { return Percentile(std::move(samples), 50.0); }

TailPoint TailPercentile(std::vector<double> samples, double max_percentile, size_t beyond) {
  TailPoint t;
  t.samples = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  // With n samples the value at sorted index n-1-beyond has exactly `beyond`
  // samples above it; fewer than beyond+1 samples fall back to the maximum.
  const size_t n = samples.size();
  const double cap_rank = std::ceil(max_percentile / 100.0 * static_cast<double>(n));
  const size_t cap_idx = cap_rank < 1.0 ? 0 : static_cast<size_t>(cap_rank) - 1;
  const size_t idx = std::min(n > beyond ? n - 1 - beyond : n - 1, cap_idx);
  t.value = samples[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

}  // namespace perfbench
