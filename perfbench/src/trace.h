// Spans recorded by the benchmark's own code around each call into a
// layer of the program: name, start, end, parent span and request id.
// They stay in memory and are written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by the spans of one request
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Thread-safe span sink. A disabled tracer records nothing and costs
/// one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  void Record(Span span) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }

  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records a span from construction to destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : tracer_(tracer) {
    if (!tracer_->enabled()) return;
    span_.id = tracer_->NewId();
    span_.parent = parent;
    span_.request = request;
    span_.name = name;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (!tracer_->enabled()) return;
    span_.end_ns = NowNs();
    tracer_->Record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
