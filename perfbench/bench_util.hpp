// Host-clock helpers for the ndpgen benchmark runner: monotonic and CPU
// clocks, order statistics, and the in-memory span recorder the traced
// run uses to time each layer from outside, around its public calls.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace ndpbench {

/// Seconds on the monotonic clock since an arbitrary origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (all threads).
inline double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

/// Peak resident set size of the process so far, in MiB.
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Median of `values` (0 when empty).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// One recorded interval around a call into a layer.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "ndp.scan".
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::uint64_t op = 0;      ///< Spans of one benchmark op share this.
  double start = 0.0;
  double end = 0.0;
};

/// Keeps spans in memory while enabled; the runner writes them out when
/// the run ends. Disabled, a scope costs one branch.
class SpanRecorder {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_op(std::uint64_t op) { op_ = op; }

  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name) : recorder_(recorder) {
      if (!recorder_.enabled_) return;
      index_ = recorder_.spans_.size();
      Span span;
      span.name = name;
      span.id = index_ + 1;
      span.parent = recorder_.open_.empty() ? 0 : recorder_.open_.back();
      span.op = recorder_.op_;
      span.start = now_s();
      recorder_.spans_.push_back(std::move(span));
      recorder_.open_.push_back(index_ + 1);
    }
    ~Scope() {
      if (index_ == kNone) return;
      recorder_.spans_[index_].end = now_s();
      recorder_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Renames the span once the call shows which kind it was (a put
    /// that triggered a flush).
    void rename(const char* name) {
      if (index_ != kNone) recorder_.spans_[index_].name = name;
    }

   private:
    static constexpr std::size_t kNone = ~std::size_t{0};
    SpanRecorder& recorder_;
    std::size_t index_ = kNone;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations of the spans named `name` recorded at index >= `from`.
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              std::size_t from = 0) const {
    std::vector<double> out;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      if (spans_[i].name == name) out.push_back(spans_[i].end - spans_[i].start);
    }
    return out;
  }

  /// Total duration of the spans named `name` recorded at index >= `from`.
  [[nodiscard]] double total(const std::string& name,
                             std::size_t from = 0) const {
    double sum = 0.0;
    for (const double d : durations(name, from)) sum += d;
    return sum;
  }

  /// Self time per span name over spans at index >= `from`: each span's
  /// duration minus the part its direct children cover (children never
  /// overlap: the wrapped calls all run on the runner's thread).
  [[nodiscard]] std::map<std::string, double> self_times(
      std::size_t from = 0) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (std::size_t i = from; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      if (span.parent != 0) child[span.parent - 1] += span.end - span.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = from; i < spans_.size(); ++i) {
      self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return self;
  }

  /// Writes the spans as JSON lines; returns false when the file cannot
  /// be opened.
  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (const Span& span : spans_) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                   "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                   span.name.c_str(), static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.op), span.start,
                   span.end);
    }
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> open_;
};

}  // namespace ndpbench
