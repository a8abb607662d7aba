// Measurement helpers of the benchmark driver: percentiles with a sample-count
// rule, ratios, host-time spans with self time and coverage, and the RSS
// reader. Header-only so the unit tests link nothing else.
#ifndef PERFBENCH_DRIVER_METRICS_H_
#define PERFBENCH_DRIVER_METRICS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// A percentile is only reported as trustworthy when at least this many
// samples lie beyond it (so p99 needs >= 1,000 samples).
inline constexpr size_t kMinBeyond = 10;

struct Quantile {
  double value = 0;   // linear interpolation between the closest ranks
  size_t samples = 0;
  size_t beyond = 0;  // samples ranked above the nearest-rank position
  bool ok = false;    // beyond >= kMinBeyond
};

// `sorted` must be in ascending order; `p` in (0, 1). Empty input yields a
// zero value that is not ok.
template <typename T>
Quantile QuantileOf(const std::vector<T>& sorted, double p) {
  Quantile q;
  q.samples = sorted.size();
  if (sorted.empty()) {
    return q;
  }
  const size_t n = sorted.size();
  const double pos = p * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  q.value = static_cast<double>(sorted[lo]) +
            frac * static_cast<double>(sorted[hi] - sorted[lo]);
  // Nearest rank (1-based) is ceil(p * n); the epsilon keeps 0.99 * 1000
  // from rounding up to 991.
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  q.beyond = n - std::min(rank, n);
  q.ok = q.beyond >= kMinBeyond;
  return q;
}

// A ratio whose base is zero (no work happened) is reported as 0.
inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Length of the union of `intervals` clipped to [lo, hi).
inline int64_t CoveredLength(std::vector<std::pair<int64_t, int64_t>> intervals,
                             int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (const auto& [a, b] : intervals) {
    const int64_t s = std::max(a, cursor);
    const int64_t e = std::min(b, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

// The parts of [lo, hi) that no interval covers, in time order.
inline std::vector<std::pair<int64_t, int64_t>> Gaps(
    std::vector<std::pair<int64_t, int64_t>> intervals, int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<std::pair<int64_t, int64_t>> gaps;
  int64_t cursor = lo;
  for (const auto& [a, b] : intervals) {
    if (a > cursor && cursor < hi) {
      gaps.emplace_back(cursor, std::min(a, hi));
    }
    cursor = std::max(cursor, b);
  }
  if (cursor < hi) {
    gaps.emplace_back(cursor, hi);
  }
  return gaps;
}

// Host-time spans, nested by call order: Begin() parents the new span under
// the innermost open one. Single-threaded by design: spans are only opened on
// the thread that runs shard 0 (the driver keeps traced worlds on one shard
// whenever spans are recorded from inside simulated processes).
class HostTracer {
 public:
  struct Span {
    std::string name;  // "<layer>.<what>"; the layer is the first component
    int64_t start_ns = 0;
    int64_t end_ns = -1;
    int parent = -1;
  };

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  explicit HostTracer(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back(Span{name, NowNs(), -1, open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    // Spans close in LIFO order; tolerate a caller closing an outer span
    // first by popping through it.
    while (!open_.empty()) {
      const int top = open_.back();
      open_.pop_back();
      if (top == id) {
        break;
      }
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of span `id`: its duration minus the part of its interval that
  // its direct children cover.
  int64_t SelfNs(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    std::vector<std::pair<int64_t, int64_t>> children;
    for (const Span& c : spans_) {
      if (c.parent == id) {
        children.emplace_back(c.start_ns, c.end_ns);
      }
    }
    return (s.end_ns - s.start_ns) - CoveredLength(children, s.start_ns, s.end_ns);
  }

  static std::string LayerOf(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(HostTracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  HostTracer& tracer_;
  int id_;
};

// Parses one "Key:   <n> kB" line of /proc/<pid>/status text; -1 if absent.
inline int64_t StatusKb(const std::string& status, const std::string& key) {
  std::istringstream in(status);
  std::string line;
  const std::string prefix = key + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      int64_t kb = -1;
      fields >> kb;
      return fields.fail() ? -1 : kb;
    }
  }
  return -1;
}

// VmRSS (current) or VmHWM (peak) of this process, in kB; -1 if unreadable.
inline int64_t SelfStatusKb(const std::string& key) {
  std::ifstream f("/proc/self/status");
  std::stringstream buf;
  buf << f.rdbuf();
  return StatusKb(buf.str(), key);
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_METRICS_H_
