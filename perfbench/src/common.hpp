/// \file common.hpp
/// \brief Shared plumbing of the repository benchmark: command-line
/// options, clocks and percentiles, the metric report, benchmark-side
/// spans, and the determinism digest.
#ifndef PERFBENCH_COMMON_HPP_
#define PERFBENCH_COMMON_HPP_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}
double Mean(const std::vector<double>& v);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rev = "unknown";  ///< source revision, stamped by run.py
  std::string spans_out;        ///< traced runs write their spans here
};

/// Metric values in print order: `name value unit`.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

/// One benchmark-side span around a call into a library layer. Spans of
/// one op share its id; the op's own span has layer "op.<kind>".
struct Span {
  long op = -1;
  std::string layer;
  double start_us = 0.0;
  double end_us = 0.0;
  double ms() const { return (end_us - start_us) / 1000.0; }
};

/// Spans kept in memory for the whole run and written out at exit.
class SpanLog {
 public:
  void Add(long op, const std::string& layer, double start_us,
           double end_us) {
    spans_.push_back({op, layer, start_us, end_us});
  }
  /// Durations (ms) of every span of one layer, in record order.
  std::vector<double> Ms(const std::string& layer) const;
  /// JSON lines, one span each. Returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Counts that are pure functions of the inputs (hits, per-tier
/// candidates, starved pairs, ...). The untraced and traced passes of a
/// traced run must produce equal digests.
class Digest {
 public:
  void Count(const std::string& key, long n) { counts_[key] += n; }
  void Mix(uint64_t v);
  bool operator==(const Digest& o) const {
    return counts_ == o.counts_ && hash_ == o.hash_;
  }
  std::string Json() const;

 private:
  std::map<std::string, long> counts_;
  uint64_t hash_ = 1469598103934665603ull;
};

/// What one workload run hands back to main.
struct Outcome {
  long attempted = 0;
  long failed = 0;
  Report metrics;
};

/// Records a failed correctness check: prints why and counts it.
void Fail(Outcome* out, const std::string& what);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP_
