#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, {value, unit}});
}

std::vector<double> SpanLog::Ms(const std::string& layer) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.layer == layer) out.push_back(s.ms());
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf),
                  "{\"op\": %ld, \"layer\": \"%s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f}\n",
                  s.op, s.layer.c_str(), s.start_us, s.end_us);
    f << buf;
  }
  return static_cast<bool>(f);
}

void Digest::Mix(uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    hash_ ^= (v >> (8 * b)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

std::string Digest::Json() const {
  std::string s = "{";
  char buf[96];
  for (const auto& [k, v] : counts_) {
    std::snprintf(buf, sizeof(buf), "\"%s\": %ld, ", k.c_str(), v);
    s += buf;
  }
  std::snprintf(buf, sizeof(buf), "\"hash\": \"%016llx\"}",
                static_cast<unsigned long long>(hash_));
  return s + buf;
}

void Fail(Outcome* out, const std::string& what) {
  std::printf("CHECK FAILED: %s\n", what.c_str());
  ++out->failed;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
