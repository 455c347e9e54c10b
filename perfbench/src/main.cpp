/// \file main.cpp
/// \brief Entry point of the repository benchmark.
///
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             [--rev R] [--spans-out PATH]
///
/// Prints a provenance line, human-readable progress and every metric by
/// name and unit, then, as the last line of standard output, one JSON
/// object {"correct", "attempted", "failed", "metrics"}. Untraced runs
/// report the end-to-end metrics, traced runs the per-layer metrics.
/// Exits 1 when any check failed, 2 on bad arguments.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "core/simd.hpp"
#include "workloads.hpp"

namespace perfbench {

void AddEndToEnd(double setup_s, long ops, double timed_ms,
                 const std::vector<double>& latencies_ms, Report* r) {
  r->Add("setup_s", setup_s, "s");
  r->Add("ops_per_s", timed_ms > 0 ? 1000.0 * ops / timed_ms : 0.0, "1/s");
  r->Add("p50_ms", Percentile(latencies_ms, 0.5), "ms");
  r->Add("p90_ms", Percentile(latencies_ms, 0.9), "ms");
  r->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

void AddPerLayer(const LayerValues& v, Report* r) {
  r->Add("store.ingest_s", v.store_ingest_s, "s");
  r->Add("store.insert_ms", v.store_insert_ms, "ms");
  r->Add("store.erase_ms", v.store_erase_ms, "ms");
  r->Add("index.build_s", v.index_build_s, "s");
  r->Add("index.advance_ms", v.index_advance_ms, "ms");
  r->Add("index.range_us", v.index_range_us, "us");
  r->Add("index.topk_seeds_us", v.index_topk_seeds_us, "us");
  r->Add("index.lb_range_us", v.index_lb_range_us, "us");
  r->Add("index.candidate_fraction", v.index_candidate_fraction, "fraction");
  static const char* kTier[5] = {"invariant", "branch", "heuristic", "ot",
                                 "exact"};
  for (int t = 0; t < 5; ++t) {
    const std::string p = std::string("cascade.") + kTier[t];
    r->Add(p + ".busy_ms", v.tier_busy_ms[t], "ms/op");
    r->Add(p + ".entered", v.tier_entered[t], "count/op");
    r->Add(p + ".settled_ratio", v.tier_settled_ratio[t], "fraction");
  }
  r->Add("exact.expansions", v.exact_expansions, "count/op");
  r->Add("exact.starved", v.exact_starved, "count/op");
  r->Add("exact.ns_per_expansion", v.exact_ns_per_expansion, "ns");
  r->Add("gedgw.predict_us", v.gedgw_predict_us, "us");
  r->Add("kbest.search_us", v.kbest_search_us, "us");
  r->Add("engine.pool_idle_fraction", v.engine_pool_idle_fraction,
         "fraction");
  r->Add("engine.unattributed_ms.range", v.engine_unattributed_range_ms,
         "ms");
  r->Add("engine.unattributed_ms.topk", v.engine_unattributed_topk_ms, "ms");
  r->Add("cache.hit_rate", v.cache_hit_rate, "fraction");
  r->Add("cache.repeat_ratio", v.cache_repeat_ratio, "fraction");
  r->Add("pool.steals", v.pool_steals, "count/op");
  r->Add("trace.overhead_fraction", v.trace_overhead_fraction, "fraction");
  r->Add("quality.unproven_fraction", v.quality_unproven_fraction,
         "fraction");
  r->Add("quality.ged_mae", v.quality_ged_mae, "GED");
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "range-powerlaw|molecule-100k-churn|pairwise-ged|pairwise-gep"
               " --seed N --seconds S --trace 0|1 [--rev R] "
               "[--spans-out PATH]\n",
               why);
  return 2;
}

/// Cumulative CPU time from the first line of /proc/stat (Linux; ok is
/// false elsewhere). `steal` is time the hypervisor ran other guests.
struct CpuTimes {
  bool ok = false;
  unsigned long long steal = 0, total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  t.ok = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                     &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8;
  std::fclose(f);
  for (unsigned long long x : v) t.total += x;
  t.steal = v[7];
  return t;
}

std::string JsonString(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int a = 1; a < argc; ++a) {
    const std::string key = argv[a];
    if (a + 1 >= argc) return Usage(("missing value for " + key).c_str());
    const char* val = argv[++a];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, &end, 10);
      have_seed = *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val, &end);
      have_seconds = *end == '\0' && opt.seconds > 0;
    } else if (key == "--trace") {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      opt.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--rev") {
      opt.rev = val;
    } else if (key == "--spans-out") {
      opt.spans_out = val;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return Usage("--seed, --seconds and --trace are required");

  Outcome (*run)(const Options&) = nullptr;
  if (opt.workload == "range-powerlaw") run = RunRangePowerlaw;
  if (opt.workload == "molecule-100k-churn") run = RunMoleculeChurn;
  if (opt.workload == "pairwise-ged") run = RunPairwiseGed;
  if (opt.workload == "pairwise-gep") run = RunPairwiseGep;
  if (run == nullptr) return Usage("unknown workload");

  std::printf("provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": "
              "%g, \"trace\": %d, \"rev\": %s, \"nproc\": %ld, "
              "\"simd_isa\": %s, \"simd_enabled\": %s}\n",
              JsonString(opt.workload).c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, JsonString(opt.rev).c_str(),
              sysconf(_SC_NPROCESSORS_ONLN),
              JsonString(otged::simd::kIsaName).c_str(),
              otged::simd::Enabled() ? "true" : "false");

  const CpuTimes cpu0 = ReadCpuTimes();
  Outcome out;
  try {
    out = run(opt);
  } catch (const std::exception& e) {
    Fail(&out, std::string("uncaught exception: ") + e.what());
  }
  // Steal time makes timings drift between runs on a shared host; it is
  // printed so a noisy run can be recognised, not used in any metric.
  const CpuTimes cpu1 = ReadCpuTimes();
  if (cpu0.ok && cpu1.ok && cpu1.total > cpu0.total)
    std::printf("host cpu steal during the run: %.1f%%\n",
                100.0 * static_cast<double>(cpu1.steal - cpu0.steal) /
                    static_cast<double>(cpu1.total - cpu0.total));

  std::string metrics;
  for (const auto& [name, vu] : out.metrics.entries()) {
    double value = vu.first;
    std::printf("metric %-34s %.6g %s\n", name.c_str(), value,
                vu.second.c_str());
    if (!std::isfinite(value)) {
      Fail(&out, "metric " + name + " is not finite");
      value = 0.0;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s%s: {\"value\": %.17g, \"unit\": %s}",
                  metrics.empty() ? "" : ", ", JsonString(name).c_str(), value,
                  JsonString(vu.second).c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false", std::max(1L, out.attempted),
              out.failed, metrics.c_str());
  return out.failed == 0 ? 0 : 1;
}
