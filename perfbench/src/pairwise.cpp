/// \file pairwise.cpp
/// \brief The paper's two pair outputs, one pair at a time on one thread:
/// the GEDGW estimate (`pairwise-ged`, Table 3) and GEDGW followed by the
/// k-best edit-path search (`pairwise-gep`, Table 4).
///
/// The pair list interleaves four families in a fixed cycle of ten:
/// three AIDS-like and three LINUX-like pairs of 4-10 nodes (arbitrary
/// pairs, exact GED by branch and bound), two IMDB-like pairs of 10 to
/// `max_nodes` nodes and two power-law pairs of 20 to `max_nodes` nodes
/// (synthetic edits, 1-10 each). Any prefix of the list therefore has the
/// same family mix, so how far a run gets does not shift its latency
/// percentiles. The run cycles over the list.
#include <cmath>
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "assignment/kbest.hpp"
#include "common.hpp"
#include "editpath/edit_path.hpp"
#include "graph/dataset.hpp"
#include "graph/generator.hpp"
#include "graph/graph_io.hpp"
#include "heuristics/lower_bounds.hpp"
#include "models/gedgw.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using otged::Graph;
using otged::Rng;

struct PairCase {
  Graph g1, g2;          ///< g1.NumNodes() <= g2.NumNodes()
  int exact_ged = -1;    ///< -1 when unknown
  int kbest_k = 16;      ///< the paper's k: 16 on AIDS/LINUX, 6 on IMDB
};

/// Result of one pair, kept for the checks after the timed loop.
struct PairAnswer {
  bool done = false;
  double estimate = 0.0;
  otged::GepResult gep;
};

constexpr int kPairs = 1000;
constexpr double kWarmupMs = 1000.0;
constexpr int kSetupReps = 15;

std::vector<PairCase> MakePairs(uint64_t seed, int max_nodes) {
  // Family cycle: 0 AIDS, 1 LINUX, 2 IMDB, 3 power-law. Graph sizes and
  // edit counts follow fixed schedules, so every seed gets the same size
  // mix and only the graphs themselves vary.
  static const int kCycle[10] = {0, 1, 2, 0, 1, 3, 0, 1, 2, 3};
  Rng rng(seed);
  std::vector<PairCase> pairs;
  int small = 0, large = 0;
  for (int i = 0; i < kPairs; ++i) {
    PairCase pc;
    const int family = kCycle[i % 10];
    if (family <= 1) {
      const int na = 4 + (small * 3) % 7, nb = 4 + (small * 5 + 2) % 7;
      ++small;
      Graph a = family == 0 ? otged::AidsLikeGraph(&rng, na, na)
                            : otged::LinuxLikeGraph(&rng, na, na);
      Graph b = family == 0 ? otged::AidsLikeGraph(&rng, nb, nb)
                            : otged::LinuxLikeGraph(&rng, nb, nb);
      otged::GedPair gp = otged::MakeExactPair(a, b, 2'000'000);
      pc.g1 = std::move(gp.g1);
      pc.g2 = std::move(gp.g2);
      if (gp.exact) pc.exact_ged = gp.ged;
    } else {
      const int lo = family == 2 ? 10 : 20;
      const int n = lo + (large * 37) % (max_nodes - lo + 1);
      Graph g = family == 2 ? otged::ImdbLikeGraph(&rng, n, n)
                            : otged::PowerLawGraph(n, 1 + large % 3, &rng);
      otged::SyntheticEditOptions so;
      so.num_edits = 1 + large % 10;
      ++large;
      otged::GedPair gp = otged::SyntheticEditPair(g, so, &rng);
      pc.g1 = std::move(gp.g1);
      pc.g2 = std::move(gp.g2);
      pc.kbest_k = 6;
    }
    pairs.push_back(std::move(pc));
  }
  return pairs;
}

/// The program receives the pairs in its binary graph encoding; decoding
/// them is the workload's set-up.
bool DecodePairs(const std::string& buf, std::vector<PairCase>* pairs) {
  size_t off = 0;
  for (PairCase& pc : *pairs) {
    std::optional<Graph> a = otged::DecodeGraphBinary(buf, &off);
    std::optional<Graph> b = otged::DecodeGraphBinary(buf, &off);
    if (!a || !b) return false;
    pc.g1 = std::move(*a);
    pc.g2 = std::move(*b);
  }
  return off == buf.size();
}

struct PairPass {
  std::vector<double> ms;  ///< per-pair latency
  double timed_ms = 0.0;
  Digest digest;
};

Outcome RunPairwise(const Options& opt, bool with_path, int max_nodes) {
  Outcome out;
  const char* name = with_path ? "pairwise-gep" : "pairwise-ged";
  std::vector<PairCase> pairs = MakePairs(opt.seed, max_nodes);
  long exact_known = 0;
  for (const PairCase& pc : pairs) exact_known += pc.exact_ged >= 0;
  std::printf("workload %s: %zu pairs (%ld with exact GED), up to %d "
              "nodes, 1 thread, GEDGW cg_iters %d\n",
              name, pairs.size(), exact_known, max_nodes,
              otged::GedgwConfig().cg_iters);

  std::string encoded;
  for (const PairCase& pc : pairs) {
    otged::AppendGraphBinary(&encoded, pc.g1);
    otged::AppendGraphBinary(&encoded, pc.g2);
  }
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    const Clock::time_point t0 = Clock::now();
    const bool ok = DecodePairs(encoded, &pairs);
    setup_s.push_back(MsSince(t0) / 1000.0);
    if (!ok) Fail(&out, "pair list failed to decode");
  }
  std::printf("setup: decode %zu bytes, median %.6f s over %d reps\n",
              encoded.size(), Median(setup_s), kSetupReps);

  otged::GedgwSolver solver;
  std::vector<PairAnswer> answers(pairs.size());
  SpanLog spans;
  // One pass: pairs i = 0, 1, ... cycling over the list, until max_ops
  // pairs (when >= 0) or until the summed pair latency reaches `seconds`.
  auto pass = [&](long max_ops, double seconds, bool traced) {
    PairPass p;
    for (long i = 0;; ++i) {
      if (max_ops >= 0 ? i >= max_ops : p.timed_ms >= seconds * 1000.0)
        break;
      const size_t j = static_cast<size_t>(i) % pairs.size();
      const PairCase& pc = pairs[j];
      const double t0 = NowUs();
      otged::Prediction pred = solver.Predict(pc.g1, pc.g2);
      const double t1 = NowUs();
      otged::GepResult gep;
      if (with_path) gep = otged::KBestGepSearch(pc.g1, pc.g2, pred.coupling,
                                                 pc.kbest_k);
      const double t2 = NowUs();
      p.ms.push_back((t2 - t0) / 1000.0);
      p.timed_ms += (t2 - t0) / 1000.0;
      if (traced) {
        spans.Add(i, "gedgw.predict", t0, t1);
        if (with_path) spans.Add(i, "kbest.search", t1, t2);
      }
      p.digest.Count("pairs", 1);
      p.digest.Count("path_length", with_path ? gep.ged : 0);
      uint64_t bits = 0;
      std::memcpy(&bits, &pred.ged, sizeof(bits));
      p.digest.Mix(bits);
      if (!answers[j].done) answers[j] = {true, pred.ged, std::move(gep)};
    }
    return p;
  };

  // Untimed warm-up over the list, as for the serving workloads.
  const Clock::time_point warm0 = Clock::now();
  for (size_t i = 0; MsSince(warm0) < kWarmupMs; ++i) {
    const PairCase& pc = pairs[i % pairs.size()];
    otged::Prediction pred = solver.Predict(pc.g1, pc.g2);
    if (with_path)
      otged::KBestGepSearch(pc.g1, pc.g2, pred.coupling, pc.kbest_k);
  }

  const double untraced_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  PairPass base = pass(-1, untraced_seconds, false);
  out.attempted = static_cast<long>(base.ms.size());
  std::printf("untraced: %zu pairs in %.3f s timed, p50 %.4f ms, p90 %.4f "
              "ms, max %.4f ms\n",
              base.ms.size(), base.timed_ms / 1000.0, Percentile(base.ms, 0.5),
              Percentile(base.ms, 0.9), Percentile(base.ms, 1.0));
  std::printf("digest %s\n", base.digest.Json().c_str());

  // Checks and quality, outside the timed loop, over the whole list:
  // pairs the run did not reach are solved here.
  double err_sum = 0.0;
  long err_n = 0;
  for (size_t j = 0; j < pairs.size(); ++j) {
    const PairCase& pc = pairs[j];
    PairAnswer& a = answers[j];
    if (!a.done) {
      otged::Prediction pred = solver.Predict(pc.g1, pc.g2);
      a.estimate = pred.ged;
      if (with_path)
        a.gep = otged::KBestGepSearch(pc.g1, pc.g2, pred.coupling, pc.kbest_k);
      a.done = true;
    }
    const std::string tag = "pair " + std::to_string(j);
    if (!std::isfinite(a.estimate) || a.estimate < 0.0)
      Fail(&out, tag + ": GEDGW estimate " + std::to_string(a.estimate) +
                     " is not finite and >= 0");
    if (with_path) {
      const otged::GepResult& g = a.gep;
      if (static_cast<int>(g.path.size()) != g.ged)
        Fail(&out, tag + ": path has " + std::to_string(g.path.size()) +
                       " ops but reports ged " + std::to_string(g.ged));
      if (!(otged::ApplyEditPath(pc.g1, pc.g2, g.matching, g.path) == pc.g2))
        Fail(&out, tag + ": applying the edit path does not yield g2");
      if (g.ged < otged::BestLowerBound(pc.g1, pc.g2))
        Fail(&out, tag + ": path length below the admissible lower bound");
      if (pc.exact_ged >= 0 && g.ged < pc.exact_ged)
        Fail(&out, tag + ": path length below the exact GED");
    }
    if (pc.exact_ged >= 0) {
      err_sum += with_path ? a.gep.ged - pc.exact_ged
                           : std::fabs(a.estimate - pc.exact_ged);
      ++err_n;
    }
  }
  const double ged_mae = err_n ? err_sum / static_cast<double>(err_n) : 0.0;
  std::printf("ged_mae %.5f over %ld pairs with exact GED (%s)\n", ged_mae,
              err_n,
              with_path ? "mean path length - exact GED"
                        : "mean |estimate - exact GED|");

  if (!opt.trace) {
    AddEndToEnd(Median(setup_s), static_cast<long>(base.ms.size()),
                base.timed_ms, base.ms, &out.metrics);
    return out;
  }

  const long n = static_cast<long>(base.ms.size());
  PairPass tr = pass(n, 0.0, true);
  out.attempted += n;
  std::printf("digest %s\n", tr.digest.Json().c_str());
  if (!(base.digest == tr.digest))
    Fail(&out, "determinism digest differs between untraced and traced "
               "passes");
  if (!opt.spans_out.empty() && !spans.Write(opt.spans_out))
    Fail(&out, "could not write spans to " + opt.spans_out);
  LayerValues v;
  const std::vector<double> predict = spans.Ms("gedgw.predict");
  const std::vector<double> kbest = spans.Ms("kbest.search");
  v.gedgw_predict_us = Median(predict) * 1000.0;
  v.kbest_search_us = Median(kbest) * 1000.0;
  v.trace_overhead_fraction =
      base.timed_ms > 0 ? tr.timed_ms / base.timed_ms - 1.0 : 0.0;
  v.quality_ged_mae = ged_mae;
  double predict_ms = 0.0, kbest_ms = 0.0;
  for (double ms : predict) predict_ms += ms;
  for (double ms : kbest) kbest_ms += ms;
  std::printf("layer split over %ld pairs: gedgw.predict %.2f%%, "
              "kbest.search %.2f%% of pair wall\n",
              n, 100.0 * predict_ms / std::max(1e-9, tr.timed_ms),
              100.0 * kbest_ms / std::max(1e-9, tr.timed_ms));
  AddPerLayer(v, &out.metrics);
  return out;
}

}  // namespace

Outcome RunPairwiseGed(const Options& opt) {
  return RunPairwise(opt, /*with_path=*/false, /*max_nodes=*/100);
}

Outcome RunPairwiseGep(const Options& opt) {
  return RunPairwise(opt, /*with_path=*/true, /*max_nodes=*/50);
}

}  // namespace perfbench
