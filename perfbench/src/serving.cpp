/// \file serving.cpp
/// \brief The two serving workloads: range queries over a power-law
/// corpus with a repeat mix (`range-powerlaw`), and range / top-k / write
/// traffic against a 101k-graph molecule corpus (`molecule-100k-churn`).
///
/// One client drives one QueryEngine in a closed loop: QueryEngine serves
/// one call at a time, so a second client would only queue behind the
/// first. Each op is timed by the benchmark's own clock around the public
/// call (Range, TopK, Insert, Erase).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "exact/branch_and_bound.hpp"
#include "graph/generator.hpp"
#include "heuristics/bipartite.hpp"
#include "search/query_engine.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using otged::EngineOptions;
using otged::Graph;
using otged::GraphStore;
using otged::QueryEngine;
using otged::Rng;
using otged::SearchHit;

enum class Kind { kRange, kTopK, kInsert, kErase };

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kRange: return "range";
    case Kind::kTopK: return "topk";
    case Kind::kInsert: return "insert";
    case Kind::kErase: return "erase";
  }
  return "?";
}

struct Op {
  Kind kind = Kind::kRange;
  Graph graph;            ///< query, or the graph to insert
  int erase_id = -1;
  int planted_seed = -1;  ///< the query perturbs (or is) this seed
  bool repeat = false;    ///< verbatim repeat of an earlier query
};

struct ServingWorkload {
  std::string name;
  EngineOptions engine;
  int tau = 0;
  int k = 1;
  int setup_reps = 3;
  /// Every `check_every`-th read op is re-served by a linear-scan,
  /// cache-free engine over the same snapshot; hits must be identical.
  int check_every = 10;
  /// Planted-neighbour gate: exact solves on up to this many (query,
  /// planted variant) pairs.
  int planted_pairs = 12;
  std::vector<Graph> corpus;
  std::vector<std::vector<int>> planted;  ///< seed -> planted store ids
  /// Op generator; called with i = 0, 1, 2, ... in order.
  std::function<Op(long)> next;
  /// Read ops served untimed for kWarmupSeconds before each pass: the
  /// first second or two of serving on a fresh engine runs up to 2x
  /// slower (measured on molecule top-k), which a long-running server
  /// pays once, not per query. Warm-up op i is a pure function of (seed,
  /// i) and never equals a measured query, so the warm-up leaves the
  /// measured ops' answers and counts unchanged.
  std::function<Op(long)> warm;
};

constexpr double kWarmupSeconds = 2.0;
/// Expansion budget of the planted-neighbour gate's exact solves.
constexpr long kPlantedBudget = 1'000'000;

/// A store plus its engine, set up from the workload's corpus.
struct Served {
  std::unique_ptr<GraphStore> store;
  std::unique_ptr<QueryEngine> engine;
  double ingest_s = 0.0;
  double build_s = 0.0;
};

/// Engine first: it holds a pointer to the store.
void TearDown(Served* s) {
  s->engine.reset();
  s->store.reset();
}

void WarmUp(const ServingWorkload& w, Served* s) {
  const Clock::time_point t0 = Clock::now();
  long n = 0;
  for (; MsSince(t0) < kWarmupSeconds * 1000.0; ++n) {
    const Op op = w.warm(n);
    if (op.kind == Kind::kTopK) {
      s->engine->TopK(op.graph, w.k);
    } else {
      s->engine->Range(op.graph, w.tau);
    }
  }
  std::printf("warm-up: %ld read ops in %.2f s\n", n, MsSince(t0) / 1000.0);
}

Served SetUp(const ServingWorkload& w) {
  Served s;
  s.store = std::make_unique<GraphStore>();
  Clock::time_point t0 = Clock::now();
  s.store->AddAll(w.corpus);
  s.ingest_s = MsSince(t0) / 1000.0;
  s.engine = std::make_unique<QueryEngine>(s.store.get(), w.engine);
  t0 = Clock::now();
  s.engine->index()->ViewFor(s.store->Snapshot());
  s.build_s = MsSince(t0) / 1000.0;
  return s;
}

bool SameHits(const std::vector<SearchHit>& a,
              const std::vector<SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i)
    if (a[i].id != b[i].id || a[i].ged != b[i].ged ||
        a[i].exact_distance != b[i].exact_distance)
      return false;
  return true;
}

/// A range hit is unproven when it was kept only because tier 4 ran out
/// of budget; a top-k hit when its distance is not proven exact.
bool Unproven(Kind kind, const SearchHit& h, int tau) {
  if (kind == Kind::kTopK) return !h.exact_distance;
  return !h.exact_distance && h.ged > tau;
}

/// Per-tier aggregation of TraceSink events.
struct TierAgg {
  double busy_us[5] = {0, 0, 0, 0, 0};
  long entered[5] = {0, 0, 0, 0, 0};
  long settled[5] = {0, 0, 0, 0, 0};
  long expansions = 0;
};

/// Per-op record of one pass.
struct OpRecord {
  Kind kind = Kind::kRange;
  double ms = 0.0;          ///< op latency (benchmark clock)
  double advance_ms = 0.0;  ///< traced: index advance moved out of the op
  double busy_us = 0.0;     ///< traced: sum of cascade event total_us
  double index_ms = 0.0;    ///< traced: the op's index calls, timed apart
};

struct PassResult {
  std::vector<OpRecord> ops;
  Digest digest;
  double timed_ms = 0.0;
  long reads = 0, repeats = 0, hits = 0, unproven = 0;
  long scanned = 0, index_candidates = 0, starved = 0;
  TierAgg tiers;
  long cache_hits = 0, cache_misses = 0, steals = 0;
};

/// Read ops whose hits the planted-neighbour gate re-checks later.
struct PlantedProbe {
  long op = -1;
  std::vector<SearchHit> hits;
};

/// Serves ops[0..) until `max_ops` ops (when >= 0) or until the summed op
/// latency reaches `seconds`. With `spans` non-null the pass is traced:
/// TraceSink events are drained per op and the index calls are timed on
/// the pinned snapshot outside the op's span. Checks run only untraced.
PassResult ServePass(const ServingWorkload& w, Served* s,
                     std::vector<Op>* ops, long max_ops, double seconds,
                     SpanLog* spans, std::vector<PlantedProbe>* planted,
                     Outcome* out) {
  const bool traced = spans != nullptr;
  PassResult p;
  QueryEngine& engine = *s->engine;
  GraphStore& store = *s->store;
  std::unique_ptr<QueryEngine> scan;  // linear-scan, cache-free reference
  if (!traced) {
    EngineOptions eo = w.engine;
    eo.use_index = false;
    eo.use_bound_cache = false;
    scan = std::make_unique<QueryEngine>(&store, eo);
  }
  auto& trace = otged::telemetry::GlobalTrace();
  const auto before = otged::telemetry::Registry().Snapshot();
  if (traced) {
    trace.SetCapacity(1 << 16);
    trace.Clear();
    trace.SetEnabled(true);
  }
  const uint64_t dropped0 = trace.Dropped();
  uint64_t indexed_epoch = store.Epoch();
  const int threads = engine.num_threads();

  for (long i = 0;; ++i) {
    if (max_ops >= 0 ? i >= max_ops : p.timed_ms >= seconds * 1000.0) break;
    if (i == static_cast<long>(ops->size())) ops->push_back(w.next(i));
    const Op& op = (*ops)[static_cast<size_t>(i)];
    OpRecord rec;
    rec.kind = op.kind;
    if (op.kind == Kind::kInsert || op.kind == Kind::kErase) {
      const double t0 = NowUs();
      long result = 0;
      if (op.kind == Kind::kInsert) {
        result = store.Insert(op.graph);
      } else {
        result = store.Erase(op.erase_id) ? 1 : 0;
      }
      const double t1 = NowUs();
      rec.ms = (t1 - t0) / 1000.0;
      if (traced)
        spans->Add(i, op.kind == Kind::kInsert ? "store.insert" : "store.erase",
                   t0, t1);
      if (op.kind == Kind::kErase && result == 0)
        Fail(out, "erase of live id " + std::to_string(op.erase_id) +
                      " returned false");
      p.digest.Count(std::string("ops.") + KindName(op.kind), 1);
      p.digest.Mix(static_cast<uint64_t>(result));
    } else {
      ++p.reads;
      if (op.repeat) ++p.repeats;
      std::shared_ptr<const otged::IndexView> view;
      if (traced) {
        // ViewFor on the snapshot the op will pin: after a write this
        // advances the index here, outside the op's span (the op then
        // finds the view cached); the advance is added back when traced
        // and untraced wall time are compared.
        auto snap = store.Snapshot();
        const double a = NowUs();
        view = engine.index()->ViewFor(snap);
        const double b = NowUs();
        if (snap->epoch() != indexed_epoch) {
          spans->Add(i, "index.advance", a, b);
          rec.advance_ms = (b - a) / 1000.0;
          indexed_epoch = snap->epoch();
        }
      }
      const double t0 = NowUs();
      std::vector<SearchHit> hits;
      otged::QueryStats stats;
      if (op.kind == Kind::kRange) {
        otged::RangeResult r = engine.Range(op.graph, w.tau);
        hits = std::move(r.hits);
        stats = r.stats;
      } else {
        otged::TopKResult r = engine.TopK(op.graph, w.k);
        hits = std::move(r.hits);
        stats = r.stats;
      }
      const double t1 = NowUs();
      rec.ms = (t1 - t0) / 1000.0;
      if (traced) {
        spans->Add(i, std::string("op.") + KindName(op.kind), t0, t1);
        // The op's index calls, repeated on the same view after the op so
        // they do not warm the op's own caches (they run warm instead).
        const otged::GraphInvariants qi = otged::ComputeInvariants(op.graph);
        otged::IndexStats ist;
        if (op.kind == Kind::kRange) {
          std::vector<int> ids;
          const double a = NowUs();
          view->RangeCandidates(qi, w.tau, &ids, &ist);
          rec.index_ms += (NowUs() - a) / 1000.0;
          spans->Add(i, "index.range", a, NowUs());
        } else {
          std::vector<std::pair<int, int>> seeds;
          const size_t kp = static_cast<size_t>(std::min(
              view->Size(), w.k + std::max(0, w.engine.topk_seed_probes)));
          double a = NowUs();
          view->TopKSeeds(qi, kp, &seeds, &ist);
          rec.index_ms += (NowUs() - a) / 1000.0;
          spans->Add(i, "index.topk_seeds", a, NowUs());
          if (static_cast<int>(hits.size()) >= w.k) {
            // LB-range cut at the k-th returned distance: a lower bound on
            // the cap the engine itself used.
            std::vector<int> ids;
            a = NowUs();
            view->LbRangeCandidates(
                qi, hits[static_cast<size_t>(w.k - 1)].ged, &ids, &ist);
            rec.index_ms += (NowUs() - a) / 1000.0;
            spans->Add(i, "index.lb_range", a, NowUs());
          }
        }
        for (const otged::telemetry::TraceEvent& e : trace.Drain()) {
          rec.busy_us += e.total_us;
          if (e.tier < 0 || e.tier > 4) continue;  // bound-cache hit
          for (int t = 0; t < 5; ++t) p.tiers.busy_us[t] += e.tier_us[t];
          for (int t = 0; t <= e.tier; ++t) ++p.tiers.entered[t];
          ++p.tiers.settled[e.tier];
          p.tiers.expansions += e.exact_expansions;
        }
        // Reconciliation: workers cannot be busy for longer than the op.
        if (rec.busy_us > threads * (t1 - t0) * 1.01 + 50.0)
          Fail(out, "op " + std::to_string(i) + ": traced busy " +
                        std::to_string(rec.busy_us) + " us exceeds " +
                        std::to_string(threads) + " x wall " +
                        std::to_string(t1 - t0) + " us");
      }
      // Determinism digest.
      const otged::CascadeStats& c = stats.cascade;
      p.digest.Count(std::string("ops.") + KindName(op.kind), 1);
      p.digest.Count("hits", static_cast<long>(hits.size()));
      p.digest.Count("cascade.candidates", c.candidates);
      p.digest.Count("cascade.pruned_index", c.pruned_index);
      p.digest.Count("cascade.pruned_invariant", c.pruned_invariant);
      p.digest.Count("cascade.passed_invariant", c.passed_invariant);
      p.digest.Count("cascade.pruned_branch", c.pruned_branch);
      p.digest.Count("cascade.decided_heuristic", c.decided_heuristic);
      p.digest.Count("cascade.decided_ot", c.decided_ot);
      p.digest.Count("cascade.decided_exact", c.decided_exact);
      p.digest.Count("cascade.cache_hits", c.cache_hits);
      p.digest.Count("exact.calls", c.exact_calls);
      p.digest.Count("exact.starved", c.exact_incomplete);
      for (const SearchHit& h : hits) {
        p.digest.Mix(static_cast<uint64_t>(h.id));
        p.digest.Mix(static_cast<uint64_t>(h.ged) * 2 +
                     (h.exact_distance ? 1 : 0));
      }
      p.hits += static_cast<long>(hits.size());
      for (const SearchHit& h : hits)
        if (Unproven(op.kind, h, w.tau)) ++p.unproven;
      p.starved += c.exact_incomplete;
      if (rec.ms > 1000.0)
        std::printf("slow op %ld (%s, %d nodes): %.0f ms, %zu hits (first "
                    "ged %d), %ld pairs past the index, %ld exact calls, %ld "
                    "starved\n",
                    i, KindName(op.kind), op.graph.NumNodes(), rec.ms,
                    hits.size(), hits.empty() ? -1 : hits[0].ged,
                    c.candidates - c.pruned_index, c.exact_calls,
                    c.exact_incomplete);
      if (op.kind == Kind::kRange) {
        p.scanned += stats.index.scanned;
        p.index_candidates += stats.index.candidates;
      }

      if (!traced) {
        // Answer checks, outside the op's span.
        for (const SearchHit& h : hits)
          if (op.kind == Kind::kRange && h.exact_distance && h.ged > w.tau)
            Fail(out, "op " + std::to_string(i) + ": proven hit " +
                          std::to_string(h.id) + " has ged " +
                          std::to_string(h.ged) + " > tau");
        if (op.kind == Kind::kTopK) {
          const size_t want =
              static_cast<size_t>(std::min(w.k, store.Size()));
          bool sorted = true;
          for (size_t j = 1; j < hits.size(); ++j)
            sorted = sorted && (hits[j - 1].ged < hits[j].ged ||
                                (hits[j - 1].ged == hits[j].ged &&
                                 hits[j - 1].id < hits[j].id));
          if (hits.size() != want || !sorted)
            Fail(out, "op " + std::to_string(i) + ": top-k result malformed");
        }
        if ((p.reads - 1) % w.check_every == 0) {
          std::vector<SearchHit> ref =
              op.kind == Kind::kRange ? scan->Range(op.graph, w.tau).hits
                                      : scan->TopK(op.graph, w.k).hits;
          if (!SameHits(hits, ref))
            Fail(out, "op " + std::to_string(i) + " (" + KindName(op.kind) +
                          "): hits differ from the linear-scan engine");
        }
        if (planted != nullptr && op.kind == Kind::kRange &&
            op.planted_seed >= 0)
          planted->push_back({i, hits});
      }
    }
    p.ops.push_back(rec);
    p.timed_ms += rec.ms;
  }

  if (traced) {
    trace.SetEnabled(false);
    if (trace.Dropped() != dropped0)
      Fail(out, "trace sink dropped events; raise its capacity");
  }
  const auto after = otged::telemetry::Registry().Snapshot();
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  p.cache_hits = delta("otged_bound_cache_hits_total");
  p.cache_misses = delta("otged_bound_cache_misses_total");
  p.steals = delta("otged_pool_steals_total");
  return p;
}

/// The planted-neighbour gate: on (query, planted variant) pairs where an
/// exact solve with a generous budget completes, that solve must agree
/// with every proven decision the engine returned.
void CheckPlanted(const ServingWorkload& w, const std::vector<Op>& ops,
                  const std::vector<PlantedProbe>& probes, Outcome* out) {
  int solved = 0, incomplete = 0, compared = 0;
  for (const PlantedProbe& pr : probes) {
    const Op& op = ops[static_cast<size_t>(pr.op)];
    for (const int id : w.planted[static_cast<size_t>(op.planted_seed)]) {
      if (solved + incomplete >= w.planted_pairs) break;
      const Graph& g = w.corpus[static_cast<size_t>(id)];
      auto [g1, g2] = otged::OrderBySize(op.graph, g);
      otged::BnbOptions bo;
      bo.max_visits = kPlantedBudget;
      bo.initial_upper_bound = otged::ClassicGed(*g1, *g2).ged;
      const otged::GedSearchResult ex = otged::BranchAndBoundGed(*g1, *g2, bo);
      if (!ex.exact) {
        ++incomplete;
        continue;
      }
      ++solved;
      const SearchHit* hit = nullptr;
      for (const SearchHit& h : pr.hits)
        if (h.id == id) hit = &h;
      if (hit != nullptr && Unproven(Kind::kRange, *hit, w.tau)) continue;
      ++compared;
      const bool engine_within = hit != nullptr;
      const bool exact_within = ex.ged <= w.tau;
      if (engine_within != exact_within ||
          (hit != nullptr && hit->exact_distance && hit->ged != ex.ged))
        Fail(out, "op " + std::to_string(pr.op) + ": planted pair with id " +
                      std::to_string(id) + " has exact GED " +
                      std::to_string(ex.ged) + " but the engine returned " +
                      (hit ? "ged " + std::to_string(hit->ged) : "no hit"));
    }
  }
  std::printf("planted gate: %d pairs solved exactly (%d compared with a "
              "proven decision), %d over the %ld-expansion budget\n",
              solved, compared, incomplete, kPlantedBudget);
}

/// Op latencies of one pass, of every kind or of one.
std::vector<double> Latencies(const PassResult& p, const Kind* only = nullptr) {
  std::vector<double> v;
  for (const OpRecord& r : p.ops)
    if (only == nullptr || r.kind == *only) v.push_back(r.ms);
  return v;
}

void PrintPass(const char* label, const PassResult& p) {
  std::printf("%s: %zu ops in %.3f s timed (%ld reads, %ld repeats), "
              "%ld hits, %ld unproven\n",
              label, p.ops.size(), p.timed_ms / 1000.0, p.reads, p.repeats,
              p.hits, p.unproven);
  for (Kind k : {Kind::kRange, Kind::kTopK, Kind::kInsert, Kind::kErase}) {
    const std::vector<double> v = Latencies(p, &k);
    if (v.empty()) continue;
    std::printf("  %-6s n=%-5zu p50 %.3f ms  p90 %.3f ms  max %.3f ms  "
                "mean %.3f ms\n",
                KindName(k), v.size(), Percentile(v, 0.5), Percentile(v, 0.9),
                Percentile(v, 1.0), Mean(v));
  }
}

Outcome RunServing(const Options& opt, ServingWorkload& w) {
  Outcome out;
  std::printf("workload %s: %zu graphs, tau %d, k %d, %d engine threads, "
              "exact_budget %ld, topk_seed_probes %d, "
              "topk_seed_refine_budget %ld\n",
              w.name.c_str(), w.corpus.size(), w.tau, w.k,
              w.engine.num_threads, w.engine.cascade.exact_budget,
              w.engine.topk_seed_probes, w.engine.topk_seed_refine_budget);
  // Set up several times; the median is setup_s, the last one serves.
  std::vector<double> setup_s, ingest_s, build_s;
  Served s;
  for (int r = 0; r < w.setup_reps; ++r) {
    TearDown(&s);
    s = SetUp(w);
    ingest_s.push_back(s.ingest_s);
    build_s.push_back(s.build_s);
    setup_s.push_back(s.ingest_s + s.build_s);
  }
  std::printf("setup: %d reps, median %.4f s (ingest %.4f s, index build "
              "%.4f s)\n",
              w.setup_reps, Median(setup_s), Median(ingest_s),
              Median(build_s));

  WarmUp(w, &s);
  std::vector<Op> ops;
  std::vector<PlantedProbe> probes;
  const double untraced_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  PassResult base =
      ServePass(w, &s, &ops, -1, untraced_seconds, nullptr, &probes, &out);
  out.attempted = static_cast<long>(base.ops.size());
  PrintPass("untraced", base);
  std::printf("digest %s\n", base.digest.Json().c_str());
  CheckPlanted(w, ops, probes, &out);

  if (!opt.trace) {
    AddEndToEnd(Median(setup_s), static_cast<long>(base.ops.size()),
                base.timed_ms, Latencies(base), &out.metrics);
    std::printf("unproven fraction %.4f (%ld of %ld hits), repeat ratio "
                "%.3f\n",
                base.hits ? static_cast<double>(base.unproven) / base.hits : 0,
                base.unproven, base.hits,
                base.reads ? static_cast<double>(base.repeats) / base.reads
                           : 0);
    return out;
  }

  // Traced replay of the same ops on a fresh store and engine.
  TearDown(&s);
  s = SetUp(w);
  WarmUp(w, &s);
  SpanLog spans;
  const long n = static_cast<long>(base.ops.size());
  PassResult tr = ServePass(w, &s, &ops, n, 0.0, &spans, nullptr, &out);
  out.attempted += n;
  PrintPass("traced", tr);
  std::printf("digest %s\n", tr.digest.Json().c_str());
  std::printf("exact expansions (from trace events only): %ld\n",
              tr.tiers.expansions);
  if (!(base.digest == tr.digest))
    Fail(&out, "determinism digest differs between untraced and traced "
               "passes");
  if (!opt.spans_out.empty() && !spans.Write(opt.spans_out))
    Fail(&out, "could not write spans to " + opt.spans_out);

  LayerValues v;
  v.store_ingest_s = Median(ingest_s);
  v.index_build_s = Median(build_s);
  v.store_insert_ms = Median(spans.Ms("store.insert"));
  v.store_erase_ms = Median(spans.Ms("store.erase"));
  v.index_advance_ms = Median(spans.Ms("index.advance"));
  v.index_range_us = Median(spans.Ms("index.range")) * 1000.0;
  v.index_topk_seeds_us = Median(spans.Ms("index.topk_seeds")) * 1000.0;
  v.index_lb_range_us = Median(spans.Ms("index.lb_range")) * 1000.0;
  v.index_candidate_fraction =
      tr.scanned ? static_cast<double>(tr.index_candidates) / tr.scanned : 0;
  const double reads = static_cast<double>(std::max(1L, tr.reads));
  for (int t = 0; t < 5; ++t) {
    v.tier_busy_ms[t] = tr.tiers.busy_us[t] / 1000.0 / reads;
    v.tier_entered[t] = static_cast<double>(tr.tiers.entered[t]) / reads;
    v.tier_settled_ratio[t] =
        tr.tiers.entered[t]
            ? static_cast<double>(tr.tiers.settled[t]) / tr.tiers.entered[t]
            : 0.0;
  }
  v.exact_expansions = static_cast<double>(tr.tiers.expansions) / reads;
  v.exact_starved = static_cast<double>(tr.starved) / reads;
  v.exact_ns_per_expansion =
      tr.tiers.expansions ? tr.tiers.busy_us[4] * 1000.0 / tr.tiers.expansions
                          : 0.0;
  const int threads = s.engine->num_threads();
  double busy = 0.0, capacity = 0.0, base_wall = 0.0, traced_wall = 0.0;
  // Per read kind (0 range, 1 top-k): op wall, index wall (advance
  // included), cascade busy / threads, and the unattributed remainder.
  struct Split {
    long n = 0;
    double wall = 0, index = 0, cascade = 0;
    std::vector<double> unattributed;
  } split[2];
  for (size_t i = 0; i < tr.ops.size(); ++i) {
    const OpRecord& r = tr.ops[i];
    base_wall += base.ops[i].ms;
    traced_wall += r.ms + r.advance_ms;
    if (r.kind != Kind::kRange && r.kind != Kind::kTopK) continue;
    busy += r.busy_us / 1000.0;
    capacity += threads * r.ms;
    Split& sp = split[r.kind == Kind::kTopK ? 1 : 0];
    const double wall = r.ms + r.advance_ms;
    const double index = r.index_ms + r.advance_ms;
    const double cascade = r.busy_us / 1000.0 / threads;
    ++sp.n;
    sp.wall += wall;
    sp.index += index;
    sp.cascade += cascade;
    sp.unattributed.push_back(wall - index - cascade);
  }
  v.engine_pool_idle_fraction = capacity > 0 ? 1.0 - busy / capacity : 0.0;
  v.engine_unattributed_range_ms = Mean(split[0].unattributed);
  v.engine_unattributed_topk_ms = Mean(split[1].unattributed);
  const long lookups = tr.cache_hits + tr.cache_misses;
  v.cache_hit_rate =
      lookups ? static_cast<double>(tr.cache_hits) / lookups : 0.0;
  v.cache_repeat_ratio = static_cast<double>(tr.repeats) / reads;
  v.pool_steals = static_cast<double>(tr.steals) / reads;
  v.trace_overhead_fraction = base_wall > 0 ? traced_wall / base_wall - 1 : 0;
  v.quality_unproven_fraction =
      tr.hits ? static_cast<double>(tr.unproven) / tr.hits : 0.0;

  // Where read-op wall time went. The cascade's share is its busy time
  // over the pool's threads; index calls run on one thread.
  static const char* kTier[5] = {"invariant", "branch", "heuristic", "ot",
                                 "exact"};
  for (int k = 0; k < 2; ++k) {
    const Split& sp = split[k];
    if (sp.n == 0) continue;
    std::printf("layer split, %s ops (%ld, %.1f ms wall): index %.1f%%, "
                "cascade %.1f%%, unattributed %.1f%%\n",
                k ? "topk" : "range", sp.n, sp.wall, 100 * sp.index / sp.wall,
                100 * sp.cascade / sp.wall,
                100 * (sp.wall - sp.index - sp.cascade) / sp.wall);
  }
  double cascade_us = 0.0;
  for (int t = 0; t < 5; ++t) cascade_us += tr.tiers.busy_us[t];
  std::printf("cascade busy by tier:");
  for (int t = 0; t < 5; ++t)
    std::printf(" %s %.1f%%", kTier[t],
                cascade_us > 0 ? 100.0 * tr.tiers.busy_us[t] / cascade_us : 0);
  std::printf("\n");
  AddPerLayer(v, &out.metrics);
  return out;
}

// ------------------------------------------------------------ workloads

uint64_t WarmSeed(uint64_t seed, long i) {
  return seed * 7919 + 31 + static_cast<uint64_t>(i) * 104729;
}

/// Range queries at tau = 4 over 2,000 unlabeled power-law graphs, 500
/// of them planted 1-5-edit variants of 100 query seeds. The stream is a
/// cycle of four ops: a planted seed, a repeat, a fresh power-law graph,
/// a repeat. A repeat serves verbatim the distinct query issued
/// kRepeatLag distinct queries earlier, so half the stream repeats and
/// every distinct query comes back once. Query sizes step through 12..28
/// in a fixed order, so a run's mix of sizes does not depend on the seed.
ServingWorkload MakeRangePowerlaw(uint64_t seed) {
  ServingWorkload w;
  w.name = "range-powerlaw";
  w.engine.num_threads = 4;
  w.engine.cascade.exact_budget = 20'000;
  w.tau = 4;
  w.setup_reps = 15;
  w.check_every = 24;
  w.planted_pairs = 6;
  constexpr int kSeeds = 100, kVariants = 5, kCorpus = 2000;
  constexpr int kRepeatLag = 8;
  // Sizes 12..28, visited in a fixed stride-7 order.
  auto size_of = [](int j) { return 12 + (j * 7) % 17; };
  Rng rng(seed);
  std::vector<Graph> seeds;
  for (int q = 0; q < kSeeds; ++q)
    seeds.push_back(otged::PowerLawGraph(size_of(q), 2, &rng));
  for (int i = 0; i < kCorpus - kSeeds * kVariants; ++i)
    w.corpus.push_back(otged::PowerLawGraph(rng.UniformInt(10, 32),
                                            rng.UniformInt(1, 3), &rng));
  for (const Graph& q : seeds) {
    w.planted.emplace_back();
    for (int v = 0; v < kVariants; ++v) {
      otged::SyntheticEditOptions so;
      so.num_edits = 1 + v;
      so.allow_relabel = false;
      w.planted.back().push_back(static_cast<int>(w.corpus.size()));
      w.corpus.push_back(otged::SyntheticEditPair(q, so, &rng).g2);
    }
  }
  struct State {
    Rng rng;
    std::vector<Graph> seeds;
    std::vector<Op> distinct;
    int fresh = 0;
  };
  auto st = std::make_shared<State>(State{Rng(seed * 7919 + 17), seeds, {}, 0});
  w.next = [st, size_of](long i) {
    Op op;
    op.kind = Kind::kRange;
    const long phase = i % 4;
    if (phase == 1 || phase == 3) {
      const int n = static_cast<int>(st->distinct.size());
      op = st->distinct[static_cast<size_t>(std::max(0, n - kRepeatLag))];
      op.repeat = true;
      return op;
    }
    if (phase == 0) {
      // Past the last seed the cycle wraps; those ops are repeats too.
      const int s = static_cast<int>((i / 4) % kSeeds);
      op.planted_seed = s;
      op.graph = st->seeds[static_cast<size_t>(s)];
      op.repeat = i / 4 >= kSeeds;
    } else {
      op.graph = otged::PowerLawGraph(size_of(st->fresh++ + 3), 2, &st->rng);
    }
    st->distinct.push_back(op);
    return op;
  };
  w.warm = [seed, size_of](long i) {
    Rng r(WarmSeed(seed, i));
    Op op;
    op.graph = otged::PowerLawGraph(size_of(static_cast<int>(i)), 2, &r);
    return op;
  };
  return w;
}

/// Range (tau = 2) on perturbed seeds, top-k (k = 1) on copies of stored
/// graphs, and single-graph writes against about 101k AIDS-like molecule
/// graphs, with no repeats.
ServingWorkload MakeMoleculeChurn(uint64_t seed) {
  ServingWorkload w;
  w.name = "molecule-100k-churn";
  w.engine.num_threads = 4;
  w.engine.cascade.exact_budget = 50'000;
  w.engine.topk_seed_probes = 48;
  w.engine.topk_seed_refine_budget = 5'000;
  w.tau = 2;
  w.k = 1;
  w.setup_reps = 3;
  w.check_every = 8;
  w.planted_pairs = 36;
  constexpr int kRandom = 100'000, kSeeds = 100, kVariants = 12;
  Rng rng(seed);
  w.corpus.reserve(kRandom + kSeeds * kVariants);
  for (int i = 0; i < kRandom; ++i)
    w.corpus.push_back(otged::AidsLikeGraph(&rng, 6, 14));
  std::vector<Graph> seeds;
  for (int s = 0; s < kSeeds; ++s) {
    seeds.push_back(otged::AidsLikeGraph(&rng, 6, 14));
    w.planted.emplace_back();
    for (int v = 0; v < kVariants; ++v) {
      otged::SyntheticEditOptions so;
      so.num_edits = 1 + v % 3;
      so.num_labels = 29;
      w.planted.back().push_back(static_cast<int>(w.corpus.size()));
      w.corpus.push_back(otged::SyntheticEditPair(seeds.back(), so, &rng).g2);
    }
  }
  struct State {
    Rng rng;
    std::vector<Graph> seeds;
    std::vector<Graph> planted_graphs;
    std::vector<int> topk_order;  ///< planted graphs in top-k query order
    std::vector<char> erased;     ///< over the random part's ids
    long topk = 0;
  };
  std::vector<Graph> planted_graphs(w.corpus.begin() + kRandom,
                                    w.corpus.end());
  std::vector<int> topk_order(planted_graphs.size());
  for (size_t j = 0; j < topk_order.size(); ++j)
    topk_order[j] = static_cast<int>(j);
  rng.Shuffle(&topk_order);
  auto st = std::make_shared<State>(
      State{Rng(seed * 7919 + 23), seeds, std::move(planted_graphs),
            topk_order, std::vector<char>(kRandom, 0), 0});
  // One cycle of ten ops: six ranges, two top-k, one insert, one erase.
  static const Kind kCycle[10] = {Kind::kRange, Kind::kTopK,  Kind::kRange,
                                  Kind::kInsert, Kind::kRange, Kind::kRange,
                                  Kind::kTopK,  Kind::kRange, Kind::kErase,
                                  Kind::kRange};
  w.next = [st](long i) {
    Op op;
    op.kind = kCycle[i % 10];
    otged::SyntheticEditOptions so;
    so.num_labels = 29;
    switch (op.kind) {
      case Kind::kRange: {
        op.planted_seed = st->rng.UniformInt(0, kSeeds - 1);
        so.num_edits = st->rng.UniformInt(1, 3);
        op.graph = otged::SyntheticEditPair(
                       st->seeds[static_cast<size_t>(op.planted_seed)], so,
                       &st->rng)
                       .g2;
        break;
      }
      case Kind::kTopK: {
        // A verbatim copy of a stored planted graph, each graph once
        // (past the last one the order wraps, and those ops are repeats).
        // Nearer-miss queries hit a tail this run cannot hold: see the
        // top-k note in README.md.
        const size_t n = st->topk_order.size();
        const int j = st->topk_order[static_cast<size_t>(st->topk) % n];
        op.repeat = st->topk++ >= static_cast<long>(n);
        op.graph = st->planted_graphs[static_cast<size_t>(j)];
        break;
      }
      case Kind::kInsert:
        op.graph = otged::AidsLikeGraph(&st->rng, 6, 14);
        break;
      case Kind::kErase: {
        int id = 0;
        do {
          id = st->rng.UniformInt(0, kRandom - 1);
        } while (st->erased[static_cast<size_t>(id)]);
        st->erased[static_cast<size_t>(id)] = 1;
        op.erase_id = id;
        break;
      }
    }
    return op;
  };
  // Warm-up: the cycle's reads only. Its top-k queries copy graphs of
  // the random part, which the measured top-k queries never use.
  std::vector<Graph> warm_topk;
  for (int j = 0; j < 256; ++j)
    warm_topk.push_back(
        w.corpus[static_cast<size_t>(rng.UniformInt(0, kRandom - 1))]);
  w.warm = [seed, seeds, warm_topk = std::move(warm_topk)](long i) {
    Rng r(WarmSeed(seed, i));
    Op op;
    if (i % 4 == 3) {
      op.kind = Kind::kTopK;
      op.graph = warm_topk[static_cast<size_t>(i / 4) % warm_topk.size()];
    } else {
      otged::SyntheticEditOptions so;
      so.num_labels = 29;
      so.num_edits = r.UniformInt(1, 3);
      const int j = r.UniformInt(0, kSeeds - 1);
      op.graph =
          otged::SyntheticEditPair(seeds[static_cast<size_t>(j)], so, &r).g2;
    }
    return op;
  };
  return w;
}

}  // namespace

Outcome RunRangePowerlaw(const Options& opt) {
  ServingWorkload w = MakeRangePowerlaw(opt.seed);
  return RunServing(opt, w);
}

Outcome RunMoleculeChurn(const Options& opt) {
  ServingWorkload w = MakeMoleculeChurn(opt.seed);
  return RunServing(opt, w);
}

}  // namespace perfbench
