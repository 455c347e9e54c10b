/// \file workloads.hpp
/// \brief The four benchmark workloads. Each generates its inputs from
/// the seed, drives the library through its public API in a closed loop
/// with one client, checks every answer, and returns its metrics: the
/// end-to-end list untraced, the per-layer list when traced.
#ifndef PERFBENCH_WORKLOADS_HPP_
#define PERFBENCH_WORKLOADS_HPP_

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

Outcome RunRangePowerlaw(const Options& opt);
Outcome RunMoleculeChurn(const Options& opt);
Outcome RunPairwiseGed(const Options& opt);
Outcome RunPairwiseGep(const Options& opt);

/// Values measured by a traced run; AddPerLayer prints every per-layer
/// metric of the benchmark, 0 for layers the workload does not exercise.
struct LayerValues {
  double store_ingest_s = 0, store_insert_ms = 0, store_erase_ms = 0;
  double index_build_s = 0, index_advance_ms = 0, index_range_us = 0,
         index_topk_seeds_us = 0, index_lb_range_us = 0,
         index_candidate_fraction = 0;
  double tier_busy_ms[5] = {0, 0, 0, 0, 0};  ///< per read op
  double tier_entered[5] = {0, 0, 0, 0, 0};  ///< per read op
  double tier_settled_ratio[5] = {0, 0, 0, 0, 0};
  double exact_expansions = 0, exact_starved = 0, exact_ns_per_expansion = 0;
  double gedgw_predict_us = 0, kbest_search_us = 0;
  double engine_pool_idle_fraction = 0, engine_unattributed_range_ms = 0,
         engine_unattributed_topk_ms = 0;
  double cache_hit_rate = 0, cache_repeat_ratio = 0, pool_steals = 0;
  double trace_overhead_fraction = 0;
  double quality_unproven_fraction = 0, quality_ged_mae = 0;
};

void AddPerLayer(const LayerValues& v, Report* r);

/// Appends the end-to-end metrics shared by every workload.
void AddEndToEnd(double setup_s, long ops, double timed_ms,
                 const std::vector<double>& latencies_ms, Report* r);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP_
