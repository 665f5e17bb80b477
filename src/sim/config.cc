#include "sim/config.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lbsq::sim {

namespace {
constexpr double kPaperAreaSqMi = kPaperWorldSideMiles * kPaperWorldSideMiles;
}  // namespace

double ParameterSet::PoiDensity() const { return poi_number / kPaperAreaSqMi; }
double ParameterSet::MhDensity() const { return mh_number / kPaperAreaSqMi; }
double ParameterSet::QueryRatePerSqMiPerMin() const {
  return query_per_min / kPaperAreaSqMi;
}

ParameterSet LosAngelesCity() {
  ParameterSet p;
  p.name = "Los Angeles City";
  p.poi_number = 2750;
  p.mh_number = 93300;
  p.csize = 50;
  p.query_per_min = 6220;
  p.tx_range_m = 200;
  p.knn_k = 5;
  p.window_pct = 3;
  p.distance_mi = 1;
  p.t_execution_hr = 10;
  return p;
}

ParameterSet SyntheticSuburbia() {
  ParameterSet p = LosAngelesCity();
  p.name = "Synthetic Suburbia";
  p.poi_number = 2100;
  p.mh_number = 51500;
  p.query_per_min = 3440;
  return p;
}

ParameterSet RiversideCounty() {
  ParameterSet p = LosAngelesCity();
  p.name = "Riverside County";
  p.poi_number = 1450;
  p.mh_number = 9700;
  p.query_per_min = 650;
  return p;
}

const char* UpdateWorkloadConfig::FirstViolation() const {
  LBSQ_RULE(interval_events >= 0);
  LBSQ_RULE(inserts_per_batch >= 0);
  LBSQ_RULE(deletes_per_batch >= 0);
  LBSQ_RULE(moves_per_batch >= 0);
  LBSQ_RULE(move_radius_mi >= 0.0);
  LBSQ_RULE(!enabled() ||
            inserts_per_batch + deletes_per_batch + moves_per_batch > 0);
  return nullptr;
}

const char* SimConfig::FirstViolation() const {
  LBSQ_RULE(world_side_mi > 0.0);
  LBSQ_RULE(warmup_min >= 0.0);
  LBSQ_RULE(duration_min > 0.0);
  LBSQ_RULE(speed_min_mph > 0.0 && speed_max_mph >= speed_min_mph);
  LBSQ_RULE(street_block_mi > 0.0);
  LBSQ_RULE(p2p_hops >= 1);
  LBSQ_RULE(mixed_window_fraction >= 0.0 && mixed_window_fraction <= 1.0);
  LBSQ_RULE(prefetch_radius_factor >= 1.0);
  LBSQ_RULE(max_regions_per_host >= 1);
  LBSQ_RULE(slots_per_second > 0.0);
  LBSQ_RULE(min_correctness >= 0.0 && min_correctness <= 1.0);
  LBSQ_RULE(threads >= 1);
  LBSQ_RULE(events_per_epoch >= 1);
  LBSQ_RULE(params.csize >= 1);
  LBSQ_RULE(params.tx_range_m > 0.0);
  LBSQ_RULE(params.knn_k >= 1.0);
  LBSQ_RULE(shards >= 1);
  // Fault injection models one lossy channel; a multi-channel fault model
  // would be a different system. Sharded cache-invariant checking under
  // churn would additionally need history-retained sharded epochs.
  LBSQ_RULE(shards == 1 || !fault.enabled());
  LBSQ_RULE(shards == 1 || !(updates.enabled() && check_cache_invariant));
  // The literal collective-MBR policy inflates verified regions by design,
  // so neither the cache invariant nor the answer oracle holds under it.
  LBSQ_RULE(cache_policy == core::CachePolicy::kSoundShrink ||
            !(check_answers || check_cache_invariant));
  if (const char* violation = fault.FirstViolation()) return violation;
  return updates.FirstViolation();
}

void SimConfig::Validate() const { LBSQ_CHECK_RULES(FirstViolation()); }

double SimConfig::Scale() const {
  return (world_side_mi * world_side_mi) / kPaperAreaSqMi;
}

int64_t SimConfig::ScaledMhCount() const {
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(params.mh_number * Scale())));
}

int64_t SimConfig::ScaledPoiCount() const {
  if (paper_window_geometry) {
    return std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(params.poi_number)));
  }
  return std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(params.poi_number * Scale())));
}

double SimConfig::ScaledQueriesPerMin() const {
  return params.query_per_min * Scale();
}

}  // namespace lbsq::sim
