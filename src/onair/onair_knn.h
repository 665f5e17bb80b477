#ifndef LBSQ_ONAIR_ONAIR_KNN_H_
#define LBSQ_ONAIR_ONAIR_KNN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "broadcast/client_protocol.h"
#include "broadcast/system.h"
#include "geom/circle.h"
#include "geom/point.h"
#include "kernels/poi_slab.h"
#include "spatial/poi.h"

/// \file
/// The on-air kNN baseline (after Zheng, Lee & Lee): scan the air index to
/// derive a search circle guaranteed to contain the k nearest objects, take
/// the MBR of that circle as the search range, and download every data
/// bucket whose Hilbert span falls within the range's span. This is the
/// algorithm the paper's sharing-based approach improves upon. The model
/// prices the whole span in closed form but reads only the buckets of the
/// MBR's cover, which hold the answer.

namespace lbsq::onair {

/// Result of an on-air query.
struct OnAirKnnResult {
  /// The exact k nearest neighbors (ascending distance).
  std::vector<spatial::PoiDistance> neighbors;
  /// Broadcast cost of the retrieval.
  broadcast::AccessStats stats;
  /// The search circle derived from the index.
  geom::Circle search_circle;
  /// Buckets downloaded: the span of the search circle's MBR.
  broadcast::BucketRetrieval retrieval;
};

/// Executes an on-air kNN for query point `q` issued at slot `now`.
OnAirKnnResult OnAirKnn(const broadcast::BroadcastSystem& system,
                        geom::Point q, int k, int64_t now);

/// The k nearest neighbors of `q` among `extra` and the POIs a single-span
/// retrieval delivers (its intervals minus its skipped ids), whose search
/// circle around q has radius `radius`. `cover_buckets`, when given, are
/// the bucket intervals of the cover of that circle's MBR: the answer is
/// then taken from the POIs inside the MBR
/// held by the cover's kept buckets — every delivered POI within the radius
/// is among them — and from every kept bucket only when that gives fewer
/// than k neighbors or a k-th beyond the radius. Without it, every kept
/// bucket is read. The answer is the same either way. `*pois` ends holding
/// the POIs the answer was taken from, as KnnOverPois leaves them; `*ids`
/// and `*collect` are scratch.
void KnnFromSpan(const broadcast::BroadcastSystem& system, geom::Point q,
                 int k, double radius,
                 const broadcast::BucketRetrieval& retrieval,
                 const std::vector<broadcast::BucketInterval>* cover_buckets,
                 std::span<const spatial::PoiDistance> extra,
                 std::vector<int64_t>* ids, broadcast::CollectScratch* collect,
                 kernels::SlabScratch* slab, std::vector<spatial::Poi>* pois,
                 std::vector<spatial::PoiDistance>* neighbors);

/// The k nearest neighbors of `q` among `*pois` and `extra` (POIs a client
/// already holds, such as peer candidates), into `*neighbors`. `*pois` ends
/// holding both sets sorted by id without duplicates — pass
/// `pois_sorted_by_id` when it arrives that way — and `slab->slab` its SoA
/// transpose.
void KnnOverPois(geom::Point q, int k,
                 std::span<const spatial::PoiDistance> extra,
                 bool pois_sorted_by_id, kernels::SlabScratch* slab,
                 std::vector<spatial::Poi>* pois,
                 std::vector<spatial::PoiDistance>* neighbors);

}  // namespace lbsq::onair

#endif  // LBSQ_ONAIR_ONAIR_KNN_H_
