#include "onair/onair_knn.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "onair/onair_window.h"

namespace lbsq::onair {

OnAirKnnResult OnAirKnn(const broadcast::BroadcastSystem& system,
                        geom::Point q, int k, int64_t now) {
  LBSQ_CHECK(k >= 1);
  OnAirKnnResult result;

  // Pass 1 (index scan): search circle guaranteed to contain the top k.
  double radius = system.index().KthDistanceUpperBound(q, k);
  if (!std::isfinite(radius)) {
    // Fewer than k objects exist: the search range is the whole world.
    const geom::Rect& world = system.grid().world();
    radius = world.MaxDistance(q);
  }
  result.search_circle = geom::Circle{q, radius};

  // Pass 2 (data retrieval): download the span covering the circle's MBR.
  const std::vector<hilbert::IndexRange> cover =
      system.grid().CoverRect(result.search_circle.Mbr());
  AppendBucketsForCover(system.index(), cover, WindowRetrieval::kSingleSpan,
                        &result.retrieval.intervals);
  broadcast::IndexReadMode index_mode = broadcast::IndexReadMode::FlatDirectory();
  if (system.tree_index() != nullptr) {
    index_mode =
        broadcast::IndexReadMode::TreePaths(system.IndexReadBuckets(cover));
  }
  result.stats = broadcast::RetrieveBuckets(system.schedule(), now,
                                            result.retrieval, index_mode);

  std::vector<broadcast::BucketInterval> cover_buckets;
  AppendBucketsForCover(system.index(), cover,
                        WindowRetrieval::kPartitionedRanges, &cover_buckets);
  std::vector<int64_t> ids;
  broadcast::CollectScratch collect;
  kernels::SlabScratch slab;
  std::vector<spatial::Poi> pois;
  KnnFromSpan(system, q, k, radius, result.retrieval, &cover_buckets, {},
              &ids, &collect, &slab, &pois, &result.neighbors);
  return result;
}

void KnnFromSpan(const broadcast::BroadcastSystem& system, geom::Point q,
                 int k, double radius,
                 const broadcast::BucketRetrieval& retrieval,
                 const std::vector<broadcast::BucketInterval>* cover_buckets,
                 std::span<const spatial::PoiDistance> extra,
                 std::vector<int64_t>* ids, broadcast::CollectScratch* collect,
                 kernels::SlabScratch* slab, std::vector<spatial::Poi>* pois,
                 std::vector<spatial::PoiDistance>* neighbors) {
  if (cover_buckets != nullptr) {
    const geom::Rect mbr = geom::Circle{q, radius}.Mbr();
    pois->clear();
    auto skip = retrieval.skipped.begin();
    for (const broadcast::BucketInterval& run : *cover_buckets) {
      for (int64_t id = run.begin; id < run.end; ++id) {
        while (skip != retrieval.skipped.end() && *skip < id) ++skip;
        if (skip != retrieval.skipped.end() && *skip == id) continue;
        for (const spatial::Poi& poi :
             system.buckets()[static_cast<size_t>(id)].pois) {
          if (mbr.Contains(poi.pos)) pois->push_back(poi);
        }
      }
    }
    KnnOverPois(q, k, extra, false, slab, pois, neighbors);
    // Exact when the k-th neighbor lies within the radius: every delivered
    // POI at most that far lies in the MBR.
    if (neighbors->size() == static_cast<size_t>(k) &&
        neighbors->back().distance <= radius) {
      return;
    }
  }
  ids->clear();
  retrieval.AppendIds(ids);
  system.CollectPois(*ids, collect, pois);
  KnnOverPois(q, k, extra, true, slab, pois, neighbors);
}

void KnnOverPois(geom::Point q, int k,
                 std::span<const spatial::PoiDistance> extra,
                 bool pois_sorted_by_id, kernels::SlabScratch* slab,
                 std::vector<spatial::Poi>* pois,
                 std::vector<spatial::PoiDistance>* neighbors) {
  if (!pois_sorted_by_id || !extra.empty()) {
    for (const spatial::PoiDistance& c : extra) pois->push_back(c.poi);
    std::sort(pois->begin(), pois->end(),
              [](const spatial::Poi& a, const spatial::Poi& b) {
                return a.id < b.id;
              });
    pois->erase(std::unique(pois->begin(), pois->end()), pois->end());
  }
  spatial::BruteForceKnn(*pois, q, k, slab, neighbors);
}

}  // namespace lbsq::onair
