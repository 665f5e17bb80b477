#include "onair/onair_window.h"

#include <algorithm>

namespace lbsq::onair {

void AppendBucketsForCover(const broadcast::AirIndex& index,
                           const std::vector<hilbert::IndexRange>& cover,
                           WindowRetrieval retrieval,
                           std::vector<broadcast::BucketInterval>* out) {
  if (cover.empty()) return;
  if (retrieval == WindowRetrieval::kSingleSpan) {
    // Basic algorithm: one contiguous span from the first to the last curve
    // position inside the range (the "a to b" segment of the paper's
    // Figure 4).
    const broadcast::BucketInterval span =
        index.BucketsForSpan(cover.front().lo, cover.back().hi);
    if (span.size() > 0) out->push_back(span);
  } else {
    index.BucketsForRanges(cover, out);
  }
}

void AppendWindowPois(const broadcast::BroadcastSystem& system,
                      const geom::Rect& window,
                      const std::vector<hilbert::IndexRange>& window_cover,
                      const std::vector<broadcast::BucketInterval>& retrieved,
                      std::vector<broadcast::BucketInterval>* cover_buckets,
                      std::vector<spatial::Poi>* out) {
  cover_buckets->clear();
  system.index().BucketsForRanges(window_cover, cover_buckets);
  const std::vector<broadcast::BucketInterval>& a = *cover_buckets;
  const std::vector<broadcast::BucketInterval>& b = retrieved;
  const size_t first = out->size();
  // Both lists ascend and are disjoint: walk their common ids.
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int64_t end = std::min(a[i].end, b[j].end);
    for (int64_t id = std::max(a[i].begin, b[j].begin); id < end; ++id) {
      for (const spatial::Poi& poi :
           system.buckets()[static_cast<size_t>(id)].pois) {
        if (window.Contains(poi.pos)) out->push_back(poi);
      }
    }
    if (a[i].end < b[j].end) {
      ++i;
    } else {
      ++j;
    }
  }
  std::sort(out->begin() + static_cast<ptrdiff_t>(first), out->end(),
            [](const spatial::Poi& x, const spatial::Poi& y) {
              return x.id < y.id;
            });
}

broadcast::BucketRetrieval BucketsForWindow(
    const broadcast::BroadcastSystem& system, const geom::Rect& window,
    WindowRetrieval retrieval) {
  broadcast::BucketRetrieval out;
  AppendBucketsForCover(system.index(), system.grid().CoverRect(window),
                        retrieval, &out.intervals);
  return out;
}

OnAirWindowResult OnAirWindow(const broadcast::BroadcastSystem& system,
                              const geom::Rect& window, int64_t now,
                              WindowRetrieval retrieval) {
  OnAirWindowResult result;
  const std::vector<hilbert::IndexRange> cover =
      system.grid().CoverRect(window);
  AppendBucketsForCover(system.index(), cover, retrieval,
                        &result.retrieval.intervals);
  broadcast::IndexReadMode index_mode = broadcast::IndexReadMode::FlatDirectory();
  if (system.tree_index() != nullptr) {
    index_mode =
        broadcast::IndexReadMode::TreePaths(system.IndexReadBuckets(cover));
  }
  result.stats = broadcast::RetrieveBuckets(system.schedule(), now,
                                            result.retrieval, index_mode);
  std::vector<broadcast::BucketInterval> cover_buckets;
  AppendWindowPois(system, window, cover, result.retrieval.intervals,
                   &cover_buckets, &result.pois);
  return result;
}

}  // namespace lbsq::onair
