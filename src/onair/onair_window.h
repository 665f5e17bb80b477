#ifndef LBSQ_ONAIR_ONAIR_WINDOW_H_
#define LBSQ_ONAIR_ONAIR_WINDOW_H_

#include <cstdint>
#include <vector>

#include "broadcast/client_protocol.h"
#include "broadcast/system.h"
#include "geom/rect.h"
#include "spatial/poi.h"

/// \file
/// The on-air window-query baseline (after Zheng, Lee & Lee): find the first
/// point `a` and last point `b` of the query window along the Hilbert curve
/// and download every bucket between them, filtering out objects outside the
/// window. The optional search-space partition refinement downloads only the
/// buckets overlapping the exact Hilbert interval cover of the window.

namespace lbsq::onair {

/// Retrieval strategy for the on-air window query.
enum class WindowRetrieval {
  /// One contiguous span from a to b (the basic algorithm).
  kSingleSpan,
  /// The exact interval cover of the window (the partition refinement the
  /// paper mentions as still insufficient without sharing).
  kPartitionedRanges,
};

/// Result of an on-air window query.
struct OnAirWindowResult {
  /// Exactly the POIs inside the window, sorted by id.
  std::vector<spatial::Poi> pois;
  /// Broadcast cost of the retrieval.
  broadcast::AccessStats stats;
  /// Buckets downloaded.
  broadcast::BucketRetrieval retrieval;
};

/// Executes an on-air window query for `window` issued at slot `now`.
OnAirWindowResult OnAirWindow(const broadcast::BroadcastSystem& system,
                              const geom::Rect& window, int64_t now,
                              WindowRetrieval retrieval =
                                  WindowRetrieval::kSingleSpan);

/// The buckets the chosen retrieval strategy downloads for `window`.
broadcast::BucketRetrieval BucketsForWindow(
    const broadcast::BroadcastSystem& system, const geom::Rect& window,
    WindowRetrieval retrieval);

/// Appends to `*out` what the chosen strategy downloads for a region whose
/// Hilbert cover is `cover`: the one bucket interval spanning the cover, or
/// the intervals of the cover's own buckets (ascending and disjoint among
/// themselves). Allocation-free once `*out` has the capacity.
void AppendBucketsForCover(const broadcast::AirIndex& index,
                           const std::vector<hilbert::IndexRange>& cover,
                           WindowRetrieval retrieval,
                           std::vector<broadcast::BucketInterval>* out);

/// Appends to `*out`, sorted by id, the POIs inside `window` that a client
/// downloading the buckets of `retrieved` (ascending, disjoint intervals)
/// receives. Every POI inside the window lies in a bucket of the window's
/// cover `window_cover`, so only the retrieved buckets of that cover are
/// read. `*cover_buckets` is scratch (cleared and refilled).
void AppendWindowPois(const broadcast::BroadcastSystem& system,
                      const geom::Rect& window,
                      const std::vector<hilbert::IndexRange>& window_cover,
                      const std::vector<broadcast::BucketInterval>& retrieved,
                      std::vector<broadcast::BucketInterval>* cover_buckets,
                      std::vector<spatial::Poi>* out);

}  // namespace lbsq::onair

#endif  // LBSQ_ONAIR_ONAIR_WINDOW_H_
