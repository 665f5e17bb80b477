#include "core/sbnn.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/query_internal.h"
#include "fault/faulty_channel.h"
#include "geom/circle.h"
#include "kernels/kernels.h"
#include "onair/onair_knn.h"
#include "onair/onair_window.h"

namespace lbsq::core {

void SbnnOptions::Validate() const {
  LBSQ_CHECK(k >= 1);
  LBSQ_CHECK(min_correctness >= 0.0 && min_correctness <= 1.0);
  LBSQ_CHECK(prefetch_radius_factor >= 1.0);
}

namespace internal {

namespace {

// Converts heap entries into the result representation.
void HeapToNeighbors(const ResultHeap& heap,
                     std::vector<spatial::PoiDistance>* out) {
  out->clear();
  out->reserve(heap.entries().size());
  for (const HeapEntry& e : heap.entries()) {
    out->push_back(spatial::PoiDistance{e.poi, e.distance});
  }
}

// True when every unverified entry clears the correctness threshold.
bool ApproximateAcceptable(const ResultHeap& heap, double min_correctness) {
  for (const HeapEntry& e : heap.entries()) {
    if (!e.verified && e.correctness < min_correctness) return false;
  }
  return true;
}

// The square inscribed in the disc of the last verified entry: every server
// POI inside it is among the verified prefix, so the pair (square, verified
// POIs inside it) satisfies the cache completeness invariant.
void CacheableFromVerifiedPrefix(geom::Point q, const ResultHeap& heap,
                                 VerifiedRegion* vr) {
  vr->Clear();
  const auto lower = heap.LowerBound();
  if (!lower.has_value() || *lower <= 0.0) return;
  // Shrink a hair below the inscribed square so distance ties with POIs that
  // did not fit in the heap (and square-corner contacts) stay outside.
  vr->region = geom::Rect::CenteredSquare(
      q, *lower / std::sqrt(2.0) * (1.0 - 1e-9));
  vr->pois.reserve(heap.entries().size());
  for (const HeapEntry& e : heap.entries()) {
    if (e.verified && vr->region.Contains(e.poi.pos)) vr->pois.push_back(e.poi);
  }
}

}  // namespace

void RunSbnn(geom::Point q, const SbnnOptions& options,
             std::span<const PeerData> peers, double poi_density,
             const broadcast::BroadcastSystem& system, int64_t now,
             obs::TraceRecorder* trace, bool per_bucket,
             fault::ChannelSession* faults, QueryWorkspace& ws,
             SbnnOutcome* out) {
  options.Validate();
  SbnnOutcome& outcome = *out;
  outcome.Reset(options.k);
  NearestNeighborVerify(q, options.k, peers, poi_density, &ws.nnv_pool,
                        &outcome.nnv, &ws.region_scratch, &ws.slab);
  const ResultHeap& heap = outcome.nnv.heap;
  if (trace != nullptr) {
    // NNV is pure computation: the span is instantaneous in broadcast time;
    // its cost shows in the counters.
    trace->Span("sbnn.nnv", now, now);
    trace->Counter("sbnn.candidates",
                   static_cast<double>(outcome.nnv.candidate_count));
    trace->Counter("sbnn.verified",
                   static_cast<double>(heap.verified_count()));
  }

  if (heap.fully_verified()) {
    outcome.resolved_by = ResolvedBy::kPeersVerified;
    HeapToNeighbors(heap, &outcome.neighbors);
    CacheableFromVerifiedPrefix(q, heap, &outcome.cacheable);
    if (trace != nullptr) trace->Counter("sbnn.peers_verified", 1.0);
    return;
  }
  if (options.accept_approximate && heap.full() &&
      ApproximateAcceptable(heap, options.min_correctness)) {
    outcome.resolved_by = ResolvedBy::kPeersApproximate;
    HeapToNeighbors(heap, &outcome.neighbors);
    CacheableFromVerifiedPrefix(q, heap, &outcome.cacheable);
    if (trace != nullptr) trace->Counter("sbnn.approx_accept", 1.0);
    return;
  }

  // Broadcast fallback with §3.3.3 data filtering.
  outcome.resolved_by = ResolvedBy::kBroadcast;

  // Search upper bound. The paper's client uses the k-th heap entry when H
  // is full (states 1, 2) and the index-derived bound otherwise; with
  // tighten_with_index_bound both bounds apply (their minimum is sound).
  const auto upper = heap.UpperBound();
  double radius;
  if (options.use_filtering && upper.has_value() &&
      !options.tighten_with_index_bound) {
    radius = *upper;
  } else {
    radius = system.index().KthDistanceUpperBound(q, options.k,
                                                  &ws.kth_bound);
    if (!std::isfinite(radius)) {
      radius = system.grid().world().MaxDistance(q);
    }
    if (options.use_filtering && upper.has_value()) {
      radius = std::min(radius, *upper);
    }
  }
  radius *= options.prefetch_radius_factor;

  // The paper's client retrieves one span: the bucket interval from the
  // first to the last curve position of the search MBR's cover (as
  // onair::OnAirKnn does).
  const geom::Rect search_mbr = geom::Circle{q, radius}.Mbr();
  const broadcast::AirIndex& index = system.index();
  system.grid().CoverRect(search_mbr, &ws.cover);
  broadcast::BucketRetrieval& retrieval = outcome.retrieval;
  onair::AppendBucketsForCover(index, ws.cover,
                               onair::WindowRetrieval::kSingleSpan,
                               &retrieval.intervals);
  // Without faults the answer is assembled from the cover's buckets only
  // (onair::KnnFromSpan): they hold every server POI inside the search MBR,
  // and the span's other buckets hold nothing within the search radius.
  // Any fault keeps the per-bucket path over the whole span — losses are
  // drawn per bucket, and a corrupted peer POI can share its id with a
  // server POI anywhere in the span.
  const bool from_cover = !per_bucket;
  if (from_cover) {
    ws.cover_buckets.clear();
    index.BucketsForRanges(ws.cover, &ws.cover_buckets);
  }

  // Search lower bound: packets fully covered by the circle C_i of radius
  // d_v (the last verified entry) hold only objects the peers already
  // supplied (states 1, 3, 4). While d_v is at most the search radius, such
  // a packet lies in the search circle, so only the cover's buckets need
  // the test.
  const auto lower = heap.LowerBound();
  if (options.use_filtering && lower.has_value()) {
    const geom::Circle known{q, *lower};
    const std::vector<broadcast::BucketInterval>& candidates =
        from_cover && *lower <= radius ? ws.cover_buckets
                                       : retrieval.intervals;
    for (const broadcast::BucketInterval& run : candidates) {
      for (int64_t id = run.begin; id < run.end; ++id) {
        if (known.ContainsRect(system.buckets()[static_cast<size_t>(id)].mbr)) {
          retrieval.skipped.push_back(id);
        }
      }
    }
    outcome.buckets_skipped = static_cast<int64_t>(retrieval.skipped.size());
  }

  broadcast::IndexReadMode index_mode =
      broadcast::IndexReadMode::FlatDirectory();
  if (system.tree_index() != nullptr) {
    index_mode =
        broadcast::IndexReadMode::TreePaths(system.IndexReadBuckets(ws.cover));
  }
  const std::vector<int64_t>* received = nullptr;
  if (faults != nullptr && faults->channel_enabled()) {
    ws.needed.clear();
    retrieval.AppendIds(&ws.needed);
    fault::FaultyRetrievalResult r =
        faults->Retrieve(system.schedule(), now, ws.needed, index_mode, trace);
    outcome.stats = r.stats;
    outcome.fault_losses = r.losses;
    outcome.fault_corruptions = r.corruptions;
    outcome.fault_deadline_hit = r.deadline_hit;
    if (!r.complete()) {
      outcome.degraded = true;
      outcome.failed_buckets = std::move(r.failed);
    }
    ws.retrieved = std::move(r.received);
    received = &ws.retrieved;
  } else {
    outcome.stats = broadcast::RetrieveBuckets(system.schedule(), now,
                                               retrieval, index_mode, trace);
  }
  if (trace != nullptr) {
    trace->Span("sbnn.fallback", now, now + outcome.stats.access_latency);
    trace->Counter("sbnn.buckets_skipped",
                   static_cast<double>(outcome.buckets_skipped));
  }

  // Answers from the server POIs received plus everything the peers
  // supplied (which covers any packets the filter skipped).
  if (received != nullptr) {
    system.CollectPois(*received, &ws.collect_scratch, &ws.known_pois);
    onair::KnnOverPois(q, options.k, outcome.nnv.candidates, true, &ws.slab,
                       &ws.known_pois, &outcome.neighbors);
  } else {
    onair::KnnFromSpan(system, q, options.k, radius, retrieval,
                       from_cover ? &ws.cover_buckets : nullptr,
                       outcome.nnv.candidates, &ws.needed,
                       &ws.collect_scratch, &ws.slab, &ws.known_pois,
                       &outcome.neighbors);
  }

  // Every cell intersecting the search MBR is covered by a bucket that was
  // either downloaded or skipped-as-peer-known, so the client now has
  // complete knowledge of the MBR. A degraded retrieval breaks that chain:
  // the cacheable region stays empty — never cache unverified knowledge.
  if (!outcome.degraded) {
    outcome.cacheable.region = search_mbr;
    // The kNN left ws.slab.slab holding the SoA transpose of known_pois;
    // one window-mask pass sizes and selects the contained set.
    const size_t n = ws.known_pois.size();
    uint32_t* idx = ws.slab.IdxFor(n);
    const size_t contained = kernels::SelectInWindow(
        ws.slab.slab.xs(), ws.slab.slab.ys(), n, search_mbr.x1, search_mbr.y1,
        search_mbr.x2, search_mbr.y2, idx);
    outcome.cacheable.pois.reserve(contained);
    for (size_t j = 0; j < contained; ++j) {
      outcome.cacheable.pois.push_back(ws.known_pois[idx[j]]);
    }
  }
}

}  // namespace internal
}  // namespace lbsq::core
