#include "core/sbwq.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/query_internal.h"
#include "fault/faulty_channel.h"
#include "kernels/kernels.h"

namespace lbsq::core {

void SbwqOptions::Validate() const {
  LBSQ_CHECK(retrieval == onair::WindowRetrieval::kSingleSpan ||
             retrieval == onair::WindowRetrieval::kPartitionedRanges);
}

namespace internal {

namespace {

// Sorts `*runs` by start and merges overlapping or adjacent intervals:
// the union as ascending, disjoint intervals.
void MergeIntervals(std::vector<broadcast::BucketInterval>* runs) {
  std::sort(runs->begin(), runs->end(),
            [](const broadcast::BucketInterval& a,
               const broadcast::BucketInterval& b) {
              return a.begin < b.begin;
            });
  size_t kept = 0;
  for (const broadcast::BucketInterval& run : *runs) {
    if (kept > 0 && run.begin <= (*runs)[kept - 1].end) {
      (*runs)[kept - 1].end = std::max((*runs)[kept - 1].end, run.end);
    } else {
      (*runs)[kept++] = run;
    }
  }
  runs->resize(kept);
}

}  // namespace

void RunSbwq(const geom::Rect& window, const SbwqOptions& options,
             std::span<const PeerData> peers,
             const broadcast::BroadcastSystem& system, int64_t now,
             obs::TraceRecorder* trace, bool per_bucket,
             fault::ChannelSession* faults, QueryWorkspace& ws,
             SbwqOutcome* out) {
  options.Validate();
  LBSQ_CHECK(!window.empty());
  SbwqOutcome& outcome = *out;
  outcome.Reset();

  // Merge peer verified regions and pool the shared POIs that overlap w
  // (the pool is assembled directly in the outcome's poi storage; the
  // containment scan runs through the SIMD window-mask kernel).
  std::vector<spatial::Poi>& pool = outcome.pois;
  for (const PeerData& peer : peers) {
    for (const VerifiedRegion& vr : peer.regions) {
      outcome.mvr.Add(vr.region, &ws.region_scratch);
      const size_t n = vr.pois.size();
      ws.slab.slab.Assign(vr.pois.data(), n);
      uint32_t* idx = ws.slab.IdxFor(n);
      const size_t m =
          kernels::SelectInWindow(ws.slab.slab.xs(), ws.slab.slab.ys(), n,
                                  window.x1, window.y1, window.x2, window.y2,
                                  idx);
      for (size_t j = 0; j < m; ++j) pool.push_back(vr.pois[idx[j]]);
    }
  }
  // Everything pooled from here on is server content — sorted by id and
  // free of duplicates — so the canonicalizing sort below is only needed
  // when the peers contributed.
  const size_t peer_pool_size = pool.size();

  // Residual windows w' = w \ MVR.
  outcome.mvr.SubtractFrom(window, &outcome.residual_windows,
                           &ws.region_scratch);
  double residual_area = 0.0;
  for (const geom::Rect& r : outcome.residual_windows) {
    residual_area += r.area();
  }
  outcome.residual_fraction =
      window.area() > 0.0 ? residual_area / window.area() : 0.0;
  if (trace != nullptr) {
    // MVR merge and subtraction are pure computation (instantaneous in
    // broadcast time); the counter carries the coverage outcome.
    trace->Span("sbwq.mvr", now, now);
    trace->Counter("sbwq.residual_fraction", outcome.residual_fraction);
  }

  if (outcome.residual_windows.empty()) {
    // w lies inside the MVR: the pooled data is complete for w.
    outcome.resolved_by_peers = true;
    if (trace != nullptr) trace->Counter("sbwq.peers_resolved", 1.0);
  } else {
    // Solve the residual window(s) on air. Without window reduction the
    // baseline retrieves the whole original window.
    const broadcast::AirIndex& index = system.index();
    const bool tree = system.tree_index() != nullptr;
    broadcast::BucketRetrieval& retrieval = outcome.retrieval;
    // Without faults the answer comes from the window's cover (below), so
    // it is computed once and reused for a region equal to the window.
    if (!per_bucket) system.grid().CoverRect(window, &ws.window_cover);
    ws.lookups.clear();
    const auto retrieve_region = [&](const geom::Rect& region) {
      const std::vector<hilbert::IndexRange>* cover = &ws.window_cover;
      if (per_bucket || !(region == window)) {
        system.grid().CoverRect(region, &ws.cover);
        cover = &ws.cover;
      }
      if (tree) {
        ws.lookups.insert(ws.lookups.end(), cover->begin(), cover->end());
      }
      onair::AppendBucketsForCover(index, *cover, options.retrieval,
                                   &retrieval.intervals);
    };
    if (options.use_window_reduction) {
      for (const geom::Rect& residual : outcome.residual_windows) {
        retrieve_region(residual);
      }
    } else {
      retrieve_region(window);
    }
    MergeIntervals(&retrieval.intervals);
    broadcast::IndexReadMode index_mode =
        broadcast::IndexReadMode::FlatDirectory();
    if (tree) {
      index_mode = broadcast::IndexReadMode::TreePaths(
          system.IndexReadBuckets(ws.lookups));
    }

    const std::vector<int64_t>* received = &ws.needed;
    ws.needed.clear();
    if (faults != nullptr && faults->channel_enabled()) {
      retrieval.AppendIds(&ws.needed);
      fault::FaultyRetrievalResult r =
          faults->Retrieve(system.schedule(), now, ws.needed, index_mode,
                           trace);
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
      if (per_bucket) retrieval.AppendIds(&ws.needed);
    }
    if (trace != nullptr) {
      trace->Span("sbwq.fallback", now, now + outcome.stats.access_latency);
    }
    if (!per_bucket) {
      onair::AppendWindowPois(system, window, ws.window_cover,
                              retrieval.intervals, &ws.cover_buckets, &pool);
    } else {
      // With any fault: every bucket the channel delivered.
      system.CollectPois(*received, &ws.collect_scratch, &ws.known_pois);
      const size_t n = ws.known_pois.size();
      ws.slab.slab.Assign(ws.known_pois.data(), n);
      uint32_t* idx = ws.slab.IdxFor(n);
      const size_t m =
          kernels::SelectInWindow(ws.slab.slab.xs(), ws.slab.slab.ys(), n,
                                  window.x1, window.y1, window.x2, window.y2,
                                  idx);
      for (size_t j = 0; j < m; ++j) pool.push_back(ws.known_pois[idx[j]]);
    }
  }

  if (peer_pool_size > 0) {
    std::sort(pool.begin(), pool.end(),
              [](const spatial::Poi& a, const spatial::Poi& b) {
                return a.id < b.id;
              });
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  }
  // Both resolution paths end with complete knowledge of the window — except
  // when the retrieval degraded, in which case caching the window would
  // poison the peer network with a false completeness claim.
  if (!outcome.degraded) {
    outcome.cacheable.region = window;
    outcome.cacheable.pois = outcome.pois;
  }
}

}  // namespace internal
}  // namespace lbsq::core
