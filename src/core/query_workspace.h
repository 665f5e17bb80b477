#ifndef LBSQ_CORE_QUERY_WORKSPACE_H_
#define LBSQ_CORE_QUERY_WORKSPACE_H_

#include <cstdint>
#include <vector>

#include "broadcast/system.h"
#include "core/query_engine.h"
#include "core/verified_region.h"
#include "geom/rect_region.h"
#include "hilbert/hilbert.h"
#include "kernels/poi_slab.h"
#include "spatial/poi.h"

/// \file
/// Per-thread scratch state for query execution. A `QueryWorkspace` owns
/// every transient buffer SBNN/SBWQ/NNV need (candidate pools, the search
/// region's Hilbert cover and its bucket intervals, bucket id lists, the
/// merged-POI arena, the k-th-bound buffers), so steady-state execution
/// through `QueryEngine::Execute(request, workspace, outcome)` /
/// `ExecuteBatch` performs zero heap allocations once the buffers have
/// grown to the largest query seen.
///
/// Nothing is memoized across queries: each query's cover and intervals are
/// recomputed into grow-only scratch, at a cost that follows its search
/// region. (A broadcast-cycle memo of covers once lived here, but queries
/// almost never repeat a cover; EXPERIMENTS.md has the hit rates.)
///
/// A workspace is NOT thread-safe: give each worker thread its own. Results
/// are bitwise identical to workspace-free execution — reuse changes cost,
/// never content.

namespace lbsq::core {

/// Reusable scratch for one execution thread (see file comment).
class QueryWorkspace {
 public:
  QueryWorkspace() = default;
  QueryWorkspace(const QueryWorkspace&) = delete;
  QueryWorkspace& operator=(const QueryWorkspace&) = delete;
  // Movable so owners (e.g. a simulator's per-worker state) can live in
  // containers; moving between Execute calls is safe, sharing is not.
  QueryWorkspace(QueryWorkspace&&) = default;
  QueryWorkspace& operator=(QueryWorkspace&&) = default;

  /// Outcome storage for ExecuteBatch: grows to the largest batch seen and
  /// never shrinks, so repeated batches reuse every inner buffer.
  std::vector<QueryOutcome>& outcome_arena() { return outcomes_; }

  // --- Scratch buffers (owned here so the per-query hot path never
  // allocates once capacities are warm; each use clears before filling).
  /// NNV candidate-merge pool.
  std::vector<spatial::Poi> nnv_pool;
  /// SBNN known-POI assembly arena (downloaded buckets + peer candidates).
  std::vector<spatial::Poi> known_pois;
  /// Hilbert cover of the current search region (SBNN search MBR, SBWQ
  /// residual or window).
  std::vector<hilbert::IndexRange> cover;
  /// Hilbert cover of the SBWQ query window.
  std::vector<hilbert::IndexRange> window_cover;
  /// Bucket intervals of a cover (the buckets answers are collected from).
  std::vector<broadcast::BucketInterval> cover_buckets;
  /// Bucket ids to collect POIs from, or to retrieve over a faulty channel.
  std::vector<int64_t> needed;
  /// Buckets actually received on the faulty-channel path.
  std::vector<int64_t> retrieved;
  /// Curve-interval lookups for tree-index reads.
  std::vector<hilbert::IndexRange> lookups;
  /// Peer snapshot surviving the defensive screen.
  std::vector<PeerData> screened;
  /// Transient buffers for the MVR geometry kernels (merge, subtract,
  /// boundary distance).
  geom::RectRegionScratch region_scratch;
  /// Cover and distance buffers for AirIndex::KthDistanceUpperBound.
  broadcast::KthBoundScratch kth_bound;
  /// SoA slab + distance/index buffers for the SIMD hot-loop kernels
  /// (BruteForceKnn, NNV candidate distances, window selections).
  kernels::SlabScratch slab;
  /// Merge state for `BroadcastSystem::CollectPois` (cursor heap +
  /// canonicalized bucket list) — per-workspace like every other scratch so
  /// its capacity is visible to the alloc counter instead of hiding in TLS.
  broadcast::CollectScratch collect_scratch;

 private:
  std::vector<QueryOutcome> outcomes_;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_QUERY_WORKSPACE_H_
