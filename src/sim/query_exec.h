#ifndef LBSQ_SIM_QUERY_EXEC_H_
#define LBSQ_SIM_QUERY_EXEC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/metrics_registry.h"
#include "common/observability.h"
#include "core/query_engine.h"
#include "core/query_workspace.h"
#include "core/sharded_query_engine.h"
#include "core/verified_region.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "spatial/grid_index.h"

/// \file
/// Single-query execution and metric accounting shared by the sequential
/// and the parallel simulation engines. Each function computes over
/// immutable inputs (the query engine, a peer snapshot, a peer grid) and the
/// calling thread's own scratch and fleet replica, so the parallel engine
/// can call them from worker threads without locks;
/// the accumulate functions perform the metric updates in one fixed order,
/// so folding per-event results in event order yields bitwise-identical
/// `SimMetrics` — and byte-identical trace output — regardless of how
/// events were partitioned across threads.

namespace lbsq::sim {

/// The engine options a SimConfig prescribes (the one translation point
/// between simulation knobs and core query options).
core::EngineOptions EngineOptionsFromConfig(const SimConfig& config);

/// Result of one kNN query: the SBNN outcome, its oracle verdict, and the
/// pure on-air baseline cost (computed only for measured queries).
struct KnnQueryResult {
  core::SbnnOutcome outcome;
  /// Answer matches the brute-force oracle (distance-wise).
  bool exact = false;
  int64_t baseline_latency = 0;
  int64_t baseline_tuning = 0;
  /// Peer regions the defensive screen rejected (0 unless screening on).
  int64_t regions_rejected = 0;

  /// The placeholder outcome needs a valid heap capacity (>= 1); it is
  /// overwritten by ExecuteKnnQuery before anyone reads it.
  KnnQueryResult() : outcome(1) {}
};

/// Result of one window query (see KnnQueryResult).
struct WindowQueryResult {
  core::SbwqOutcome outcome;
  bool exact = false;
  int64_t baseline_latency = 0;
  int64_t baseline_tuning = 0;
  /// Peer regions the defensive screen rejected (0 unless screening on).
  int64_t regions_rejected = 0;
};

/// Runs SBNN through `engine` for one query, checks it against the
/// brute-force oracle (aborting via LBSQ_CHECK under `config.check_answers`
/// for exact-path answers; the check is waived while fault injection is
/// enabled, since degraded or peer-corrupted answers may legitimately
/// differ), and — when `measured` — prices the pure on-air baseline. A
/// non-null `trace` receives the query's span/counter events.
/// `query_id` is the global event index: it keys the per-query fault
/// streams (peer corruption and channel schedule), making fault outcomes
/// independent of thread count. Thread-safe: reads only immutable state
/// plus the caller's own `workspace` — pass one per worker thread to reuse
/// query scratch across events (null falls back to transient buffers;
/// results are bit-identical either way).
KnnQueryResult ExecuteKnnQuery(const SimConfig& config,
                               const core::QueryEngine& engine,
                               geom::Point pos, int k, int64_t slot,
                               std::vector<core::PeerData> peers,
                               bool measured, int64_t query_id = 0,
                               obs::TraceRecorder* trace = nullptr,
                               core::QueryWorkspace* workspace = nullptr);

/// Window-query counterpart of ExecuteKnnQuery.
WindowQueryResult ExecuteWindowQuery(const SimConfig& config,
                                     const core::QueryEngine& engine,
                                     const geom::Rect& window, int64_t slot,
                                     std::vector<core::PeerData> peers,
                                     bool measured, int64_t query_id = 0,
                                     obs::TraceRecorder* trace = nullptr,
                                     core::QueryWorkspace* workspace = nullptr);

/// Sharded-deployment counterpart of ExecuteKnnQuery (config.shards > 1):
/// the query runs through the multi-shard engine and its merged outcome is
/// checked against a brute-force oracle over `oracle_pois` — the *global*
/// POI set of the pinned epoch, which the sharded engine does not hold in
/// one place. The baseline is a peerless re-execution on the same sharded
/// deployment (the multi-channel on-air cost, with the merged latency = max
/// / tuning = sum conventions), priced only for measured queries. Fault
/// injection is structurally off at N > 1, so unlike the single-channel
/// path no peer corruption is applied. Thread-safe under one `workspace`
/// per worker.
KnnQueryResult ExecuteKnnQuery(const SimConfig& config,
                               const core::ShardedQueryEngine& engine,
                               const std::vector<spatial::Poi>& oracle_pois,
                               geom::Point pos, int k, int64_t slot,
                               std::vector<core::PeerData> peers, bool measured,
                               int64_t query_id, obs::TraceRecorder* trace,
                               core::ShardedQueryWorkspace& workspace);

/// Sharded-deployment counterpart of ExecuteWindowQuery.
WindowQueryResult ExecuteWindowQuery(
    const SimConfig& config, const core::ShardedQueryEngine& engine,
    const std::vector<spatial::Poi>& oracle_pois, const geom::Rect& window,
    int64_t slot, std::vector<core::PeerData> peers, bool measured,
    int64_t query_id, obs::TraceRecorder* trace,
    core::ShardedQueryWorkspace& workspace);

/// Records a measured kNN query into `metrics` (counters, resolved-by
/// breakdown, latency/tuning accumulators) in the canonical order. A
/// non-null `registry` additionally receives histogram observations
/// (`access_latency`, `tuning_time`, `access_latency_all`, `buckets_read`,
/// `buckets_skipped`, `baseline_latency`) and the resolved-by counters.
void AccumulateKnn(const KnnQueryResult& result, SimMetrics* metrics,
                   MetricsRegistry* registry = nullptr);

/// Records a measured window query into `metrics` (see AccumulateKnn; the
/// window-specific histogram is `residual_fraction`).
void AccumulateWindow(const WindowQueryResult& result, SimMetrics* metrics,
                      MetricsRegistry* registry = nullptr);

/// The cache-completeness invariant of one cache entry (check_cache_invariant
/// mode), checked by brute force against `epoch_pois`, the POI database of
/// the epoch the entry was verified on: every POI inside the entry's region
/// must be cached, and every cached POI must lie inside the region. Aborts
/// via LBSQ_CHECK on a violation.
void CheckCacheCompleteness(const core::VerifiedRegion& entry,
                            const std::vector<spatial::Poi>& epoch_pois);

/// Buffers of GatherPeers, reused across the queries of one thread. Hosts
/// are marked visited by stamping them with the query's stamp, so no
/// per-query clearing is needed.
struct PeerSearchScratch {
  std::vector<uint32_t> visited;
  uint32_t stamp = 0;
  std::vector<int64_t> frontier;
  std::vector<int64_t> next;
  std::vector<int64_t> reached;
  std::vector<int64_t> found;
  spatial::GridIndex::MovedScratch disc;
};

/// Breadth-first flood over the radio connectivity graph from `querier` up
/// to `hops` (1 = the paper's single-hop sharing), collecting the non-empty
/// shared data of every reached host via `share`. `position(id)` is host
/// `id`'s current position; every disc is centred on its frontier host's
/// current position. `peer_index` may be older than those positions by at
/// most `slack` of travel per host (GridIndex::QueryDiscMoved), so each hop
/// finds exactly the hosts, in exactly the order, of an index rebuilt from
/// the current positions. Returns the number of reached hosts (including
/// ones with nothing to share).
int GatherPeers(const spatial::GridIndex& peer_index, double slack,
                const std::function<geom::Point(int64_t)>& position,
                int64_t querier, double tx_range, int hops,
                const std::function<core::PeerData(int64_t)>& share,
                PeerSearchScratch* scratch, std::vector<core::PeerData>* out);

/// GatherPeers over an index built from `positions` (slack 0), with
/// transient scratch.
int GatherPeers(const spatial::GridIndex& peer_index,
                const std::vector<geom::Point>& positions, int64_t querier,
                double tx_range, int hops,
                const std::function<core::PeerData(int64_t)>& share,
                std::vector<core::PeerData>* out);

}  // namespace lbsq::sim

#endif  // LBSQ_SIM_QUERY_EXEC_H_
