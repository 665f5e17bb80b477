#include "sim/query_exec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "fault/peer_faults.h"
#include "kernels/poi_slab.h"
#include "onair/onair_knn.h"
#include "onair/onair_window.h"
#include "spatial/generators.h"

namespace lbsq::sim {

namespace {

// Applies the configured peer-data corruption on the querier's copy of the
// gathered peer data, drawing from the query's own fault stream.
void MaybeCorruptPeers(const core::QueryEngine& engine, int64_t query_id,
                       std::vector<core::PeerData>* peers) {
  const fault::FaultConfig& fault = engine.options().fault;
  if (!fault.enabled() || !fault.peer.enabled()) return;
  Rng rng(fault::PeerStreamSeed(fault.seed, static_cast<uint64_t>(query_id)));
  fault::CorruptPeerData(fault.peer, &rng, peers);
}

// The kind-independent tail of the SimMetrics update (baselines, fault and
// screening bookkeeping), in the canonical order — called after the
// kind-specific accumulators so the overall update sequence is unchanged.
void AccumulateCommonMetrics(const core::QueryResultCommon& common,
                             int64_t baseline_latency, int64_t baseline_tuning,
                             int64_t regions_rejected, SimMetrics* metrics) {
  metrics->baseline_latency.Add(static_cast<double>(baseline_latency));
  metrics->baseline_tuning.Add(static_cast<double>(baseline_tuning));
  if (common.degraded) ++metrics->degraded_queries;
  metrics->fault_losses += common.fault_losses;
  metrics->fault_corruptions += common.fault_corruptions;
  if (common.fault_deadline_hit) ++metrics->fault_deadline_hits;
  metrics->regions_rejected += regions_rejected;
}

// Registry counterpart of AccumulateCommonMetrics. Fault counters only
// materialize on fault activity, so the registry's exported metrics stay
// identical when injection is disabled.
void AccumulateCommonRegistry(const core::QueryResultCommon& common,
                              int64_t baseline_latency,
                              int64_t regions_rejected,
                              MetricsRegistry* registry) {
  registry->Observe("baseline_latency",
                    static_cast<double>(baseline_latency));
  if (common.degraded) registry->IncrementCounter("degraded_queries");
  if (common.fault_losses > 0) {
    registry->IncrementCounter("fault_losses", common.fault_losses);
  }
  if (common.fault_corruptions > 0) {
    registry->IncrementCounter("fault_corruptions", common.fault_corruptions);
  }
  if (common.fault_deadline_hit) {
    registry->IncrementCounter("fault_deadline_hits");
  }
  if (regions_rejected > 0) {
    registry->IncrementCounter("regions_rejected", regions_rejected);
  }
}

}  // namespace

core::EngineOptions EngineOptionsFromConfig(const SimConfig& config) {
  core::EngineOptions options;
  options.sbnn.k = std::max(1, static_cast<int>(config.params.knn_k));
  options.sbnn.accept_approximate = config.accept_approximate;
  options.sbnn.min_correctness = config.min_correctness;
  options.sbnn.use_filtering = config.use_filtering;
  options.sbnn.tighten_with_index_bound = config.tighten_with_index_bound;
  options.sbnn.prefetch_radius_factor = config.prefetch_radius_factor;
  options.sbwq.retrieval = config.retrieval;
  options.sbwq.use_window_reduction = config.use_window_reduction;
  options.fault = config.fault;
  return options;
}

KnnQueryResult ExecuteKnnQuery(const SimConfig& config,
                               const core::QueryEngine& engine,
                               geom::Point pos, int k, int64_t slot,
                               std::vector<core::PeerData> peers,
                               bool measured, int64_t query_id,
                               obs::TraceRecorder* trace,
                               core::QueryWorkspace* workspace) {
  const int k_eff = k > 0 ? k : engine.options().sbnn.k;
  MaybeCorruptPeers(engine, query_id, &peers);

  core::QueryRequest request;
  request.kind = core::QueryKind::kKnn;
  request.position = pos;
  request.k = k_eff;
  request.slot = slot;
  // `peers` (taken by value) backs the request's span for the duration of
  // the Execute call.
  request.peers = peers;
  request.trace = trace;
  request.fault_stream = static_cast<uint64_t>(query_id);

  KnnQueryResult result;
  core::QueryOutcome executed;
  if (workspace != nullptr) {
    engine.Execute(request, *workspace, &executed);
  } else {
    executed = engine.Execute(request);
  }
  result.outcome = std::move(*executed.knn);
  result.regions_rejected = executed.regions_rejected;

  // Correctness accounting against the brute-force oracle (every query).
  // With a per-worker workspace the oracle's distance scan over the full
  // POI set runs through that worker's slab kernels, allocation-free.
  std::vector<spatial::PoiDistance> truth;
  if (workspace != nullptr) {
    spatial::BruteForceKnn(engine.system().pois(), pos, k_eff,
                           &workspace->slab, &truth);
  } else {
    spatial::BruteForceKnn(engine.system().pois(), pos, k_eff, &truth);
  }
  bool exact = truth.size() == result.outcome.neighbors.size();
  for (size_t i = 0; exact && i < truth.size(); ++i) {
    // Compare distances (ids can differ under exact ties).
    exact = std::abs(truth[i].distance -
                     result.outcome.neighbors[i].distance) < 1e-9;
  }
  result.exact = exact;
  if (result.outcome.resolved_by != core::ResolvedBy::kPeersApproximate &&
      config.check_answers && !config.fault.enabled()) {
    LBSQ_CHECK(exact);
  }

  if (measured) {
    // What the pure on-air baseline would have cost for this query.
    const onair::OnAirKnnResult baseline =
        onair::OnAirKnn(engine.system(), pos, k_eff, slot);
    result.baseline_latency = baseline.stats.access_latency;
    result.baseline_tuning = baseline.stats.tuning_time;
  }
  return result;
}

WindowQueryResult ExecuteWindowQuery(const SimConfig& config,
                                     const core::QueryEngine& engine,
                                     const geom::Rect& window, int64_t slot,
                                     std::vector<core::PeerData> peers,
                                     bool measured, int64_t query_id,
                                     obs::TraceRecorder* trace,
                                     core::QueryWorkspace* workspace) {
  MaybeCorruptPeers(engine, query_id, &peers);

  core::QueryRequest request;
  request.kind = core::QueryKind::kWindow;
  request.window = window;
  request.slot = slot;
  request.peers = peers;
  request.trace = trace;
  request.fault_stream = static_cast<uint64_t>(query_id);

  WindowQueryResult result;
  core::QueryOutcome executed;
  if (workspace != nullptr) {
    engine.Execute(request, *workspace, &executed);
  } else {
    executed = engine.Execute(request);
  }
  result.outcome = std::move(*executed.window);
  result.regions_rejected = executed.regions_rejected;

  // Correctness accounting against the brute-force oracle (every query).
  std::vector<spatial::Poi> truth;
  if (workspace != nullptr) {
    spatial::BruteForceWindow(engine.system().pois(), window,
                              &workspace->slab, &truth);
  } else {
    kernels::SlabScratch scratch;
    spatial::BruteForceWindow(engine.system().pois(), window, &scratch,
                              &truth);
  }
  result.exact = truth == result.outcome.pois;
  if (config.check_answers && !config.fault.enabled()) {
    LBSQ_CHECK(result.exact);
  }

  if (measured) {
    const onair::OnAirWindowResult baseline = onair::OnAirWindow(
        engine.system(), window, slot, config.retrieval);
    result.baseline_latency = baseline.stats.access_latency;
    result.baseline_tuning = baseline.stats.tuning_time;
  }
  return result;
}

KnnQueryResult ExecuteKnnQuery(const SimConfig& config,
                               const core::ShardedQueryEngine& engine,
                               const std::vector<spatial::Poi>& oracle_pois,
                               geom::Point pos, int k, int64_t slot,
                               std::vector<core::PeerData> peers, bool measured,
                               int64_t query_id, obs::TraceRecorder* trace,
                               core::ShardedQueryWorkspace& workspace) {
  const int k_eff = k > 0 ? k : engine.options().sbnn.k;
  // No peer corruption: fault injection is structurally disallowed at
  // N > 1 (SimConfig::Validate), and a 1-shard sharded run must stay
  // byte-identical to the unsharded engine — which it is, since with fault
  // disabled MaybeCorruptPeers is a no-op there too.

  core::QueryRequest request;
  request.kind = core::QueryKind::kKnn;
  request.position = pos;
  request.k = k_eff;
  request.slot = slot;
  request.peers = peers;
  request.trace = trace;
  request.fault_stream = static_cast<uint64_t>(query_id);

  KnnQueryResult result;
  core::QueryOutcome executed;
  engine.Execute(request, workspace, &executed);
  result.outcome = std::move(*executed.knn);
  result.regions_rejected = executed.regions_rejected;

  // Correctness accounting against the brute-force oracle over the global
  // POI set (the sharded engine holds it only in per-shard pieces).
  std::vector<spatial::PoiDistance> truth;
  spatial::BruteForceKnn(oracle_pois, pos, k_eff, &truth);
  bool exact = truth.size() == result.outcome.neighbors.size();
  for (size_t i = 0; exact && i < truth.size(); ++i) {
    exact = std::abs(truth[i].distance -
                     result.outcome.neighbors[i].distance) < 1e-9;
  }
  result.exact = exact;
  if (result.outcome.resolved_by != core::ResolvedBy::kPeersApproximate &&
      config.check_answers) {
    LBSQ_CHECK(exact);
  }

  if (measured) {
    // The baseline is the same deployment queried peerlessly: the
    // multi-channel on-air cost, merged under the latency = max /
    // tuning = sum conventions.
    core::QueryRequest baseline = request;
    baseline.peers = {};
    baseline.trace = nullptr;
    core::QueryOutcome priced;
    engine.Execute(baseline, workspace, &priced);
    result.baseline_latency = priced.knn->stats.access_latency;
    result.baseline_tuning = priced.knn->stats.tuning_time;
  }
  return result;
}

WindowQueryResult ExecuteWindowQuery(
    const SimConfig& config, const core::ShardedQueryEngine& engine,
    const std::vector<spatial::Poi>& oracle_pois, const geom::Rect& window,
    int64_t slot, std::vector<core::PeerData> peers, bool measured,
    int64_t query_id, obs::TraceRecorder* trace,
    core::ShardedQueryWorkspace& workspace) {
  core::QueryRequest request;
  request.kind = core::QueryKind::kWindow;
  request.window = window;
  request.slot = slot;
  request.peers = peers;
  request.trace = trace;
  request.fault_stream = static_cast<uint64_t>(query_id);

  WindowQueryResult result;
  core::QueryOutcome executed;
  engine.Execute(request, workspace, &executed);
  result.outcome = std::move(*executed.window);
  result.regions_rejected = executed.regions_rejected;

  std::vector<spatial::Poi> truth;
  kernels::SlabScratch scratch;
  spatial::BruteForceWindow(oracle_pois, window, &scratch, &truth);
  result.exact = truth == result.outcome.pois;
  if (config.check_answers) {
    LBSQ_CHECK(result.exact);
  }

  if (measured) {
    core::QueryRequest baseline = request;
    baseline.peers = {};
    baseline.trace = nullptr;
    core::QueryOutcome priced;
    engine.Execute(baseline, workspace, &priced);
    result.baseline_latency = priced.window->stats.access_latency;
    result.baseline_tuning = priced.window->stats.tuning_time;
  }
  return result;
}

void AccumulateKnn(const KnnQueryResult& result, SimMetrics* metrics,
                   MetricsRegistry* registry) {
  const core::SbnnOutcome& outcome = result.outcome;
  ++metrics->queries;
  // Answer digest: ids + distance bit patterns in the canonical sorted
  // answer order, terminated by the answer size (so adjacent answers cannot
  // alias). Folded here — in event order — it witnesses shard-count
  // invariance of the answer plane.
  uint64_t digest = metrics->answer_digest;
  for (const spatial::PoiDistance& n : outcome.neighbors) {
    digest = DigestFold(digest, static_cast<uint64_t>(n.poi.id));
    digest = DigestFold(digest, std::bit_cast<uint64_t>(n.distance));
  }
  metrics->answer_digest =
      DigestFold(digest, static_cast<uint64_t>(outcome.neighbors.size()));
  metrics->verified_per_query.Add(outcome.nnv.heap.verified_count());
  if (outcome.resolved_by == core::ResolvedBy::kPeersApproximate) {
    if (result.exact) ++metrics->approx_exact;
  } else if (!result.exact && !outcome.degraded) {
    // Degraded queries are best-effort by contract; counting them as answer
    // errors would conflate channel failures with soundness bugs.
    ++metrics->answer_errors;
  }
  switch (outcome.resolved_by) {
    case core::ResolvedBy::kPeersVerified:
      ++metrics->solved_verified;
      break;
    case core::ResolvedBy::kPeersApproximate:
      ++metrics->solved_approximate;
      break;
    case core::ResolvedBy::kBroadcast:
      ++metrics->solved_broadcast;
      metrics->broadcast_latency.Add(
          static_cast<double>(outcome.stats.access_latency));
      metrics->broadcast_tuning.Add(
          static_cast<double>(outcome.stats.tuning_time));
      metrics->buckets_read.Add(
          static_cast<double>(outcome.stats.buckets_read));
      metrics->buckets_skipped.Add(
          static_cast<double>(outcome.buckets_skipped));
      break;
  }
  AccumulateCommonMetrics(outcome, result.baseline_latency,
                          result.baseline_tuning, result.regions_rejected,
                          metrics);

  if (registry != nullptr) {
    registry->IncrementCounter("queries");
    const bool broadcast =
        outcome.resolved_by == core::ResolvedBy::kBroadcast;
    registry->IncrementCounter(
        outcome.resolved_by == core::ResolvedBy::kPeersVerified
            ? "solved_verified"
            : outcome.resolved_by == core::ResolvedBy::kPeersApproximate
                  ? "solved_approximate"
                  : "solved_broadcast");
    if (broadcast) {
      registry->Observe("access_latency",
                        static_cast<double>(outcome.stats.access_latency));
      registry->Observe("tuning_time",
                        static_cast<double>(outcome.stats.tuning_time));
      registry->Observe("buckets_read",
                        static_cast<double>(outcome.stats.buckets_read));
      registry->Observe("buckets_skipped",
                        static_cast<double>(outcome.buckets_skipped));
    }
    // Peer hits count as zero-latency — the distribution behind the paper's
    // headline mean (MeanLatencyAllQueries).
    registry->Observe(
        "access_latency_all",
        broadcast ? static_cast<double>(outcome.stats.access_latency) : 0.0);
    AccumulateCommonRegistry(outcome, result.baseline_latency,
                             result.regions_rejected, registry);
  }
}

void AccumulateWindow(const WindowQueryResult& result, SimMetrics* metrics,
                      MetricsRegistry* registry) {
  const core::SbwqOutcome& outcome = result.outcome;
  ++metrics->queries;
  // See AccumulateKnn — window answers are id sets in canonical id order.
  uint64_t digest = metrics->answer_digest;
  for (const spatial::Poi& p : outcome.pois) {
    digest = DigestFold(digest, static_cast<uint64_t>(p.id));
  }
  metrics->answer_digest =
      DigestFold(digest, static_cast<uint64_t>(outcome.pois.size()));
  if (!result.exact && !outcome.degraded) ++metrics->answer_errors;
  metrics->residual_fraction.Add(outcome.residual_fraction);
  if (outcome.resolved_by_peers) {
    ++metrics->solved_verified;
  } else {
    ++metrics->solved_broadcast;
    metrics->broadcast_latency.Add(
        static_cast<double>(outcome.stats.access_latency));
    metrics->broadcast_tuning.Add(
        static_cast<double>(outcome.stats.tuning_time));
    metrics->buckets_read.Add(static_cast<double>(outcome.stats.buckets_read));
  }
  AccumulateCommonMetrics(outcome, result.baseline_latency,
                          result.baseline_tuning, result.regions_rejected,
                          metrics);

  if (registry != nullptr) {
    registry->IncrementCounter("queries");
    registry->IncrementCounter(outcome.resolved_by_peers ? "solved_verified"
                                                         : "solved_broadcast");
    registry->Observe("residual_fraction", outcome.residual_fraction);
    if (!outcome.resolved_by_peers) {
      registry->Observe("access_latency",
                        static_cast<double>(outcome.stats.access_latency));
      registry->Observe("tuning_time",
                        static_cast<double>(outcome.stats.tuning_time));
      registry->Observe("buckets_read",
                        static_cast<double>(outcome.stats.buckets_read));
    }
    registry->Observe(
        "access_latency_all",
        outcome.resolved_by_peers
            ? 0.0
            : static_cast<double>(outcome.stats.access_latency));
    AccumulateCommonRegistry(outcome, result.baseline_latency,
                             result.regions_rejected, registry);
  }
}

void CheckCacheCompleteness(const core::VerifiedRegion& entry,
                            const std::vector<spatial::Poi>& epoch_pois) {
  // Every server POI inside the region must be cached.
  for (const spatial::Poi& poi :
       spatial::BruteForceWindow(epoch_pois, entry.region)) {
    const bool present =
        std::any_of(entry.pois.begin(), entry.pois.end(),
                    [&poi](const spatial::Poi& p) { return p.id == poi.id; });
    LBSQ_CHECK(present);
  }
  // And nothing outside the region may be stored in this entry.
  for (const spatial::Poi& poi : entry.pois) {
    LBSQ_CHECK(entry.region.Contains(poi.pos));
  }
}

int GatherPeers(const spatial::GridIndex& peer_index, double slack,
                const std::function<geom::Point(int64_t)>& position,
                int64_t querier, double tx_range, int hops,
                const std::function<core::PeerData(int64_t)>& share,
                PeerSearchScratch* scratch, std::vector<core::PeerData>* out) {
  std::vector<uint32_t>& visited = scratch->visited;
  if (visited.size() < static_cast<size_t>(peer_index.size())) {
    visited.resize(static_cast<size_t>(peer_index.size()), 0);
  }
  if (++scratch->stamp == 0) {
    // The stamp wrapped: forget every earlier query's marks.
    std::fill(visited.begin(), visited.end(), 0);
    scratch->stamp = 1;
  }
  const uint32_t stamp = scratch->stamp;
  visited[static_cast<size_t>(querier)] = stamp;
  std::vector<int64_t>& frontier = scratch->frontier;
  std::vector<int64_t>& next = scratch->next;
  std::vector<int64_t>& reached = scratch->reached;
  frontier.assign(1, querier);
  reached.clear();
  for (int hop = 0; hop < hops && !frontier.empty(); ++hop) {
    next.clear();
    for (int64_t node : frontier) {
      scratch->found.clear();
      peer_index.QueryDiscMoved(position(node), tx_range, slack, position,
                                &scratch->disc, &scratch->found);
      for (int64_t id : scratch->found) {
        if (visited[static_cast<size_t>(id)] == stamp) continue;
        visited[static_cast<size_t>(id)] = stamp;
        next.push_back(id);
        reached.push_back(id);
      }
    }
    frontier.swap(next);
  }
  for (int64_t id : reached) {
    core::PeerData data = share(id);
    if (!data.empty()) out->push_back(std::move(data));
  }
  return static_cast<int>(reached.size());
}

int GatherPeers(const spatial::GridIndex& peer_index,
                const std::vector<geom::Point>& positions, int64_t querier,
                double tx_range, int hops,
                const std::function<core::PeerData(int64_t)>& share,
                std::vector<core::PeerData>* out) {
  PeerSearchScratch scratch;
  return GatherPeers(
      peer_index, /*slack=*/0.0,
      [&positions](int64_t id) { return positions[static_cast<size_t>(id)]; },
      querier, tx_range, hops, share, &scratch, out);
}

}  // namespace lbsq::sim
