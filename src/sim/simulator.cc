#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "dynamic/dynamic_engine.h"
#include "sim/query_exec.h"
#include "sim/update_workload.h"
#include "sim/workload.h"
#include "spatial/generators.h"

namespace lbsq::sim {

Simulator::Simulator(const SimConfig& config)
    : config_(config),
      world_{0.0, 0.0, config.world_side_mi, config.world_side_mi},
      peer_index_(world_,
                  std::max(config.params.tx_range_m * kMilesPerMeter,
                           config.world_side_mi / 256.0)),
      tx_range_mi_(config.params.tx_range_m * kMilesPerMeter) {
  config.Validate();

  Rng poi_rng(DeriveStreamSeed(config.seed, kStreamPois));
  std::vector<spatial::Poi> pois = spatial::GenerateUniformPois(
      &poi_rng, world_, config.ScaledPoiCount());
  base_insert_id_ = FirstInsertId(pois);
  dynamic::RebuildPolicy rebuild_policy;
  rebuild_policy.force_full = config.updates.force_full_rebuild;
  if (config.shards > 1) {
    sharded_world_ = std::make_unique<dynamic::ShardedWorld>(
        std::move(pois), world_, config.broadcast,
        EngineOptionsFromConfig(config), config.shards);
    sharded_world_->set_rebuild_policy(rebuild_policy);
    sharded_current_ = sharded_world_->Current();
  } else {
    // Under churn the cache invariant is epoch-relative, so the invariant
    // checker needs every historical snapshot; otherwise epochs are
    // reclaimed as soon as the last query unpins them.
    const bool retain_history =
        config.updates.enabled() && config.check_cache_invariant;
    versioner_ = std::make_unique<dynamic::WorldVersioner>(
        std::move(pois), world_, config.broadcast,
        EngineOptionsFromConfig(config), retain_history);
    versioner_->set_rebuild_policy(rebuild_policy);
    current_ = versioner_->Current();
  }

  mobility_ = MakeMobilityModel(config, world_);
  const int64_t hosts = mobility_->num_hosts();
  caches_.reserve(static_cast<size_t>(hosts));
  for (int64_t i = 0; i < hosts; ++i) {
    caches_.emplace_back(config.params.csize, config.max_regions_per_host,
                         config.cache_policy);
  }
  positions_.resize(static_cast<size_t>(hosts));
}

void Simulator::SetObserver(obs::TraceSink* trace_sink,
                            MetricsRegistry* registry) {
  trace_sink_ = trace_sink;
  registry_ = registry;
}

void Simulator::CheckCacheInvariant(int64_t host) const {
  for (const core::VerifiedRegion& vr :
       caches_[static_cast<size_t>(host)].entries()) {
    // Completeness is epoch-relative: validate against the POI database of
    // the epoch the entry was verified on (== the current epoch when
    // updates are off; the sharded static world only ever has epoch 0).
    if (config_.shards > 1) {
      CheckCacheCompleteness(vr, sharded_current_->pois);
      continue;
    }
    const std::shared_ptr<const dynamic::WorldEpoch> epoch =
        config_.updates.enabled() ? versioner_->EpochAt(vr.epoch) : current_;
    LBSQ_CHECK(epoch != nullptr);
    CheckCacheCompleteness(vr, epoch->pois);
  }
}

void Simulator::ExecuteEvent(const QueryEvent& event, int64_t query_id,
                             SimMetrics* metrics) {
  const int64_t hosts = mobility_->num_hosts();
  // Advance every host and patch the peer index (a full Rebuild only on the
  // first event; afterwards most hosts stay in their grid cell between
  // events). O(hosts) per query event; positions between events are
  // irrelevant to the metrics.
  for (int64_t i = 0; i < hosts; ++i) {
    positions_[static_cast<size_t>(i)] = mobility_->Position(i, event.time_min);
  }
  peer_index_.ApplyMoves(positions_);

  const geom::Point pos = positions_[static_cast<size_t>(event.host)];
  std::vector<core::PeerData> peers;
  const int peer_count = GatherPeers(
      peer_index_, positions_, event.host, tx_range_mi_, config_.p2p_hops,
      [this](int64_t id) { return caches_[static_cast<size_t>(id)].Share(); },
      &peers);
  if (config_.updates.enabled()) {
    // Gathered peer regions may predate the pinned epoch; keep only those
    // whose completeness survives the separating update batches. Both
    // deployments run the same per-region decision procedure against their
    // (identical) global update logs.
    dynamic::RevalidationStats revalidation;
    if (config_.shards > 1) {
      auto dirty = [this](const geom::Rect& rect, uint64_t lo, uint64_t hi) {
        return sharded_world_->RegionDirty(rect, lo, hi);
      };
      revalidation = dynamic::RevalidatePeerDataWith(
          dirty, sharded_current_->id, &peers);
    } else {
      revalidation =
          dynamic::RevalidatePeerData(*versioner_, current_->id, &peers);
    }
    if (event.time_min >= config_.warmup_min) {
      metrics->regions_revalidated += revalidation.revalidated;
      metrics->regions_stale_rejected += revalidation.rejected;
    }
  }
  const bool measured = event.time_min >= config_.warmup_min;
  if (measured) {
    metrics->peers_per_query.Add(peer_count);
    if (registry_ != nullptr) {
      registry_->Observe("peers_per_query", static_cast<double>(peer_count));
    }
  }

  // Record a trace only for measured queries that someone will read;
  // unmeasured (warm-up) queries never reach the sink, so recording them
  // would only cost time.
  obs::TraceRecorder* trace = nullptr;
  if (measured && trace_sink_ != nullptr) {
    recorder_.Reset(query_id, event.host, event.type == QueryType::kKnn
                                              ? "knn"
                                              : "window");
    trace = &recorder_;
  }

  const int64_t slot = static_cast<int64_t>(
      event.time_min * config_.slots_per_second * 60.0);
  const bool sharded = config_.shards > 1;
  if (event.type == QueryType::kKnn) {
    KnnQueryResult result =
        sharded ? ExecuteKnnQuery(config_, *sharded_current_->engine,
                                  sharded_current_->pois, pos, event.k, slot,
                                  std::move(peers), measured, query_id, trace,
                                  sharded_workspace_)
                : ExecuteKnnQuery(config_, *current_->engine, pos, event.k,
                                  slot, std::move(peers), measured, query_id,
                                  trace, &workspace_);
    // Clean shards still carry the epoch stamp of their last rebuild; what
    // this query verified is consistent with the pinned *global* epoch,
    // which is what peer revalidation consults.
    if (sharded) result.outcome.cacheable.epoch = sharded_current_->id;
    caches_[static_cast<size_t>(event.host)].Insert(
        std::move(result.outcome.cacheable), pos, pos,
        mobility_->Heading(event.host));
    if (config_.check_cache_invariant) CheckCacheInvariant(event.host);
    if (measured) AccumulateKnn(result, metrics, registry_);
  } else {
    WindowQueryResult result =
        sharded ? ExecuteWindowQuery(config_, *sharded_current_->engine,
                                     sharded_current_->pois, event.window,
                                     slot, std::move(peers), measured,
                                     query_id, trace, sharded_workspace_)
                : ExecuteWindowQuery(config_, *current_->engine, event.window,
                                     slot, std::move(peers), measured,
                                     query_id, trace, &workspace_);
    if (sharded) result.outcome.cacheable.epoch = sharded_current_->id;
    caches_[static_cast<size_t>(event.host)].Insert(
        std::move(result.outcome.cacheable), event.window.center(), pos,
        mobility_->Heading(event.host));
    if (config_.check_cache_invariant) CheckCacheInvariant(event.host);
    if (measured) AccumulateWindow(result, metrics, registry_);
  }
  if (trace != nullptr) trace_sink_->Append(*trace);
}

void Simulator::MaybeApplyUpdates(size_t event_index, double event_time_min,
                                  SimMetrics* metrics) {
  if (!config_.updates.enabled()) return;
  const size_t interval =
      static_cast<size_t>(config_.updates.interval_events);
  if (event_index == 0 || event_index % interval != 0) return;
  // Batch k (1-based) produces epoch k; k is the event index divided by the
  // interval, so the epoch sequence depends only on (config, seed, index) —
  // never on engine, shard, or thread count. The sharded world's global POI
  // mirror matches the unsharded epoch's POI set exactly, so both
  // deployments generate identical batches.
  const uint64_t k = event_index / interval;
  if (config_.shards > 1) {
    std::vector<dynamic::PoiUpdate> batch =
        GenerateUpdateBatch(config_.updates, config_.seed, k,
                            sharded_current_->pois, world_, base_insert_id_);
    const int64_t before = sharded_world_->updates_applied();
    const uint64_t published = sharded_world_->Apply(std::move(batch));
    LBSQ_CHECK(published == k);
    sharded_current_ = sharded_world_->Current();
    if (event_time_min >= config_.warmup_min) {
      metrics->epochs_published += 1;
      metrics->updates_applied += sharded_world_->updates_applied() - before;
    }
    return;
  }
  std::vector<dynamic::PoiUpdate> batch =
      GenerateUpdateBatch(config_.updates, config_.seed, k, current_->pois,
                          world_, base_insert_id_);
  const int64_t before = versioner_->updates_applied();
  const uint64_t published = versioner_->Apply(std::move(batch));
  LBSQ_CHECK(published == k);
  current_ = versioner_->Current();
  if (event_time_min >= config_.warmup_min) {
    metrics->epochs_published += 1;
    metrics->updates_applied += versioner_->updates_applied() - before;
  }
}

SimMetrics Simulator::Run() {
  trace_.clear();
  std::vector<QueryEvent> events = GenerateWorkload(config_, world_);
  SimMetrics metrics;
  for (size_t i = 0; i < events.size(); ++i) {
    MaybeApplyUpdates(i, events[i].time_min, &metrics);
    ExecuteEvent(events[i], static_cast<int64_t>(i), &metrics);
  }
  if (config_.record_trace) trace_ = std::move(events);
  return metrics;
}

SimMetrics Simulator::Replay(const std::vector<QueryEvent>& events) {
  // Update batches are keyed by event index; replaying a dynamic run on an
  // already-advanced world cannot reproduce the recording.
  if (config_.updates.enabled()) {
    LBSQ_CHECK((config_.shards > 1 ? sharded_world_->latest_epoch()
                                   : versioner_->latest_epoch()) == 0);
  }
  SimMetrics metrics;
  for (size_t i = 0; i < events.size(); ++i) {
    LBSQ_CHECK(events[i].host >= 0 && events[i].host < mobility_->num_hosts());
    MaybeApplyUpdates(i, events[i].time_min, &metrics);
    ExecuteEvent(events[i], static_cast<int64_t>(i), &metrics);
  }
  return metrics;
}

}  // namespace lbsq::sim
