#include "sim/parallel_simulator.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "dynamic/dynamic_engine.h"
#include "sim/update_workload.h"
#include "sim/workload.h"
#include "spatial/generators.h"

namespace lbsq::sim {

ParallelSimulator::Worker::Worker(const MobilityModel& proto)
    : mobility(proto.Clone()) {}

ParallelSimulator::ParallelSimulator(const SimConfig& config)
    : config_(config),
      world_{0.0, 0.0, config.world_side_mi, config.world_side_mi},
      peer_grid_(world_,
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
    const bool retain_history =
        config.updates.enabled() && config.check_cache_invariant;
    versioner_ = std::make_unique<dynamic::WorldVersioner>(
        std::move(pois), world_, config.broadcast,
        EngineOptionsFromConfig(config), retain_history);
    versioner_->set_rebuild_policy(rebuild_policy);
    current_ = versioner_->Current();
  }

  mobility_proto_ = MakeMobilityModel(config, world_);
  const int64_t hosts = mobility_proto_->num_hosts();
  caches_.reserve(static_cast<size_t>(hosts));
  for (int64_t i = 0; i < hosts; ++i) {
    caches_.emplace_back(config.params.csize, config.max_regions_per_host,
                         config.cache_policy);
  }
  snapshot_.resize(static_cast<size_t>(hosts));

  workers_.reserve(static_cast<size_t>(config.threads));
  for (int w = 0; w < config.threads; ++w) {
    workers_.emplace_back(*mobility_proto_);
  }
  if (config.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config.threads);
  }
}

ParallelSimulator::~ParallelSimulator() = default;

void ParallelSimulator::SetObserver(obs::TraceSink* trace_sink,
                                    MetricsRegistry* registry) {
  trace_sink_ = trace_sink;
  registry_ = registry;
}

void ParallelSimulator::CheckCacheInvariant(int64_t host) const {
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

ParallelSimulator::EventResult ParallelSimulator::ExecuteEvent(
    Worker* worker, const QueryEvent& event, int64_t query_id) {
  // Only the querier and its candidate peers are moved to the event time,
  // in the worker's private fleet replica. Each worker visits its events in
  // time order, so its replica only ever moves forward.
  MobilityModel& mobility = *worker->mobility;
  const double now = event.time_min;
  const geom::Point pos = mobility.Position(event.host, now);
  std::vector<core::PeerData> peers;
  EventResult result;
  result.peer_count = GatherPeers(
      peer_grid_, MaxTravel(mobility, now - grid_time_min_),
      [&mobility, now](int64_t id) { return mobility.Position(id, now); },
      event.host, tx_range_mi_, config_.p2p_hops,
      [this](int64_t id) { return snapshot_[static_cast<size_t>(id)]; },
      &worker->peer_search, &peers);
  if (config_.updates.enabled()) {
    // The pinned epoch is immutable while workers run (chunk boundaries
    // are clamped to update boundaries), so this decision depends only on
    // the region's epoch tag and the update log — never the thread count.
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
    result.regions_revalidated = revalidation.revalidated;
    result.regions_stale_rejected = revalidation.rejected;
  }
  result.measured = event.time_min >= config_.warmup_min;

  // Record into the event's private slot; the fold serializes in event
  // order, so the trace bytes match the sequential engine's exactly.
  obs::TraceRecorder* trace = nullptr;
  if (result.measured && trace_sink_ != nullptr) {
    result.trace.Reset(query_id, event.host,
                       event.type == QueryType::kKnn ? "knn" : "window");
    result.traced = true;
    trace = &result.trace;
  }

  const int64_t slot = static_cast<int64_t>(
      event.time_min * config_.slots_per_second * 60.0);
  const bool sharded = config_.shards > 1;
  if (event.type == QueryType::kKnn) {
    KnnQueryResult knn =
        sharded ? ExecuteKnnQuery(config_, *sharded_current_->engine,
                                  sharded_current_->pois, pos, event.k, slot,
                                  std::move(peers), result.measured, query_id,
                                  trace, worker->sharded_workspace)
                : ExecuteKnnQuery(config_, *current_->engine, pos, event.k,
                                  slot, std::move(peers), result.measured,
                                  query_id, trace, &worker->workspace);
    // Clean shards still carry the epoch stamp of their last rebuild; what
    // this query verified is consistent with the pinned *global* epoch,
    // which is what peer revalidation consults.
    if (sharded) knn.outcome.cacheable.epoch = sharded_current_->id;
    caches_[static_cast<size_t>(event.host)].Insert(
        std::move(knn.outcome.cacheable), pos, pos,
        mobility.Heading(event.host));
    if (config_.check_cache_invariant) CheckCacheInvariant(event.host);
    result.knn = std::move(knn);
  } else {
    WindowQueryResult window =
        sharded ? ExecuteWindowQuery(config_, *sharded_current_->engine,
                                     sharded_current_->pois, event.window,
                                     slot, std::move(peers), result.measured,
                                     query_id, trace,
                                     worker->sharded_workspace)
                : ExecuteWindowQuery(config_, *current_->engine, event.window,
                                     slot, std::move(peers), result.measured,
                                     query_id, trace, &worker->workspace);
    if (sharded) window.outcome.cacheable.epoch = sharded_current_->id;
    caches_[static_cast<size_t>(event.host)].Insert(
        std::move(window.outcome.cacheable), event.window.center(), pos,
        mobility.Heading(event.host));
    if (config_.check_cache_invariant) CheckCacheInvariant(event.host);
    result.window = std::move(window);
  }
  return result;
}

void ParallelSimulator::MaybeApplyUpdates(size_t event_index,
                                          double event_time_min,
                                          SimMetrics* metrics) {
  if (!config_.updates.enabled()) return;
  const size_t interval =
      static_cast<size_t>(config_.updates.interval_events);
  if (event_index == 0 || event_index % interval != 0) return;
  // Identical to the sequential engine: batch k = index / interval produces
  // epoch k from the epoch-(k-1) snapshot, purely from (config, seed, k).
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

SimMetrics ParallelSimulator::Execute(const std::vector<QueryEvent>& events) {
  SimMetrics metrics;
  const int64_t hosts = mobility_proto_->num_hosts();
  grid_positions_.resize(static_cast<size_t>(hosts));
  const size_t epoch = static_cast<size_t>(config_.events_per_epoch);
  const int64_t workers = static_cast<int64_t>(workers_.size());
  std::vector<EventResult> results;

  for (size_t begin = 0; begin < events.size();) {
    size_t end = std::min(events.size(), begin + epoch);
    if (config_.updates.enabled()) {
      // Cut chunks at update boundaries — boundaries depend only on the
      // config, so chunking (and therefore every snapshot) is identical at
      // any thread count — and apply the batch due at this boundary.
      const size_t interval =
          static_cast<size_t>(config_.updates.interval_events);
      end = std::min(end, (begin / interval + 1) * interval);
      MaybeApplyUpdates(begin, events[begin].time_min, &metrics);
    }

    // Chunk barrier: index every host at the chunk's first event time.
    // Workers read the grid — like the cache snapshot — lock-free for the
    // rest of the chunk. Rebuild, not ApplyMoves: over one chunk a large
    // share of the fleet changes cell.
    grid_time_min_ = events[begin].time_min;
    for (int64_t h = 0; h < hosts; ++h) {
      grid_positions_[static_cast<size_t>(h)] =
          mobility_proto_->Position(h, grid_time_min_);
    }
    peer_grid_.Rebuild(grid_positions_);

    results.assign(end - begin, EventResult{});
    const auto run_worker = [&](int w) {
      Worker& worker = workers_[static_cast<size_t>(w)];
      for (size_t i = begin; i < end; ++i) {
        const QueryEvent& event = events[i];
        // Shard by querying host so each cache has exactly one writer, and
        // receives its inserts in event order no matter the thread count.
        if (event.host % workers != w) continue;
        results[i - begin] =
            ExecuteEvent(&worker, event, static_cast<int64_t>(i));
      }
    };
    if (pool_) {
      pool_->RunOnAll(run_worker);
    } else {
      run_worker(0);
    }

    // Only the chunk's queriers wrote their caches: re-share just those,
    // so the snapshot again equals every cache's shareable data.
    for (size_t i = begin; i < end; ++i) {
      const size_t host = static_cast<size_t>(events[i].host);
      snapshot_[host] = caches_[host].Share();
    }

    // Fold per-event results in global event order on this thread. Every
    // accumulator — SimMetrics, the registry, and the trace sink — sees
    // the exact sequence the sequential engine would produce, so the
    // result is bitwise independent of the thread count.
    for (const EventResult& result : results) {
      if (!result.measured) continue;
      metrics.regions_revalidated += result.regions_revalidated;
      metrics.regions_stale_rejected += result.regions_stale_rejected;
      metrics.peers_per_query.Add(result.peer_count);
      if (registry_ != nullptr) {
        registry_->Observe("peers_per_query",
                           static_cast<double>(result.peer_count));
      }
      if (result.knn) AccumulateKnn(*result.knn, &metrics, registry_);
      if (result.window) AccumulateWindow(*result.window, &metrics, registry_);
      if (result.traced && trace_sink_ != nullptr) {
        trace_sink_->Append(result.trace);
      }
    }
    begin = end;
  }
  return metrics;
}

SimMetrics ParallelSimulator::Run() {
  trace_.clear();
  std::vector<QueryEvent> events = GenerateWorkload(config_, world_);
  SimMetrics metrics = Execute(events);
  if (config_.record_trace) trace_ = std::move(events);
  return metrics;
}

SimMetrics ParallelSimulator::Replay(const std::vector<QueryEvent>& events) {
  // Update batches are keyed by event index; replaying a dynamic run on an
  // already-advanced world cannot reproduce the recording.
  if (config_.updates.enabled()) {
    LBSQ_CHECK((config_.shards > 1 ? sharded_world_->latest_epoch()
                                   : versioner_->latest_epoch()) == 0);
  }
  for (size_t i = 0; i < events.size(); ++i) {
    LBSQ_CHECK(events[i].host >= 0 &&
               events[i].host < mobility_proto_->num_hosts());
    // A chunk's travel bound runs forward from its first event.
    LBSQ_CHECK(i == 0 || events[i].time_min >= events[i - 1].time_min);
  }
  return Execute(events);
}

}  // namespace lbsq::sim
