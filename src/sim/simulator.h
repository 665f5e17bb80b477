#ifndef LBSQ_SIM_SIMULATOR_H_
#define LBSQ_SIM_SIMULATOR_H_

#include <memory>
#include <vector>

#include "broadcast/system.h"
#include "common/metrics_registry.h"
#include "common/observability.h"
#include "common/rng.h"
#include "core/peer_cache.h"
#include "core/query_engine.h"
#include "core/query_workspace.h"
#include "core/sharded_query_engine.h"
#include "dynamic/sharded_world.h"
#include "dynamic/world_versioner.h"
#include "sim/config.h"
#include "sim/metrics.h"
#include "sim/mobility.h"
#include "sim/trace.h"
#include "spatial/grid_index.h"

/// \file
/// The end-to-end simulation of the paper's §4.1 system model: a base
/// station continuously broadcasting the Hilbert-organized POI database
/// with a (1, m) air index, and a fleet of mobile hosts moving by random
/// waypoint, issuing kNN or window queries at Poisson times, first trying
/// their single-hop peers (SBNN / SBWQ) and falling back to the broadcast
/// channel.
///
/// This is the sequential reference engine: events execute strictly in time
/// order, each against the live caches of every peer. The parallel engine
/// (sim/parallel_simulator.h) shards the same workload across worker
/// threads; with `events_per_epoch = 1` it reproduces this engine's metrics
/// bit-for-bit (the differential test in tests/parallel_sim_test.cc holds
/// the two to that contract).

namespace lbsq::sim {

/// One simulation instance. Construct, Run() once, read the metrics.
class Simulator {
 public:
  explicit Simulator(const SimConfig& config);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Attaches run-level observability (may be null to disable either part):
  /// `trace_sink` receives every measured query's span/counter events in
  /// global event order; `registry` receives histogram observations and
  /// resolved-by counters for every measured query. Call before Run().
  void SetObserver(obs::TraceSink* trace_sink, MetricsRegistry* registry);

  /// Executes the configured run and returns post-warm-up metrics.
  SimMetrics Run();

  /// Replays a recorded workload (typically from a prior Run() with
  /// record_trace set on a simulator with the same configuration and seed;
  /// mobility and the POI set are reconstructed from the seed, so a replay
  /// of a recording reproduces its metrics exactly). With updates enabled
  /// the replay must start from a *fresh* simulator (epoch 0): update
  /// batches regenerate from the event index, so a pre-advanced world would
  /// diverge from the recording.
  SimMetrics Replay(const std::vector<QueryEvent>& events);

  /// Events recorded by the last Run() under record_trace.
  const std::vector<QueryEvent>& trace() const { return trace_; }

  /// The broadcast channel of the currently pinned epoch (epoch 0 — the
  /// full static world — unless updates are enabled and have fired).
  /// Single-channel deployments only (config.shards == 1).
  const broadcast::BroadcastSystem& system() const {
    return *current_->system;
  }
  /// The simulated world rectangle.
  const geom::Rect& world() const { return world_; }
  /// Host caches (for inspection in tests).
  const std::vector<core::PeerCache>& caches() const { return caches_; }
  /// The query engine of the currently pinned epoch (shards == 1 only).
  const core::QueryEngine& engine() const { return *current_->engine; }
  /// The epoch store (epoch 0 only when updates are disabled); shards == 1
  /// only.
  const dynamic::WorldVersioner& versioner() const { return *versioner_; }
  /// The sharded world (null unless config.shards > 1).
  const dynamic::ShardedWorld* sharded_world() const {
    return sharded_world_.get();
  }

 private:
  /// Positions every host at time `t`, refreshes the peer index, gathers
  /// the querier's peers, and dispatches the event. `query_id` is the
  /// event's global workload index (the trace key).
  void ExecuteEvent(const QueryEvent& event, int64_t query_id,
                    SimMetrics* metrics);

  /// Applies the deterministic update batch due before event `event_index`
  /// (a no-op unless updates are enabled and the index is a nonzero
  /// multiple of the configured interval) and re-pins the published epoch.
  void MaybeApplyUpdates(size_t event_index, double event_time_min,
                         SimMetrics* metrics);

  /// Validates the cache completeness invariant of `host` against the
  /// server database (check_cache_invariant mode). Under churn each entry
  /// is checked against the snapshot of its *own* epoch — completeness is
  /// an epoch-relative guarantee.
  void CheckCacheInvariant(int64_t host) const;

  SimConfig config_;
  geom::Rect world_;
  /// Single-channel deployment (config.shards == 1): the epoch store and
  /// the pinned epoch every event executes against (re-pinned after each
  /// update batch). Null at shards > 1.
  std::unique_ptr<dynamic::WorldVersioner> versioner_;
  std::shared_ptr<const dynamic::WorldEpoch> current_;
  /// Sharded deployment (config.shards > 1): the sharded epoch store, its
  /// pinned epoch, and the multi-shard query scratch. Null at shards == 1.
  std::unique_ptr<dynamic::ShardedWorld> sharded_world_;
  std::shared_ptr<const dynamic::ShardedEpoch> sharded_current_;
  core::ShardedQueryWorkspace sharded_workspace_;
  /// First id handed to inserted POIs (fixed at construction).
  int64_t base_insert_id_ = 0;
  std::unique_ptr<MobilityModel> mobility_;
  std::vector<core::PeerCache> caches_;
  spatial::GridIndex peer_index_;
  std::vector<geom::Point> positions_;
  std::vector<QueryEvent> trace_;
  double tx_range_mi_;
  obs::TraceSink* trace_sink_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
  obs::TraceRecorder recorder_;
  /// Reused query scratch + broadcast-cycle cover memo for every event this
  /// (single-threaded) engine executes.
  core::QueryWorkspace workspace_;
};

}  // namespace lbsq::sim

#endif  // LBSQ_SIM_SIMULATOR_H_
