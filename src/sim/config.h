#ifndef LBSQ_SIM_CONFIG_H_
#define LBSQ_SIM_CONFIG_H_

#include <cstdint>
#include <string>

#include "broadcast/system.h"
#include "core/peer_cache.h"
#include "fault/fault_model.h"
#include "onair/onair_window.h"

/// \file
/// Simulation parameter sets. `ParameterSet` mirrors Table 3 of the paper
/// (values quoted for the full 20 mi x 20 mi study area); `SimConfig` adds
/// the scaling, mobility, and broadcast-organization knobs. All reported
/// metrics are density-driven ratios, so runs over a scaled-down world with
/// identical per-square-mile densities reproduce the paper's trends at a
/// fraction of the cost.

namespace lbsq::sim {

/// Miles per meter (the paper quotes transmission ranges in meters).
inline constexpr double kMilesPerMeter = 1.0 / 1609.344;

/// Side length of the paper's study area in miles.
inline constexpr double kPaperWorldSideMiles = 20.0;

/// One row of Table 3 (full-scale values).
struct ParameterSet {
  std::string name;
  /// POIs in the 20 x 20 mi area.
  double poi_number = 0.0;
  /// Mobile hosts on the road in the area.
  double mh_number = 0.0;
  /// Cache capacity per data type, in POIs (CSize).
  int csize = 50;
  /// Mean queries per minute over the whole area.
  double query_per_min = 0.0;
  /// Wireless transmission range in meters (TxRange).
  double tx_range_m = 200.0;
  /// Mean number of queried nearest neighbors (kNN).
  double knn_k = 5.0;
  /// Mean query-window size as a percentage of the search space (Window).
  double window_pct = 3.0;
  /// Mean distance between a querying host and its window center, miles.
  double distance_mi = 1.0;
  /// Length of a simulation run, hours (Texecution).
  double t_execution_hr = 10.0;

  /// Densities (per square mile) — the quantities that actually drive the
  /// results.
  double PoiDensity() const;
  double MhDensity() const;
  double QueryRatePerSqMiPerMin() const;
};

/// The three parameter sets of Table 3.
ParameterSet LosAngelesCity();
ParameterSet SyntheticSuburbia();
ParameterSet RiversideCounty();

/// The query type a simulation exercises. kMixed interleaves both kinds
/// (paper experiments run them separately; the mixed workload exercises the
/// cross-pollination of the shared per-host cache, since window results can
/// verify later kNN queries and vice versa).
enum class QueryType { kKnn, kWindow, kMixed };

/// Host mobility model.
enum class MobilityType {
  /// Pure random waypoint (the paper's base model).
  kRandomWaypoint,
  /// Manhattan street grid (road-constrained trajectories; the paper maps
  /// its movement onto an underlying road network).
  kManhattanGrid,
};

/// Dynamic-world update workload: periodic batches of POI inserts, deletes,
/// and moves applied to the live dataset while queries run. Batches are a
/// pure function of (seed, batch index, previous epoch snapshot), so the
/// resulting epoch sequence — and every downstream metric — is bitwise
/// deterministic across thread counts. Disabled (interval_events == 0) the
/// simulator's output is byte-identical to the static engine.
struct UpdateWorkloadConfig {
  /// Apply one batch every this many query events (0 = updates off).
  int interval_events = 0;
  /// Per-batch operation counts.
  int inserts_per_batch = 2;
  int deletes_per_batch = 1;
  int moves_per_batch = 2;
  /// Maximum per-axis displacement of a moved POI, miles (clamped to the
  /// world rectangle).
  double move_radius_mi = 0.25;
  /// Publish every epoch through a cold full rebuild instead of the
  /// diff-aware incremental patch (the reference side of the
  /// incremental-vs-full CI diff; answers are bit-identical either way).
  bool force_full_rebuild = false;

  bool enabled() const { return interval_events > 0; }
  /// The first count rule this workload breaks, or null when it is sane;
  /// part of SimConfig::FirstViolation.
  const char* FirstViolation() const;
};

/// A full simulation configuration.
struct SimConfig {
  ParameterSet params = LosAngelesCity();
  QueryType query_type = QueryType::kKnn;

  /// Side of the (scaled) simulated world in miles. 20 reproduces the paper
  /// at full scale; the default keeps densities identical at ~1/25 the
  /// host count.
  double world_side_mi = 4.0;
  /// Warm-up period before metrics are recorded, minutes.
  double warmup_min = 20.0;
  /// Measured period after warm-up, minutes.
  double duration_min = 20.0;

  /// Random-waypoint speed range, miles per hour.
  double speed_min_mph = 20.0;
  double speed_max_mph = 60.0;

  /// Mobility model and (for the Manhattan grid) the street spacing.
  MobilityType mobility = MobilityType::kRandomWaypoint;
  double street_block_mi = 0.1;

  /// Peer-discovery hop limit. 1 = the paper's single-hop sharing; higher
  /// values let requests be relayed through intermediate hosts (each hop
  /// reaches hosts within TxRange of the previous frontier).
  int p2p_hops = 1;

  /// Fraction of queries that are window queries under QueryType::kMixed.
  double mixed_window_fraction = 0.3;

  /// SBNN prefetch factor (see SbnnOptions::prefetch_radius_factor).
  double prefetch_radius_factor = 1.0;

  /// Maximum verified regions kept per host cache.
  int max_regions_per_host = 8;
  /// Capacity-overflow policy for host caches. kSoundShrink (default) keeps
  /// answers exact; kCollectiveMbr reproduces the paper's literal §4.1
  /// policy, which inflates verified regions at the cost of wrong answers
  /// (the simulator counts them in SimMetrics::answer_errors).
  core::CachePolicy cache_policy = core::CachePolicy::kSoundShrink;

  /// Broadcast channel organization.
  broadcast::BroadcastParams broadcast;
  /// Broadcast slots (buckets) transmitted per second.
  double slots_per_second = 50.0;

  /// Parallel broadcast channels: the POI database is partitioned into this
  /// many contiguous Hilbert ranges, each broadcast on its own channel and
  /// queried through core::ShardedQueryEngine (1 = the classic single
  /// channel, byte-identical to the unsharded engines). Answers are
  /// shard-count-invariant (with approximate kNN acceptance disabled the
  /// per-run answer digest is bitwise equal at any shard count); cost
  /// metrics follow the multi-channel conventions (latency = max over
  /// queried channels, tuning = sum). Incompatible with fault injection
  /// (single-channel concept) and, for now, with check_cache_invariant
  /// under updates (sharded epochs are not history-retained).
  int shards = 1;

  /// SBNN: whether approximate answers are accepted and their threshold.
  bool accept_approximate = true;
  double min_correctness = 0.5;
  /// Ablations: §3.3.3 data filtering, the index-bound tightening of the
  /// fallback search radius (see SbnnOptions), and SBWQ window reduction.
  bool use_filtering = true;
  bool tighten_with_index_bound = false;
  bool use_window_reduction = true;
  onair::WindowRetrieval retrieval = onair::WindowRetrieval::kSingleSpan;

  /// Scaling mode for window-query experiments. The window-size sweep of
  /// the paper is governed by the dimensionless ratio (POIs per window) /
  /// CSize — window sizes are percentages of the whole space, so shrinking
  /// the world at constant POI *density* shrinks windows' absolute POI
  /// content and the cache capacity stops binding. With this flag the world
  /// keeps the paper's absolute POI *count* (2750/2100/1450) and the
  /// window-center distance scales linearly with the world side, preserving
  /// the paper's window/cache/VR geometry exactly. MH and query densities
  /// scale as usual.
  bool paper_window_geometry = false;

  /// Worker threads of the parallel engine (ParallelSimulator); the
  /// sequential Simulator ignores it. The parallel engine is bitwise
  /// deterministic across thread counts: any value yields identical metrics
  /// for the same config + seed.
  int threads = 1;
  /// Query events per epoch of the parallel engine. Peer-cache state is
  /// snapshotted at epoch barriers and read immutably within an epoch, so
  /// larger epochs expose more parallelism but serve (slightly) staler peer
  /// data. 1 reproduces the sequential engine's live-cache semantics
  /// exactly. Must not be derived from `threads` — it is part of the
  /// simulated semantics, and tying it to the thread count would break the
  /// determinism guarantee.
  int events_per_epoch = 32;

  /// When true, the simulator records every query event it samples;
  /// retrieve with Simulator::trace() and replay with Simulator::Replay().
  bool record_trace = false;

  /// Fault injection: channel loss/corruption, peer data corruption, and
  /// the retry/deadline resilience policy. Disabled by default — a disabled
  /// config yields output byte-identical to the pre-fault simulator. The
  /// fault schedule is keyed per query id, so results stay bitwise
  /// deterministic across `threads`.
  fault::FaultConfig fault;

  /// Dynamic-world POI churn. Disabled by default — a disabled config yields
  /// output byte-identical to the static-world simulator.
  UpdateWorkloadConfig updates;

  /// When true, the simulator validates every cache entry against the
  /// server database after each insertion (slow; for tests).
  bool check_cache_invariant = false;
  /// When true, every sharing-based answer is checked against a brute-force
  /// oracle over the server database (slow; for tests).
  bool check_answers = false;

  uint64_t seed = 1;

  /// The first rule this configuration breaks, or null when it is
  /// internally consistent: positive world/duration, warmup >= 0,
  /// threads/epoch/hops >= 1, min_correctness and mixed_window_fraction in
  /// [0, 1], prefetch_radius_factor >= 1, positive slot rate and cache
  /// capacities, valid faults and updates, and no fault injection (or
  /// checked churn) at shards > 1. lbsq_sim reports it as a flag error;
  /// Validate() aborts (LBSQ_CHECK) on it and is called by both simulation
  /// engines at construction — the one choke point for these rules.
  const char* FirstViolation() const;
  void Validate() const;

  /// Area scale factor relative to the paper's 400 sq mi.
  double Scale() const;
  /// Host/POI counts and query rate scaled to the configured world.
  int64_t ScaledMhCount() const;
  int64_t ScaledPoiCount() const;
  double ScaledQueriesPerMin() const;
};

}  // namespace lbsq::sim

#endif  // LBSQ_SIM_CONFIG_H_
