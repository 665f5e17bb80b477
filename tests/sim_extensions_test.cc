#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/config.h"
#include "sim/mobility.h"
#include "sim/query_exec.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "spatial/grid_index.h"

/// Tests for the simulator extensions beyond the paper's base setup:
/// Manhattan-grid mobility, multi-hop peer discovery, the paper-geometry
/// window scaling, and the unsound collective-MBR cache policy ablation.

namespace lbsq::sim {
namespace {

SimConfig SmallConfig(QueryType type) {
  SimConfig config;
  config.params = LosAngelesCity();
  config.query_type = type;
  config.world_side_mi = 1.0;
  config.warmup_min = 10.0;
  config.duration_min = 10.0;
  config.seed = 7;
  return config;
}

TEST(SimExtensionsTest, ManhattanMobilityRunsChecked) {
  SimConfig config = SmallConfig(QueryType::kKnn);
  config.mobility = MobilityType::kManhattanGrid;
  config.check_answers = true;
  config.check_cache_invariant = true;
  Simulator sim(config);
  const SimMetrics metrics = sim.Run();
  EXPECT_GT(metrics.queries, 50);
  EXPECT_EQ(metrics.answer_errors, 0);
}

TEST(SimExtensionsTest, MultiHopReachesMorePeers) {
  SimConfig config = SmallConfig(QueryType::kKnn);
  config.params.tx_range_m = 60.0;  // sparse single-hop neighborhoods
  Simulator one_hop(config);
  const double peers1 = one_hop.Run().peers_per_query.mean();
  config.p2p_hops = 3;
  Simulator three_hop(config);
  const double peers3 = three_hop.Run().peers_per_query.mean();
  EXPECT_GT(peers3, peers1);
}

TEST(SimExtensionsTest, MultiHopImprovesSharing) {
  SimConfig config = SmallConfig(QueryType::kKnn);
  config.params.tx_range_m = 60.0;
  Simulator one_hop(config);
  const SimMetrics m1 = one_hop.Run();
  config.p2p_hops = 3;
  Simulator three_hop(config);
  const SimMetrics m3 = three_hop.Run();
  EXPECT_GE(m3.solved_verified + m3.solved_approximate,
            m1.solved_verified + m1.solved_approximate);
}

TEST(SimExtensionsTest, MultiHopStaysSound) {
  SimConfig config = SmallConfig(QueryType::kKnn);
  config.p2p_hops = 2;
  config.check_answers = true;
  Simulator sim(config);
  EXPECT_EQ(sim.Run().answer_errors, 0);
}

TEST(SimExtensionsTest, PaperWindowGeometryKeepsPoiCount) {
  SimConfig config = SmallConfig(QueryType::kWindow);
  config.paper_window_geometry = true;
  EXPECT_EQ(config.ScaledPoiCount(), 2750);
  config.paper_window_geometry = false;
  EXPECT_LT(config.ScaledPoiCount(), 100);
}

TEST(SimExtensionsTest, PaperWindowGeometryRunsChecked) {
  SimConfig config = SmallConfig(QueryType::kWindow);
  config.paper_window_geometry = true;
  config.warmup_min = 5.0;
  config.duration_min = 5.0;
  config.check_answers = true;
  Simulator sim(config);
  const SimMetrics metrics = sim.Run();
  EXPECT_GT(metrics.queries, 10);
  EXPECT_EQ(metrics.answer_errors, 0);
}

TEST(SimExtensionsTest, SoundPolicyNeverErrs) {
  for (QueryType type : {QueryType::kKnn, QueryType::kWindow}) {
    SimConfig config = SmallConfig(type);
    config.cache_policy = core::CachePolicy::kSoundShrink;
    Simulator sim(config);
    EXPECT_EQ(sim.Run().answer_errors, 0);
  }
}

TEST(SimExtensionsTest, CollectiveMbrPolicyRuns) {
  // The unsound policy must not crash; errors are counted, not asserted.
  SimConfig config = SmallConfig(QueryType::kWindow);
  config.paper_window_geometry = true;
  config.warmup_min = 5.0;
  config.duration_min = 5.0;
  config.cache_policy = core::CachePolicy::kCollectiveMbr;
  Simulator sim(config);
  const SimMetrics metrics = sim.Run();
  EXPECT_GE(metrics.answer_errors, 0);
  EXPECT_GT(metrics.queries, 10);
}

TEST(SimExtensionsTest, ApproxExactCounterBounded) {
  SimConfig config = SmallConfig(QueryType::kKnn);
  Simulator sim(config);
  const SimMetrics metrics = sim.Run();
  EXPECT_LE(metrics.approx_exact, metrics.solved_approximate);
}

// Multi-hop peer discovery on a grid built earlier, with the fleet's travel
// bound as slack, must reach the same hosts in the same order as on a grid
// rebuilt at the query time: NNV consumes the peers in that order.
TEST(SimExtensionsTest, GatherPeersOnStaleGridMatchesRebuiltGrid) {
  for (const MobilityType mobility :
       {MobilityType::kRandomWaypoint, MobilityType::kManhattanGrid}) {
    SimConfig config = SmallConfig(QueryType::kKnn);
    config.world_side_mi = 2.0;
    config.mobility = mobility;
    const geom::Rect world{0.0, 0.0, 2.0, 2.0};
    const double tx = config.params.tx_range_m * kMilesPerMeter;
    const double cell = std::max(tx, config.world_side_mi / 256.0);
    const std::unique_ptr<MobilityModel> fleet =
        MakeMobilityModel(config, world);
    const int64_t hosts = fleet->num_hosts();
    const double built_at = 1.0;
    std::vector<geom::Point> positions(static_cast<size_t>(hosts));
    for (int64_t h = 0; h < hosts; ++h) {
      positions[static_cast<size_t>(h)] = fleet->Position(h, built_at);
    }
    spatial::GridIndex stale(world, cell);
    stale.Rebuild(positions);

    PeerSearchScratch scratch;  // Shared by every query: stamps persist.
    int64_t reached_total = 0;
    for (const double dt : {0.0, 0.01, 0.1, 0.5}) {
      const double now = built_at + dt;
      for (int64_t h = 0; h < hosts; ++h) {
        positions[static_cast<size_t>(h)] = fleet->Position(h, now);
      }
      spatial::GridIndex fresh(world, cell);
      fresh.Rebuild(positions);
      for (int hops = 1; hops <= 3; ++hops) {
        for (int64_t querier = 0; querier < hosts; querier += 7) {
          std::vector<int64_t> want_ids, got_ids;
          std::vector<core::PeerData> want_peers, got_peers;
          const int want = GatherPeers(
              fresh, positions, querier, tx, hops,
              [&want_ids](int64_t id) {
                want_ids.push_back(id);
                return core::PeerData{};
              },
              &want_peers);
          const int got = GatherPeers(
              stale, MaxTravel(*fleet, dt),
              [&positions](int64_t id) {
                return positions[static_cast<size_t>(id)];
              },
              querier, tx, hops,
              [&got_ids](int64_t id) {
                got_ids.push_back(id);
                return core::PeerData{};
              },
              &scratch, &got_peers);
          ASSERT_EQ(got, want) << "dt " << dt << " hops " << hops;
          ASSERT_EQ(got_ids, want_ids) << "dt " << dt << " hops " << hops;
          reached_total += got;
        }
      }
    }
    EXPECT_GT(reached_total, 0);
  }
}

}  // namespace
}  // namespace lbsq::sim
