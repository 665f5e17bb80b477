#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "broadcast/system.h"
#include "common/rng.h"
#include "engine_shim.h"
#include "core/query_engine.h"
#include "core/query_workspace.h"
#include "core/sbnn.h"
#include "core/sbwq.h"
#include "dynamic/dynamic_engine.h"
#include "dynamic/world_versioner.h"
#include "onair/onair_knn.h"
#include "onair/onair_window.h"
#include "spatial/generators.h"

/// Differential testing: every implementation of the same query answers the
/// same random instances identically. One shared world per seed; window
/// queries are answered by the on-air client (both retrieval modes), SBWQ
/// with random peers, and brute force; kNN by the on-air client, SBNN, and
/// brute force. The dynamic engine with zero updates must match the static
/// engine bit for bit.

namespace lbsq {
namespace {

using spatial::Poi;

struct World {
  std::vector<Poi> pois;
  std::unique_ptr<broadcast::BroadcastSystem> system;
  double density;

  explicit World(uint64_t seed) {
    const geom::Rect bounds{0.0, 0.0, 15.0, 15.0};
    Rng rng(seed);
    const int n = static_cast<int>(rng.UniformInt(50, 600));
    pois = rng.NextBool(0.3)
               ? spatial::GenerateClusteredPois(&rng, bounds, 8,
                                                n / 8.0, 0.8)
               : spatial::GenerateUniformPois(&rng, bounds, n);
    density = static_cast<double>(pois.size()) / bounds.area();
    broadcast::BroadcastParams params;
    params.hilbert_order = 5;
    params.bucket_capacity = static_cast<int>(rng.UniformInt(2, 12));
    if (rng.NextBool(0.5)) params.index_kind = broadcast::IndexKind::kTree;
    system = std::make_unique<broadcast::BroadcastSystem>(pois, bounds,
                                                          params);
  }

  core::PeerData RandomPeer(Rng* rng) const {
    core::VerifiedRegion vr;
    vr.region = geom::Rect::CenteredSquare(
        {rng->Uniform(0.0, 15.0), rng->Uniform(0.0, 15.0)},
        rng->Uniform(0.5, 3.0));
    for (const Poi& p : pois) {
      if (vr.region.Contains(p.pos)) vr.pois.push_back(p);
    }
    return core::PeerData{{vr}};
  }
};

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllWindowImplementationsAgree) {
  World world(GetParam());
  Rng rng(GetParam() * 31 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    const geom::Point a{rng.Uniform(0.0, 12.0), rng.Uniform(0.0, 12.0)};
    const geom::Rect window{a.x, a.y, a.x + rng.Uniform(0.5, 4.0),
                            a.y + rng.Uniform(0.5, 4.0)};
    const auto truth = spatial::BruteForceWindow(world.pois, window);
    EXPECT_EQ(
        onair::OnAirWindow(*world.system, window, trial * 3).pois, truth);
    EXPECT_EQ(onair::OnAirWindow(*world.system, window, trial * 3,
                                 onair::WindowRetrieval::kPartitionedRanges)
                  .pois,
              truth);
    std::vector<core::PeerData> peers;
    const int n_peers = static_cast<int>(rng.UniformInt(0, 3));
    for (int p = 0; p < n_peers; ++p) peers.push_back(world.RandomPeer(&rng));
    EXPECT_EQ(core::RunSbwq(window, {}, peers, *world.system, trial).pois,
              truth);
  }
}

TEST_P(DifferentialTest, AllKnnImplementationsAgree) {
  World world(GetParam());
  Rng rng(GetParam() * 37 + 2);
  for (int trial = 0; trial < 10; ++trial) {
    const geom::Point q{rng.Uniform(0.0, 15.0), rng.Uniform(0.0, 15.0)};
    const int k = static_cast<int>(rng.UniformInt(1, 12));
    const auto truth = spatial::BruteForceKnn(world.pois, q, k);
    auto expect_ids = [&truth](const std::vector<spatial::PoiDistance>& got,
                               const char* what) {
      ASSERT_EQ(got.size(), truth.size()) << what;
      for (size_t i = 0; i < truth.size(); ++i) {
        EXPECT_EQ(got[i].poi.id, truth[i].poi.id) << what << " i=" << i;
      }
    };
    expect_ids(onair::OnAirKnn(*world.system, q, k, trial * 5).neighbors,
               "on-air");
    std::vector<core::PeerData> peers;
    const int n_peers = static_cast<int>(rng.UniformInt(0, 3));
    for (int p = 0; p < n_peers; ++p) peers.push_back(world.RandomPeer(&rng));
    core::SbnnOptions options;
    options.k = k;
    options.accept_approximate = false;
    expect_ids(core::RunSbnn(q, options, peers, world.density, *world.system,
                             trial)
                   .neighbors,
               "sbnn");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 16));

// --- Dynamic engine with zero updates == static engine ---------------------

// The updates-off contract of the dynamic world: a WorldVersioner that never
// receives a batch serves epoch 0 forever, and queries executed through the
// DynamicQueryEngine are bit-identical — answers, access stats, and
// cacheable regions — to the same queries against a directly constructed
// static QueryEngine over the same POIs.
TEST_P(DifferentialTest, ZeroUpdateDynamicEngineMatchesStatic) {
  World world(GetParam());
  Rng rng(GetParam() * 41 + 3);
  const geom::Rect bounds{0.0, 0.0, 15.0, 15.0};

  core::EngineOptions options;
  options.sbnn.accept_approximate = false;
  broadcast::BroadcastParams params;
  params.hilbert_order = 5;
  params.bucket_capacity = world.system->params().bucket_capacity;
  params.index_kind = world.system->params().index_kind;
  broadcast::BroadcastSystem static_system(world.pois, bounds, params);
  core::QueryEngine static_engine(static_system, bounds, options);

  dynamic::WorldVersioner versioner(world.pois, bounds, params, options);
  dynamic::DynamicQueryEngine dyn(versioner);
  EXPECT_EQ(versioner.latest_epoch(), 0u);

  core::QueryWorkspace static_ws;
  core::QueryWorkspace dyn_ws;
  core::QueryOutcome static_out;
  core::QueryOutcome dyn_out;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<core::PeerData> peers;
    const int n_peers = static_cast<int>(rng.UniformInt(0, 3));
    for (int p = 0; p < n_peers; ++p) peers.push_back(world.RandomPeer(&rng));

    core::QueryRequest request;
    if (rng.NextBool(0.5)) {
      request.kind = core::QueryKind::kKnn;
      request.position = {rng.Uniform(0.0, 15.0), rng.Uniform(0.0, 15.0)};
      request.k = static_cast<int>(rng.UniformInt(1, 10));
    } else {
      request.kind = core::QueryKind::kWindow;
      const geom::Point a{rng.Uniform(0.0, 12.0), rng.Uniform(0.0, 12.0)};
      request.window = {a.x, a.y, a.x + rng.Uniform(0.5, 4.0),
                        a.y + rng.Uniform(0.5, 4.0)};
    }
    request.slot = trial * 7;

    // The static engine reads `peers` through the request's span; the
    // dynamic engine takes the same vector as its mutable snapshot (with
    // zero updates, revalidation never edits it).
    request.peers = peers;
    static_engine.Execute(request, static_ws, &static_out);
    request.peers = {};
    dynamic::RevalidationStats stats;
    const std::shared_ptr<const dynamic::WorldEpoch> pinned =
        dyn.Execute(request, &peers, dyn_ws, &dyn_out, &stats);

    EXPECT_EQ(pinned->id, 0u);
    // Revalidation with no updates never touches anything.
    EXPECT_EQ(stats.revalidated, 0);
    EXPECT_EQ(stats.rejected, 0);
    if (request.kind == core::QueryKind::kKnn) {
      ASSERT_TRUE(static_out.knn.has_value());
      ASSERT_TRUE(dyn_out.knn.has_value());
      ASSERT_EQ(dyn_out.knn->neighbors.size(),
                static_out.knn->neighbors.size());
      for (size_t i = 0; i < static_out.knn->neighbors.size(); ++i) {
        EXPECT_EQ(dyn_out.knn->neighbors[i].poi.id,
                  static_out.knn->neighbors[i].poi.id);
        EXPECT_EQ(dyn_out.knn->neighbors[i].distance,
                  static_out.knn->neighbors[i].distance);
      }
    } else {
      ASSERT_TRUE(static_out.window.has_value());
      ASSERT_TRUE(dyn_out.window.has_value());
      EXPECT_EQ(dyn_out.window->pois, static_out.window->pois);
    }
    EXPECT_EQ(dyn_out.Stats().access_latency,
              static_out.Stats().access_latency);
    EXPECT_EQ(dyn_out.Stats().tuning_time, static_out.Stats().tuning_time);
    EXPECT_EQ(dyn_out.Stats().buckets_read, static_out.Stats().buckets_read);
    EXPECT_EQ(dyn_out.Cacheable().region.x1, static_out.Cacheable().region.x1);
    EXPECT_EQ(dyn_out.Cacheable().region.y2, static_out.Cacheable().region.y2);
    EXPECT_EQ(dyn_out.Cacheable().pois, static_out.Cacheable().pois);
    // Epoch-0 cacheables carry the legacy tag: byte-compatible with every
    // pre-dynamic consumer.
    EXPECT_EQ(dyn_out.Cacheable().epoch, 0u);
    EXPECT_EQ(static_out.Cacheable().epoch, 0u);
  }
}

}  // namespace
}  // namespace lbsq
