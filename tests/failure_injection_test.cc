#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "broadcast/system.h"
#include "common/rng.h"
#include "core/nnv.h"
#include "core/peer_cache.h"
#include "core/sbnn.h"
#include "core/sbwq.h"
#include "engine_shim.h"
#include "spatial/generators.h"

/// Degenerate and adversarial configurations: peers with nothing useful,
/// empty databases, one-object worlds, queries outside all knowledge, and
/// stale-looking (but honest) caches. The system must stay sound and never
/// crash — approximate quality may degrade, correctness may not.

namespace lbsq {
namespace {

using core::PeerData;
using core::VerifiedRegion;
using spatial::Poi;

const geom::Rect kWorld{0.0, 0.0, 20.0, 20.0};

std::unique_ptr<broadcast::BroadcastSystem> MakeSystem(
    std::vector<Poi> pois) {
  broadcast::BroadcastParams params;
  params.hilbert_order = 4;
  return std::make_unique<broadcast::BroadcastSystem>(std::move(pois), kWorld,
                                                      params);
}

TEST(FailureInjectionTest, SingleObjectDatabase) {
  auto system = MakeSystem({Poi{0, {5.0, 5.0}}});
  core::SbnnOptions options;
  options.k = 3;
  const auto outcome =
      core::RunSbnn({10.0, 10.0}, options, {}, 0.01, *system, 0);
  ASSERT_EQ(outcome.neighbors.size(), 1u);
  EXPECT_EQ(outcome.neighbors[0].poi.id, 0);
}

TEST(FailureInjectionTest, EmptyDatabaseWindowQuery) {
  auto system = MakeSystem({});
  const auto outcome =
      core::RunSbwq(geom::Rect{1.0, 1.0, 5.0, 5.0}, {}, {}, *system, 0);
  EXPECT_TRUE(outcome.pois.empty());
}

TEST(FailureInjectionTest, PeersWithEmptyRegions) {
  Rng rng(1);
  auto system = MakeSystem(spatial::GenerateUniformPois(&rng, kWorld, 100));
  // Peers that respond with zero regions must be harmless.
  std::vector<PeerData> peers(5);
  core::SbnnOptions options;
  options.k = 4;
  const auto outcome =
      core::RunSbnn({10.0, 10.0}, options, peers, 0.25, *system, 0);
  const auto truth = spatial::BruteForceKnn(system->pois(), {10.0, 10.0}, 4);
  ASSERT_EQ(outcome.neighbors.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(outcome.neighbors[i].poi.id, truth[i].poi.id);
  }
}

TEST(FailureInjectionTest, PeerRegionFarFromQuery) {
  Rng rng(2);
  auto system = MakeSystem(spatial::GenerateUniformPois(&rng, kWorld, 150));
  VerifiedRegion vr;
  vr.region = geom::Rect{0.0, 0.0, 2.0, 2.0};
  for (const Poi& p : system->pois()) {
    if (vr.region.Contains(p.pos)) vr.pois.push_back(p);
  }
  core::SbnnOptions options;
  options.k = 3;
  options.accept_approximate = false;
  // Query on the opposite corner: nothing verifiable, exact via broadcast.
  const auto outcome = core::RunSbnn({19.0, 19.0}, options, {PeerData{{vr}}},
                                     150.0 / 400.0, *system, 0);
  EXPECT_EQ(outcome.resolved_by, core::ResolvedBy::kBroadcast);
  const auto truth = spatial::BruteForceKnn(system->pois(), {19.0, 19.0}, 3);
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(outcome.neighbors[i].poi.id, truth[i].poi.id);
  }
}

TEST(FailureInjectionTest, PeerWithRegionButNoPois) {
  // An honest peer whose verified region genuinely holds no POIs. Its
  // emptiness is information: it proves the region contains nothing.
  Rng rng(3);
  std::vector<Poi> pois = {{0, {15.0, 15.0}}};
  auto system = MakeSystem(pois);
  VerifiedRegion vr;
  vr.region = geom::Rect{0.0, 0.0, 10.0, 10.0};  // empty of POIs, honestly
  core::SbnnOptions options;
  options.k = 1;
  options.accept_approximate = false;
  const auto outcome = core::RunSbnn({5.0, 5.0}, options, {PeerData{{vr}}},
                                     0.0025, *system, 0);
  // The only POI is outside the verified region; nothing verified, exact
  // fallback.
  ASSERT_EQ(outcome.neighbors.size(), 1u);
  EXPECT_EQ(outcome.neighbors[0].poi.id, 0);
}

TEST(FailureInjectionTest, WindowEntirelyOutsideWorld) {
  Rng rng(4);
  auto system = MakeSystem(spatial::GenerateUniformPois(&rng, kWorld, 80));
  const auto outcome = core::RunSbwq(geom::Rect{50.0, 50.0, 55.0, 55.0}, {},
                                     {}, *system, 0);
  EXPECT_TRUE(outcome.pois.empty());
}

TEST(FailureInjectionTest, ZeroCapacityCacheNeverStores) {
  Rng rng(5);
  const auto server = spatial::GenerateUniformPois(&rng, kWorld, 100);
  core::PeerCache cache(0);
  for (int i = 0; i < 20; ++i) {
    const geom::Point c{rng.Uniform(0.0, 20.0), rng.Uniform(0.0, 20.0)};
    VerifiedRegion vr;
    vr.region = geom::Rect::CenteredSquare(c, 1.0);
    for (const Poi& p : server) {
      if (vr.region.Contains(p.pos)) vr.pois.push_back(p);
    }
    cache.Insert(vr, c, c, {1.0, 0.0});
  }
  EXPECT_EQ(cache.TotalPois(), 0);
}

TEST(FailureInjectionTest, NnvWithZeroDensityGivesFullConfidence) {
  // poi_density 0 means "no other POI can exist": every unverified entry
  // gets correctness 1.
  const std::vector<Poi> server = {{0, {3.0, 0.0}}};
  VerifiedRegion vr;
  vr.region = geom::Rect{-1.0, -1.0, 1.0, 1.0};
  PeerData peer{{vr}};
  peer.regions[0].pois.push_back(server[0]);  // known but outside the region
  const auto result = core::NearestNeighborVerify({0.0, 0.0}, 1, {peer}, 0.0);
  ASSERT_EQ(result.heap.entries().size(), 1u);
  EXPECT_FALSE(result.heap.entries()[0].verified);
  EXPECT_DOUBLE_EQ(result.heap.entries()[0].correctness, 1.0);
}

TEST(FailureInjectionTest, ManyPeersWithIdenticalRegions) {
  Rng rng(6);
  auto system = MakeSystem(spatial::GenerateUniformPois(&rng, kWorld, 200));
  VerifiedRegion vr;
  vr.region = geom::Rect{8.0, 8.0, 12.0, 12.0};
  for (const Poi& p : system->pois()) {
    if (vr.region.Contains(p.pos)) vr.pois.push_back(p);
  }
  std::vector<PeerData> peers(40, PeerData{{vr}});
  core::SbnnOptions options;
  options.k = 2;
  const auto outcome =
      core::RunSbnn({10.0, 10.0}, options, peers, 0.5, *system, 0);
  const auto truth = spatial::BruteForceKnn(system->pois(), {10.0, 10.0}, 2);
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(outcome.neighbors[i].poi.id, truth[i].poi.id);
  }
}

TEST(FailureInjectionTest, QueryAtWorldCorner) {
  Rng rng(7);
  auto system = MakeSystem(spatial::GenerateUniformPois(&rng, kWorld, 120));
  core::SbnnOptions options;
  options.k = 5;
  const auto outcome =
      core::RunSbnn({0.0, 0.0}, options, {}, 0.3, *system, 0);
  const auto truth = spatial::BruteForceKnn(system->pois(), {0.0, 0.0}, 5);
  ASSERT_EQ(outcome.neighbors.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(outcome.neighbors[i].poi.id, truth[i].poi.id);
  }
}

TEST(FailureInjectionTest, DishonestPeerBreaksVerification) {
  // The system's trust model, demonstrated: NNV is only as sound as the
  // peers' completeness invariant. A peer claiming a verified region while
  // silently omitting a POI inside it makes NNV "verify" a wrong neighbor —
  // exactly the failure mode the collective-MBR cache policy produces and
  // the reason the sound shrink policy is the default.
  const std::vector<Poi> server = {{0, {0.2, 0.0}}, {1, {1.0, 0.0}}};
  VerifiedRegion lying;
  lying.region = geom::Rect{-2.0, -2.0, 2.0, 2.0};
  lying.pois.push_back(server[1]);  // omits POI 0, which is inside
  const auto result =
      core::NearestNeighborVerify({0.0, 0.0}, 1, {PeerData{{lying}}}, 0.1);
  ASSERT_EQ(result.heap.entries().size(), 1u);
  EXPECT_TRUE(result.heap.entries()[0].verified);   // NNV believes the peer
  EXPECT_EQ(result.heap.entries()[0].poi.id, 1);    // ...and is wrong
}

TEST(FailureInjectionTest, DegenerateZeroAreaWindow) {
  Rng rng(8);
  auto system = MakeSystem(spatial::GenerateUniformPois(&rng, kWorld, 60));
  const geom::Rect line{5.0, 5.0, 5.0, 9.0};  // zero width
  const auto outcome = core::RunSbwq(line, {}, {}, *system, 0);
  EXPECT_EQ(outcome.pois, spatial::BruteForceWindow(system->pois(), line));
}

}  // namespace
}  // namespace lbsq
