#include "spatial/grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "geom/point.h"
#include "kernels/dispatch.h"

namespace lbsq::spatial {
namespace {

const geom::Rect kWorld{0.0, 0.0, 10.0, 10.0};

std::vector<int64_t> BruteForceDisc(const std::vector<geom::Point>& pts,
                                    geom::Point center, double radius) {
  std::vector<int64_t> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (geom::Distance(pts[i], center) <= radius) {
      out.push_back(static_cast<int64_t>(i));
    }
  }
  return out;
}

TEST(GridIndexTest, EmptyIndex) {
  GridIndex index(kWorld, 1.0);
  index.Rebuild({});
  std::vector<int64_t> out;
  index.QueryDisc({5.0, 5.0}, 3.0, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index.size(), 0);
}

TEST(GridIndexTest, MatchesBruteForce) {
  Rng rng(3);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)});
  }
  GridIndex index(kWorld, 0.7);
  index.Rebuild(pts);
  for (int trial = 0; trial < 50; ++trial) {
    const geom::Point c{rng.Uniform(-1.0, 11.0), rng.Uniform(-1.0, 11.0)};
    const double r = rng.Uniform(0.1, 3.0);
    std::vector<int64_t> got;
    index.QueryDisc(c, r, &got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BruteForceDisc(pts, c, r));
  }
}

TEST(GridIndexTest, ClosedBallIncludesBoundary) {
  GridIndex index(kWorld, 1.0);
  index.Rebuild({{2.0, 2.0}, {5.0, 2.0}});
  std::vector<int64_t> out;
  index.QueryDisc({2.0, 2.0}, 3.0, &out);  // second point at exactly r
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, (std::vector<int64_t>{0, 1}));
}

TEST(GridIndexTest, RebuildReplacesContent) {
  GridIndex index(kWorld, 1.0);
  index.Rebuild({{1.0, 1.0}});
  index.Rebuild({{9.0, 9.0}});
  std::vector<int64_t> out;
  index.QueryDisc({1.0, 1.0}, 0.5, &out);
  EXPECT_TRUE(out.empty());
  index.QueryDisc({9.0, 9.0}, 0.5, &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(index.position(0), (geom::Point{9.0, 9.0}));
}

TEST(GridIndexTest, PointsOutsideWorldClampIntoBorderCells) {
  GridIndex index(kWorld, 1.0);
  index.Rebuild({{-5.0, -5.0}, {15.0, 15.0}});
  std::vector<int64_t> out;
  index.QueryDisc({-5.0, -5.0}, 1.0, &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0);
}

// Unsorted world-covering scan: QueryDisc appends each row of the CSR slab
// in storage order, so an all-covering disc reads the entire slab back in
// layout order. Equal unsorted scans mean equal slabs — the bit-identity
// ApplyMoves promises against Rebuild.
std::vector<int64_t> SlabScan(const GridIndex& index) {
  std::vector<int64_t> out;
  index.QueryDisc({5.0, 5.0}, 100.0, &out);
  return out;
}

TEST(GridIndexTest, ApplyMovesMatchesRebuildUnderJitter) {
  Rng rng(11);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 400; ++i) {
    pts.push_back({rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)});
  }
  GridIndex patched(kWorld, 0.9);
  GridIndex rebuilt(kWorld, 0.9);
  patched.Rebuild(pts);
  for (int step = 0; step < 60; ++step) {
    // Small jitter: most points stay in their cell, a few cross.
    for (geom::Point& p : pts) {
      p.x = std::clamp(p.x + rng.Uniform(-0.3, 0.3), 0.0, 10.0);
      p.y = std::clamp(p.y + rng.Uniform(-0.3, 0.3), 0.0, 10.0);
    }
    patched.ApplyMoves(pts);
    rebuilt.Rebuild(pts);
    ASSERT_EQ(SlabScan(patched), SlabScan(rebuilt)) << "step " << step;
    const geom::Point c{rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
    const double r = rng.Uniform(0.2, 2.5);
    std::vector<int64_t> got;
    patched.QueryDisc(c, r, &got);
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, BruteForceDisc(pts, c, r)) << "step " << step;
  }
}

TEST(GridIndexTest, ApplyMovesMatchesRebuildUnderTeleports) {
  // Every point relocates uniformly each step: worst case, everything
  // crosses cells and every row is dirty.
  Rng rng(17);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)});
  }
  GridIndex patched(kWorld, 1.2);
  GridIndex rebuilt(kWorld, 1.2);
  patched.Rebuild(pts);
  for (int step = 0; step < 30; ++step) {
    for (geom::Point& p : pts) {
      p = {rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)};
    }
    patched.ApplyMoves(pts);
    rebuilt.Rebuild(pts);
    ASSERT_EQ(SlabScan(patched), SlabScan(rebuilt)) << "step " << step;
  }
}

TEST(GridIndexTest, ApplyMovesNoMoversIsIdentity) {
  Rng rng(23);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 100; ++i) {
    pts.push_back({rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)});
  }
  GridIndex index(kWorld, 1.0);
  index.Rebuild(pts);
  const std::vector<int64_t> before = SlabScan(index);
  index.ApplyMoves(pts);
  EXPECT_EQ(SlabScan(index), before);
}

TEST(GridIndexTest, ApplyMovesFallsBackOnSizeChange) {
  GridIndex index(kWorld, 1.0);
  index.Rebuild({{1.0, 1.0}, {2.0, 2.0}});
  index.ApplyMoves({{3.0, 3.0}});  // Shrink: must take the Rebuild path.
  EXPECT_EQ(index.size(), 1);
  EXPECT_EQ(index.position(0), (geom::Point{3.0, 3.0}));
  index.ApplyMoves({{4.0, 4.0}, {5.0, 5.0}, {6.0, 6.0}});  // Grow.
  EXPECT_EQ(index.size(), 3);
  std::vector<int64_t> out;
  index.QueryDisc({5.0, 5.0}, 0.5, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{1}));
}

TEST(GridIndexTest, TinyCellSizeClamped) {
  // Requested cell size far below the 1024-per-axis cap must not blow up.
  GridIndex index(kWorld, 1e-9);
  Rng rng(5);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 100; ++i) {
    pts.push_back({rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)});
  }
  index.Rebuild(pts);
  std::vector<int64_t> out;
  index.QueryDisc({5.0, 5.0}, 10.0, &out);
  EXPECT_EQ(out.size(), 100u);
}

// QueryDiscMoved on a stale index against QueryDisc on an index rebuilt
// from the current positions: the same ids in the same order.
std::vector<int64_t> MovedDisc(const GridIndex& stale,
                               const std::vector<geom::Point>& now,
                               geom::Point center, double radius,
                               double slack) {
  GridIndex::MovedScratch scratch;
  std::vector<int64_t> out = {-7};  // QueryDiscMoved appends.
  stale.QueryDiscMoved(
      center, radius, slack,
      [&now](int64_t id) { return now[static_cast<size_t>(id)]; }, &scratch,
      &out);
  return std::vector<int64_t>(out.begin() + 1, out.end());
}

std::vector<int64_t> FreshDisc(const GridIndex& fresh, geom::Point center,
                               double radius) {
  std::vector<int64_t> out;
  fresh.QueryDisc(center, radius, &out);
  return out;
}

// Moves every point by at most `slack` in a uniform direction; a third of
// the points move the full slack along an axis.
std::vector<geom::Point> MoveBy(Rng* rng, std::vector<geom::Point> pts,
                                double slack) {
  for (geom::Point& p : pts) {
    switch (rng->NextBelow(3)) {
      case 0: {
        const double d = rng->Uniform(0.0, slack);
        const double a = rng->Uniform(0.0, 2.0 * M_PI);
        const geom::Point moved{p.x + d * std::cos(a), p.y + d * std::sin(a)};
        if (geom::Distance(moved, p) <= slack) p = moved;
        break;
      }
      case 1:
        p.x += rng->NextBool(0.5) ? slack : -slack;
        break;
      default:
        p.y += rng->NextBool(0.5) ? slack : -slack;
        break;
    }
  }
  return pts;
}

// Runs the comparison at the scalar tier and at the highest tier.
class GridIndexMovedTest : public ::testing::Test {
 protected:
  void TearDown() override { kernels::SetActiveTier(before_); }
  const kernels::SimdTier before_ = kernels::ActiveTier();
  const std::vector<kernels::SimdTier> tiers_ = {
      kernels::SimdTier::kScalar, kernels::MaxSupportedTier()};
};

TEST_F(GridIndexMovedTest, RandomFleetsMatchRebuiltIndex) {
  // Cell sizes from the 1024-per-axis floor up to a quarter of the world.
  int out_of_id_order = 0;
  for (const kernels::SimdTier tier : tiers_) {
    ASSERT_TRUE(kernels::SetActiveTier(tier));
    Rng rng(41);
    for (const double cell : {0.001, 0.3, 0.7, 1.0, 2.5}) {
      for (const double slack : {0.0, 0.0625, 0.25, 1.0}) {
        std::vector<geom::Point> built;
        for (int i = 0; i < 300; ++i) {
          built.push_back({rng.Uniform(0.0, 10.0), rng.Uniform(0.0, 10.0)});
        }
        GridIndex stale(kWorld, cell);
        stale.Rebuild(built);
        // Zero motion first (the slack may still be positive), then moved.
        for (const bool move : {false, true}) {
          const std::vector<geom::Point> now =
              move ? MoveBy(&rng, built, slack) : built;
          GridIndex fresh(kWorld, cell);
          fresh.Rebuild(now);
          for (int trial = 0; trial < 20; ++trial) {
            // Centres cover the world, its corners and beyond its border.
            const geom::Point c =
                trial < 4 ? geom::Point{trial % 2 == 0 ? 0.0 : 10.0,
                                        trial < 2 ? 0.0 : 10.0}
                          : geom::Point{rng.Uniform(-2.0, 12.0),
                                        rng.Uniform(-2.0, 12.0)};
            const double r = rng.Uniform(0.1, 3.0);
            const std::vector<int64_t> want = FreshDisc(fresh, c, r);
            ASSERT_EQ(MovedDisc(stale, now, c, r, slack), want)
                << kernels::TierName(tier) << " cell " << cell << " slack "
                << slack << " trial " << trial;
            if (!std::is_sorted(want.begin(), want.end())) ++out_of_id_order;
          }
        }
      }
    }
  }
  // The row-major cell order must differ from plain id order somewhere, or
  // the comparison could not tell the two apart.
  EXPECT_GT(out_of_id_order, 0);
}

TEST_F(GridIndexMovedTest, BoundaryHostsMatchRebuiltIndex) {
  // Dyadic coordinates keep every distance exact: hosts sit exactly on the
  // radius, on cell edges and on the edges of the disc's cell range, after
  // moving exactly the slack.
  const geom::Point c{5.0, 5.0};
  const double r = 1.5;
  const double slack = 0.25;
  std::vector<geom::Point> now = {
      {6.5, 5.0},  {3.5, 5.0},   {5.0, 6.5},  {5.0, 3.5},   // on the radius
      {6.5, 5.25}, {6.25, 6.0},  {4.0, 4.0},  {6.0, 6.0},   // cell edges
      {3.0, 5.0},  {7.0, 5.0},   {5.0, 7.0},  {5.0, 3.0},   // range edges
      {0.0, 0.0},  {10.0, 10.0}, {5.5, 5.5},  {4.75, 5.25}};
  for (const kernels::SimdTier tier : tiers_) {
    ASSERT_TRUE(kernels::SetActiveTier(tier));
    for (const double cell : {0.5, 1.0, 1.5}) {
      for (int dir = 0; dir < 4; ++dir) {
        // Index the hosts where they were `slack` ago along one axis.
        std::vector<geom::Point> built = now;
        for (geom::Point& p : built) {
          if (dir == 0) p.x -= slack;
          if (dir == 1) p.x += slack;
          if (dir == 2) p.y -= slack;
          if (dir == 3) p.y += slack;
        }
        GridIndex stale(kWorld, cell);
        stale.Rebuild(built);
        GridIndex fresh(kWorld, cell);
        fresh.Rebuild(now);
        for (const geom::Point center : {c, geom::Point{6.5, 5.0}}) {
          ASSERT_EQ(MovedDisc(stale, now, center, r, slack),
                    FreshDisc(fresh, center, r))
              << kernels::TierName(tier) << " cell " << cell << " dir "
              << dir;
        }
      }
    }
  }
}

TEST_F(GridIndexMovedTest, HostsLeavingTheWorldMatchRebuiltIndex) {
  // Hosts near the border move out of the world; their cells clamp the
  // same way in the stale and the rebuilt index.
  for (const kernels::SimdTier tier : tiers_) {
    ASSERT_TRUE(kernels::SetActiveTier(tier));
    Rng rng(53);
    std::vector<geom::Point> built;
    for (int i = 0; i < 200; ++i) {
      built.push_back({rng.Uniform(0.0, 10.0), rng.NextBool(0.5)
                                                   ? rng.Uniform(0.0, 0.5)
                                                   : rng.Uniform(9.5, 10.0)});
    }
    const double slack = 0.75;
    GridIndex stale(kWorld, 0.5);
    stale.Rebuild(built);
    const std::vector<geom::Point> now = MoveBy(&rng, built, slack);
    GridIndex fresh(kWorld, 0.5);
    fresh.Rebuild(now);
    for (int trial = 0; trial < 50; ++trial) {
      const geom::Point c{rng.Uniform(-1.0, 11.0),
                          rng.NextBool(0.5) ? rng.Uniform(-1.0, 1.0)
                                            : rng.Uniform(9.0, 11.0)};
      const double r = rng.Uniform(0.2, 2.0);
      ASSERT_EQ(MovedDisc(stale, now, c, r, slack), FreshDisc(fresh, c, r))
          << kernels::TierName(tier) << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace lbsq::spatial
