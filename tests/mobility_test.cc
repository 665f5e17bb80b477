#include "sim/mobility.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/config.h"
#include "sim/manhattan_mobility.h"
#include "sim/workload.h"

namespace lbsq::sim {
namespace {

const geom::Rect kWorld{0.0, 0.0, 10.0, 10.0};

TEST(MobilityTest, PositionsStayInWorld) {
  RandomWaypointModel model(kWorld, 20, 0.5, 1.0, 1);
  for (double t = 0.0; t < 100.0; t += 0.37) {
    for (int64_t h = 0; h < 20; ++h) {
      const geom::Point p = model.Position(h, t);
      EXPECT_TRUE(kWorld.Contains(p)) << "host " << h << " t " << t;
    }
  }
}

TEST(MobilityTest, MovementRespectsSpeedBounds) {
  RandomWaypointModel model(kWorld, 10, 0.5, 1.0, 2);
  std::vector<geom::Point> prev(10);
  for (int64_t h = 0; h < 10; ++h) prev[static_cast<size_t>(h)] = model.Position(h, 0.0);
  const double dt = 0.01;
  for (double t = dt; t < 20.0; t += dt) {
    for (int64_t h = 0; h < 10; ++h) {
      const geom::Point p = model.Position(h, t);
      const double moved = geom::Distance(p, prev[static_cast<size_t>(h)]);
      // Within one leg speed <= max; across a waypoint turn the path is two
      // segments, so displacement is still bounded by max speed * dt.
      EXPECT_LE(moved, 1.0 * dt + 1e-9);
      prev[static_cast<size_t>(h)] = p;
    }
  }
}

TEST(MobilityTest, HostsActuallyMove) {
  RandomWaypointModel model(kWorld, 5, 0.5, 1.0, 3);
  for (int64_t h = 0; h < 5; ++h) {
    const geom::Point a = model.Position(h, 0.0);
    const geom::Point b = model.Position(h, 5.0);
    EXPECT_GT(geom::Distance(a, b), 1e-6);
  }
}

TEST(MobilityTest, HeadingIsUnitVector) {
  RandomWaypointModel model(kWorld, 8, 0.5, 1.0, 4);
  for (int64_t h = 0; h < 8; ++h) {
    model.Position(h, 3.0);
    const geom::Point dir = model.Heading(h);
    EXPECT_NEAR(geom::Norm(dir), 1.0, 1e-9);
  }
}

TEST(MobilityTest, DeterministicAcrossInstances) {
  RandomWaypointModel a(kWorld, 6, 0.5, 1.0, 77);
  RandomWaypointModel b(kWorld, 6, 0.5, 1.0, 77);
  for (double t = 0.0; t < 30.0; t += 1.3) {
    for (int64_t h = 0; h < 6; ++h) {
      EXPECT_EQ(a.Position(h, t), b.Position(h, t));
    }
  }
}

TEST(MobilityTest, LongHorizonAdvancesManyLegs) {
  RandomWaypointModel model(kWorld, 3, 1.0, 2.0, 5);
  // 10000 minutes at ~1.5 world-units/minute crosses the world many times.
  for (int64_t h = 0; h < 3; ++h) {
    const geom::Point p = model.Position(h, 10000.0);
    EXPECT_TRUE(kWorld.Contains(p));
  }
}

TEST(MobilityTest, HeadingPointsTowardDestination) {
  RandomWaypointModel model(kWorld, 10, 0.5, 1.0, 6);
  for (int64_t h = 0; h < 10; ++h) {
    const geom::Point p0 = model.Position(h, 0.0);
    const geom::Point dir = model.Heading(h);
    const geom::Point p1 = model.Position(h, 0.001);
    // Short-horizon displacement aligns with the reported heading.
    const geom::Point d = p1 - p0;
    if (geom::Norm(d) > 0.0) {
      EXPECT_GT(geom::Dot(d, dir), 0.0);
    }
  }
}

// Checks |Position(h, t2) - Position(h, t1)| <= MaxTravel(t2 - t1) over
// every pair of a random, increasing time sequence per host. Steps range
// from a rounding-sized nudge to several legs, so many pairs straddle leg
// boundaries (the number of such pairs is returned).
int ExpectTravelBounded(MobilityModel* model, double world_side,
                        uint64_t seed) {
  Rng rng(seed);
  const double leg = world_side / model->MaxSpeed();
  int straddling = 0;
  for (int64_t h = 0; h < std::min<int64_t>(model->num_hosts(), 25); ++h) {
    std::vector<double> times;
    std::vector<geom::Point> positions;
    std::vector<geom::Point> headings;
    double t = rng.Uniform(0.0, leg);
    for (int i = 0; i < 40; ++i) {
      const int kind = static_cast<int>(rng.NextBelow(3));
      t += kind == 0 ? rng.Uniform(0.0, 1e-9)
                     : rng.Uniform(0.0, kind == 1 ? 0.1 * leg : 2.0 * leg);
      times.push_back(t);
      positions.push_back(model->Position(h, t));
      headings.push_back(model->Heading(h));
    }
    for (size_t i = 0; i < times.size(); ++i) {
      for (size_t j = i + 1; j < times.size(); ++j) {
        const double moved = geom::Distance(positions[j], positions[i]);
        EXPECT_LE(moved, MaxTravel(*model, times[j] - times[i]))
            << "host " << h << " t1 " << times[i] << " t2 " << times[j];
        if (!(headings[i] == headings[j])) ++straddling;
      }
    }
  }
  return straddling;
}

TEST(MobilityTest, MaxTravelBoundsEveryModel) {
  RandomWaypointModel waypoint(kWorld, 30, 0.5, 1.0, 5);
  EXPECT_EQ(waypoint.MaxSpeed(), 1.0);
  EXPECT_GT(ExpectTravelBounded(&waypoint, 10.0, 1), 0);

  ManhattanGridModel grid(kWorld, 30, 0.3, 0.5, 1.0, 6);
  EXPECT_EQ(grid.MaxSpeed(), 1.0);
  EXPECT_GT(ExpectTravelBounded(&grid, 10.0, 2), 0);

  // The fleets the simulators build, at Table 3 speeds and at the speeds
  // the paper-geometry mode scales down with the world.
  for (const MobilityType type :
       {MobilityType::kRandomWaypoint, MobilityType::kManhattanGrid}) {
    for (const bool paper_geometry : {false, true}) {
      SimConfig config;
      config.params = LosAngelesCity();
      config.world_side_mi = 2.0;
      config.mobility = type;
      config.paper_window_geometry = paper_geometry;
      const geom::Rect world{0.0, 0.0, 2.0, 2.0};
      const std::unique_ptr<MobilityModel> fleet =
          MakeMobilityModel(config, world);
      const double scale = paper_geometry ? 2.0 / kPaperWorldSideMiles : 1.0;
      EXPECT_DOUBLE_EQ(fleet->MaxSpeed(),
                       config.speed_max_mph / 60.0 * scale);
      EXPECT_GT(ExpectTravelBounded(fleet.get(), 2.0, 3), 0)
          << "paper geometry " << paper_geometry;
    }
  }
}

}  // namespace
}  // namespace lbsq::sim
