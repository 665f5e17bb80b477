#ifndef LBSQ_SIM_MANHATTAN_MOBILITY_H_
#define LBSQ_SIM_MANHATTAN_MOBILITY_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "sim/mobility.h"

/// \file
/// Manhattan-grid mobility: vehicles move along a regular grid of streets,
/// choosing at each intersection to continue straight (probability 1/2) or
/// turn left/right (1/4 each, renormalized at the world border). The paper
/// maps its random-waypoint trajectories onto an underlying road network;
/// this model is the standard road-constrained abstraction of that setup
/// and is offered as an alternative to pure random waypoint.

namespace lbsq::sim {

/// Grid-street trajectories for a fleet of hosts.
class ManhattanGridModel : public MobilityModel {
 public:
  /// `num_hosts` hosts on a street grid with `block` spacing (world units)
  /// over `world`, at speeds uniform in [speed_min, speed_max] (world units
  /// per minute). Hosts start at uniformly chosen intersections. Host `h`
  /// draws from the counter-based stream `(seed, h)` (see MobilityModel).
  ManhattanGridModel(const geom::Rect& world, int64_t num_hosts, double block,
                     double speed_min, double speed_max, uint64_t seed);

  int64_t num_hosts() const override {
    return static_cast<int64_t>(hosts_.size());
  }
  geom::Point Position(int64_t host, double t) override;
  geom::Point Heading(int64_t host) const override;
  double MaxSpeed() const override { return speed_max_; }
  std::unique_ptr<MobilityModel> Clone() const override {
    return std::make_unique<ManhattanGridModel>(*this);
  }

  /// Street spacing actually used (the requested block, clamped so at least
  /// two intersections exist per axis).
  double block() const { return block_; }

 private:
  struct HostState {
    // Intersection grid coordinates the current leg starts from, direction
    // of travel, and timing.
    int ix = 0;
    int iy = 0;
    int dx = 0;  // one of (+-1, 0)
    int dy = 0;
    double depart_time = 0.0;
    double arrive_time = 0.0;
  };

  geom::Point Intersection(int ix, int iy) const;
  /// Picks the next direction at intersection (ix, iy) given the incoming
  /// direction, renormalizing straight/left/right over in-bounds options.
  void PickDirection(HostState* host, Rng* rng) const;
  void StartLeg(HostState* host, Rng* rng, double t) const;

  geom::Rect world_;
  double block_;
  int cells_x_;  // intersections per axis minus 1
  int cells_y_;
  double speed_min_;
  double speed_max_;
  std::vector<HostState> hosts_;
  std::vector<Rng> rngs_;
};

}  // namespace lbsq::sim

#endif  // LBSQ_SIM_MANHATTAN_MOBILITY_H_
