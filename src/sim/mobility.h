#ifndef LBSQ_SIM_MOBILITY_H_
#define LBSQ_SIM_MOBILITY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "geom/point.h"
#include "geom/rect.h"

/// \file
/// The random waypoint mobility model (Broch et al.), the paper's mobility
/// model: each host repeatedly picks a uniform destination in the world and
/// travels to it in a straight line at a uniformly drawn speed (zero pause
/// time). Positions are closed-form along each leg, so the model is queried
/// lazily at arbitrary (non-decreasing) times without a tick loop, and a
/// host's position at time t does not depend on how often, or at which
/// earlier times, it was queried before.
///
/// Every host draws from its own counter-based RNG stream
/// (`DeriveStreamSeed(seed, host)`), so a host's trajectory depends only on
/// the model seed and its id — never on how far any other host has been
/// advanced. Clone() therefore yields an independent replica that generates
/// bit-identical trajectories: the parallel engine hands each worker thread
/// its own clone and lets it advance hosts freely without synchronization.

namespace lbsq::sim {

/// Interface for host mobility models. Implementations must be
/// deterministic given their seed and support lazy, non-decreasing-time
/// position queries per host.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Number of hosts.
  virtual int64_t num_hosts() const = 0;

  /// Position of `host` at time `t` (minutes, non-decreasing per host).
  virtual geom::Point Position(int64_t host, double t) = 0;

  /// Unit vector of the host's current direction of travel (zero when
  /// stationary). Valid for the time of the most recent Position() call.
  virtual geom::Point Heading(int64_t host) const = 0;

  /// Upper bound on every host's speed (world units per minute): a host
  /// travels at most MaxSpeed() * (t2 - t1) between times t1 <= t2, up to
  /// the rounding of the leg interpolation (see MaxTravel).
  virtual double MaxSpeed() const = 0;

  /// Independent replica producing bit-identical trajectories, reset to this
  /// model's current state. Clones share nothing; advancing one never
  /// affects another.
  virtual std::unique_ptr<MobilityModel> Clone() const = 0;
};

/// How far any host of `model` can travel in `minutes` (>= 0):
/// MaxSpeed() * minutes plus a relative and an absolute margin (1e-9 each)
/// that cover the rounding of the leg interpolation and of leg boundaries.
/// Over-estimating is safe for its consumers, which filter by exact
/// positions afterwards.
double MaxTravel(const MobilityModel& model, double minutes);

/// Random-waypoint trajectories for a fleet of hosts.
class RandomWaypointModel : public MobilityModel {
 public:
  /// `num_hosts` hosts with uniform starting positions in `world`, moving at
  /// speeds uniform in [speed_min, speed_max] (world units per minute).
  /// Host `h` draws from the counter-based stream `(seed, h)`.
  RandomWaypointModel(const geom::Rect& world, int64_t num_hosts,
                      double speed_min, double speed_max, uint64_t seed);

  /// Number of hosts.
  int64_t num_hosts() const override {
    return static_cast<int64_t>(legs_.size());
  }

  /// Position of `host` at time `t` (minutes). Times must be non-decreasing
  /// per host; the model advances through legs lazily.
  geom::Point Position(int64_t host, double t) override;

  /// Unit vector of the host's current direction of travel (zero vector
  /// when the current leg is degenerate). Valid for the time of the most
  /// recent Position() call for this host.
  geom::Point Heading(int64_t host) const override;

  double MaxSpeed() const override { return speed_max_; }

  std::unique_ptr<MobilityModel> Clone() const override {
    return std::make_unique<RandomWaypointModel>(*this);
  }

 private:
  struct Leg {
    geom::Point from;
    geom::Point to;
    double depart_time = 0.0;
    double arrive_time = 0.0;
  };

  void StartNewLeg(int64_t host, geom::Point from, double t);

  geom::Rect world_;
  double speed_min_;
  double speed_max_;
  std::vector<Leg> legs_;
  std::vector<Rng> rngs_;
};

}  // namespace lbsq::sim

#endif  // LBSQ_SIM_MOBILITY_H_
