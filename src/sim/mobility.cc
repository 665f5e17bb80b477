#include "sim/mobility.h"

#include <cmath>

#include "common/check.h"

namespace lbsq::sim {

double MaxTravel(const MobilityModel& model, double minutes) {
  return model.MaxSpeed() * minutes * (1.0 + 1e-9) + 1e-9;
}

RandomWaypointModel::RandomWaypointModel(const geom::Rect& world,
                                         int64_t num_hosts, double speed_min,
                                         double speed_max, uint64_t seed)
    : world_(world), speed_min_(speed_min), speed_max_(speed_max) {
  LBSQ_CHECK(!world.empty());
  LBSQ_CHECK(num_hosts >= 1);
  LBSQ_CHECK(speed_min > 0.0 && speed_min <= speed_max);
  legs_.resize(static_cast<size_t>(num_hosts));
  rngs_.reserve(static_cast<size_t>(num_hosts));
  for (int64_t i = 0; i < num_hosts; ++i) {
    rngs_.emplace_back(DeriveStreamSeed(seed, static_cast<uint64_t>(i)));
    Rng& rng = rngs_.back();
    const geom::Point start{rng.Uniform(world.x1, world.x2),
                            rng.Uniform(world.y1, world.y2)};
    StartNewLeg(i, start, 0.0);
  }
}

void RandomWaypointModel::StartNewLeg(int64_t host, geom::Point from,
                                      double t) {
  Rng& rng = rngs_[static_cast<size_t>(host)];
  Leg& leg = legs_[static_cast<size_t>(host)];
  leg.from = from;
  leg.to = geom::Point{rng.Uniform(world_.x1, world_.x2),
                       rng.Uniform(world_.y1, world_.y2)};
  const double speed = rng.Uniform(speed_min_, speed_max_);
  const double distance = geom::Distance(leg.from, leg.to);
  leg.depart_time = t;
  leg.arrive_time = t + distance / speed;
}

geom::Point RandomWaypointModel::Position(int64_t host, double t) {
  LBSQ_CHECK(host >= 0 && host < num_hosts());
  Leg* leg = &legs_[static_cast<size_t>(host)];
  LBSQ_CHECK(t >= leg->depart_time);
  while (t > leg->arrive_time) {
    StartNewLeg(host, leg->to, leg->arrive_time);
  }
  const double span = leg->arrive_time - leg->depart_time;
  if (span <= 0.0) return leg->to;
  const double frac = (t - leg->depart_time) / span;
  return leg->from + (leg->to - leg->from) * frac;
}

geom::Point RandomWaypointModel::Heading(int64_t host) const {
  LBSQ_CHECK(host >= 0 && host < num_hosts());
  const Leg& leg = legs_[static_cast<size_t>(host)];
  const geom::Point d = leg.to - leg.from;
  const double norm = geom::Norm(d);
  if (norm <= 0.0) return geom::Point{0.0, 0.0};
  return d * (1.0 / norm);
}

}  // namespace lbsq::sim
