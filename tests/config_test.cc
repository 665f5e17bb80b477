#include "sim/config.h"

#include <gtest/gtest.h>

namespace lbsq::sim {
namespace {

TEST(ConfigTest, Table3LosAngeles) {
  const ParameterSet p = LosAngelesCity();
  EXPECT_EQ(p.poi_number, 2750);
  EXPECT_EQ(p.mh_number, 93300);
  EXPECT_EQ(p.csize, 50);
  EXPECT_EQ(p.query_per_min, 6220);
  EXPECT_EQ(p.tx_range_m, 200);
  EXPECT_EQ(p.knn_k, 5);
  EXPECT_EQ(p.window_pct, 3);
  EXPECT_EQ(p.distance_mi, 1);
  EXPECT_EQ(p.t_execution_hr, 10);
}

TEST(ConfigTest, Table3Riverside) {
  const ParameterSet p = RiversideCounty();
  EXPECT_EQ(p.poi_number, 1450);
  EXPECT_EQ(p.mh_number, 9700);
  EXPECT_EQ(p.query_per_min, 650);
}

TEST(ConfigTest, Table3Suburbia) {
  const ParameterSet p = SyntheticSuburbia();
  EXPECT_EQ(p.poi_number, 2100);
  EXPECT_EQ(p.mh_number, 51500);
  EXPECT_EQ(p.query_per_min, 3440);
  // Suburbia lies between LA and Riverside on every density.
  EXPECT_GT(p.MhDensity(), RiversideCounty().MhDensity());
  EXPECT_LT(p.MhDensity(), LosAngelesCity().MhDensity());
  EXPECT_GT(p.PoiDensity(), RiversideCounty().PoiDensity());
  EXPECT_LT(p.PoiDensity(), LosAngelesCity().PoiDensity());
}

TEST(ConfigTest, DensitiesUseFullArea) {
  const ParameterSet p = LosAngelesCity();
  EXPECT_DOUBLE_EQ(p.PoiDensity(), 2750.0 / 400.0);
  EXPECT_DOUBLE_EQ(p.MhDensity(), 93300.0 / 400.0);
  EXPECT_DOUBLE_EQ(p.QueryRatePerSqMiPerMin(), 6220.0 / 400.0);
}

TEST(ConfigTest, FullScaleRoundTrips) {
  SimConfig config;
  config.params = LosAngelesCity();
  config.world_side_mi = kPaperWorldSideMiles;
  EXPECT_DOUBLE_EQ(config.Scale(), 1.0);
  EXPECT_EQ(config.ScaledMhCount(), 93300);
  EXPECT_EQ(config.ScaledPoiCount(), 2750);
  EXPECT_DOUBLE_EQ(config.ScaledQueriesPerMin(), 6220.0);
}

TEST(ConfigTest, ScaledWorldPreservesDensities) {
  SimConfig config;
  config.params = SyntheticSuburbia();
  config.world_side_mi = 4.0;
  const double area = 16.0;
  EXPECT_NEAR(static_cast<double>(config.ScaledMhCount()) / area,
              config.params.MhDensity(), 0.5);
  EXPECT_NEAR(static_cast<double>(config.ScaledPoiCount()) / area,
              config.params.PoiDensity(), 0.5);
  EXPECT_NEAR(config.ScaledQueriesPerMin() / area,
              config.params.QueryRatePerSqMiPerMin(), 1e-9);
}

TEST(ConfigTest, ScaledCountsNeverZero) {
  SimConfig config;
  config.params = RiversideCounty();
  config.world_side_mi = 0.1;
  EXPECT_GE(config.ScaledMhCount(), 1);
  EXPECT_GE(config.ScaledPoiCount(), 1);
}

TEST(ConfigTest, MetersToMiles) {
  EXPECT_NEAR(200.0 * kMilesPerMeter, 0.1243, 0.0001);
}

TEST(ConfigTest, ValidateAcceptsDefaults) {
  SimConfig config;
  config.Validate();  // must not abort
}

TEST(ConfigTest, ValidateRejectsBadKnobs) {
  SimConfig zero_world;
  zero_world.world_side_mi = 0.0;
  EXPECT_DEATH(zero_world.Validate(), "LBSQ_CHECK");

  SimConfig zero_threads;
  zero_threads.threads = 0;
  EXPECT_DEATH(zero_threads.Validate(), "LBSQ_CHECK");

  SimConfig bad_fraction;
  bad_fraction.mixed_window_fraction = 1.5;
  EXPECT_DEATH(bad_fraction.Validate(), "LBSQ_CHECK");

  SimConfig bad_correctness;
  bad_correctness.min_correctness = -0.1;
  EXPECT_DEATH(bad_correctness.Validate(), "LBSQ_CHECK");

  SimConfig negative_duration;
  negative_duration.duration_min = -5.0;
  EXPECT_DEATH(negative_duration.Validate(), "LBSQ_CHECK");
}

TEST(ConfigTest, FirstViolationNamesTheRuleValidateAbortsOn) {
  EXPECT_EQ(SimConfig{}.FirstViolation(), nullptr);

  SimConfig no_hops;
  no_hops.p2p_hops = 0;
  EXPECT_STREQ(no_hops.FirstViolation(), "p2p_hops >= 1");
  EXPECT_DEATH(no_hops.Validate(), "LBSQ_CHECK failed: p2p_hops >= 1");

  // Nested validators report their own rule.
  SimConfig bad_loss;
  bad_loss.fault.channel.loss_prob = 1.5;
  EXPECT_STREQ(bad_loss.FirstViolation(),
               "loss_prob >= 0.0 && loss_prob < 1.0");
  SimConfig bad_interval;
  bad_interval.updates.interval_events = -3;
  EXPECT_STREQ(bad_interval.FirstViolation(), "interval_events >= 0");

  // Combinations a sharded deployment does not support.
  SimConfig sharded_faults;
  sharded_faults.shards = 4;
  sharded_faults.fault.channel.model = fault::LossModel::kIid;
  sharded_faults.fault.channel.loss_prob = 0.1;
  EXPECT_STREQ(sharded_faults.FirstViolation(),
               "shards == 1 || !fault.enabled()");
}

}  // namespace
}  // namespace lbsq::sim
