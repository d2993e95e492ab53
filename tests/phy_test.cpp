#include <gtest/gtest.h>

#include "phy/channel.h"
#include "phy/error_model.h"
#include "phy/radio_env.h"

namespace flexran::phy {
namespace {

using sim::from_seconds;
using sim::TimeUs;

// -------------------------------------------------------------- Channels --

TEST(FixedCqiChannel, ReportsExactCqi) {
  FixedCqiChannel channel(7);
  EXPECT_EQ(channel.cqi(0), 7);
  EXPECT_EQ(channel.cqi(from_seconds(100)), 7);
}

TEST(FixedCqiChannel, SinrConsistentWithCqi) {
  for (int cqi = 1; cqi <= 15; ++cqi) {
    FixedCqiChannel channel(cqi);
    EXPECT_EQ(lte::sinr_db_to_cqi(channel.sinr_db(0)), cqi);
  }
}

TEST(ScheduledCqiChannel, FollowsSchedule) {
  ScheduledCqiChannel channel({{0, 3}, {from_seconds(10), 2}, {from_seconds(20), 3}});
  EXPECT_EQ(channel.cqi(from_seconds(5)), 3);
  EXPECT_EQ(channel.cqi(from_seconds(10)), 2);
  EXPECT_EQ(channel.cqi(from_seconds(15)), 2);
  EXPECT_EQ(channel.cqi(from_seconds(25)), 3);
}

TEST(ScheduledCqiChannel, BeforeFirstStepUsesFirstValue) {
  ScheduledCqiChannel channel({{from_seconds(10), 9}});
  EXPECT_EQ(channel.cqi(0), 9);
}

TEST(ScheduledCqiChannel, SquareWaveToggles) {
  auto channel = ScheduledCqiChannel::square_wave(10, 4, from_seconds(5), from_seconds(30));
  EXPECT_EQ(channel->cqi(from_seconds(1)), 10);
  EXPECT_EQ(channel->cqi(from_seconds(6)), 4);
  EXPECT_EQ(channel->cqi(from_seconds(11)), 10);
  EXPECT_EQ(channel->cqi(from_seconds(16)), 4);
}

TEST(TraceCqiChannel, ReplaysHoldsAndLoops) {
  TraceCqiChannel holding({5, 10, 15}, from_seconds(1), /*loop=*/false);
  EXPECT_EQ(holding.cqi(0), 5);
  EXPECT_EQ(holding.cqi(from_seconds(1.5)), 10);
  EXPECT_EQ(holding.cqi(from_seconds(2.1)), 15);
  EXPECT_EQ(holding.cqi(from_seconds(99)), 15);  // holds last sample

  TraceCqiChannel looping({5, 10, 15}, from_seconds(1), /*loop=*/true);
  EXPECT_EQ(looping.cqi(from_seconds(3.2)), 5);  // wraps around
  EXPECT_EQ(looping.cqi(from_seconds(4.5)), 10);
  EXPECT_EQ(lte::sinr_db_to_cqi(looping.sinr_db(from_seconds(4.5))), 10);
}

TEST(FadingChannel, DeterministicForSeed) {
  FadingChannel::Config config;
  config.seed = 42;
  FadingChannel a(config);
  FadingChannel b(config);
  for (TimeUs t = 0; t < from_seconds(2); t += from_seconds(0.05)) {
    EXPECT_DOUBLE_EQ(a.sinr_db(t), b.sinr_db(t));
  }
}

TEST(FadingChannel, StaysNearMean) {
  FadingChannel::Config config;
  config.mean_sinr_db = 18.0;
  config.stddev_db = 3.0;
  FadingChannel channel(config);
  double sum = 0.0;
  int n = 0;
  for (TimeUs t = 0; t < from_seconds(60); t += from_seconds(0.02)) {
    const double s = channel.sinr_db(t);
    EXPECT_GT(s, 18.0 - 6 * 3.0);
    EXPECT_LT(s, 18.0 + 6 * 3.0);
    sum += s;
    ++n;
  }
  EXPECT_NEAR(sum / n, 18.0, 1.0);
}

TEST(FadingChannel, ConstantWithinCoherenceBlock) {
  FadingChannel::Config config;
  config.coherence = from_seconds(0.02);
  FadingChannel channel(config);
  const double a = channel.sinr_db(from_seconds(0.021));
  const double b = channel.sinr_db(from_seconds(0.030));
  EXPECT_DOUBLE_EQ(a, b);
}

// ----------------------------------------------------------- Radio env ----

TEST(RadioEnv, PathlossIncreasesWithDistance) {
  EXPECT_LT(pathloss_db(0.1), pathloss_db(0.5));
  EXPECT_LT(pathloss_db(0.5), pathloss_db(2.0));
  // 3GPP macro formula sanity: 1 km -> 128.1 dB.
  EXPECT_NEAR(pathloss_db(1.0), 128.1, 1e-9);
}

TEST(RadioEnv, SinrWithoutInterferenceIsSnr) {
  UeRadioProfile profile;
  profile.serving_cell = 1;
  profile.rx_power_dbm[1] = -80.0;
  profile.noise_dbm = -97.0;
  EXPECT_NEAR(profile.sinr_db({}), 17.0, 1e-9);
}

TEST(RadioEnv, ActiveInterfererDegradesSinr) {
  UeRadioProfile profile;
  profile.serving_cell = 1;
  profile.rx_power_dbm[1] = -80.0;
  profile.rx_power_dbm[2] = -85.0;  // strong macro interferer
  profile.noise_dbm = -97.0;

  const double clean = profile.sinr_db({});
  const double interfered = profile.sinr_db({2});
  EXPECT_GT(clean, interfered);
  // Interference-limited: SINR ~ S - I = 5 dB (noise adds a little).
  EXPECT_NEAR(interfered, 4.7, 0.5);
}

TEST(RadioEnv, OnlyListedInterferersCount) {
  UeRadioProfile profile;
  profile.serving_cell = 1;
  profile.rx_power_dbm[1] = -80.0;
  profile.rx_power_dbm[2] = -85.0;
  profile.rx_power_dbm[3] = -88.0;
  const double one = profile.sinr_db({2});
  const double both = profile.sinr_db({2, 3});
  EXPECT_GT(one, both);
  // The serving cell never interferes with itself.
  EXPECT_DOUBLE_EQ(profile.sinr_db({1}), profile.sinr_db({}));
}

TEST(RadioEnv, FromDistancesBuilder) {
  const auto profile = UeRadioProfile::from_distances(
      /*serving=*/2, kPicoTxPowerDbm, 0.05, {{1, {kMacroTxPowerDbm, 0.4}}});
  EXPECT_EQ(profile.serving_cell, 2u);
  ASSERT_TRUE(profile.rx_power_dbm.contains(1));
  ASSERT_TRUE(profile.rx_power_dbm.contains(2));
  // Close pico serves stronger than far macro interferes.
  EXPECT_GT(profile.rx_power_dbm.at(2), profile.rx_power_dbm.at(1));
}

TEST(RadioEnv, TransmissionTracking) {
  RadioEnvironment env;
  EXPECT_FALSE(env.transmitting(1));
  env.set_transmitting(1, true);
  env.set_transmitting(2, true);
  EXPECT_TRUE(env.transmitting(1));
  env.set_transmitting(1, false);
  EXPECT_FALSE(env.transmitting(1));
  EXPECT_TRUE(env.transmitting(2));
}

TEST(RadioEnv, EicicGeometryShape) {
  // The Fig. 10 setup in miniature: a small-cell UE near a pico, interfered
  // by a macro. Muting the macro (ABS) must lift the UE's CQI substantially.
  const auto profile = UeRadioProfile::from_distances(
      /*serving=*/2, kPicoTxPowerDbm, 0.08, {{1, {kMacroTxPowerDbm, 0.15}}});
  RadioEnvironment env;
  env.set_transmitting(1, true);
  const int cqi_interfered = lte::sinr_db_to_cqi(env.sinr_db(profile));
  env.set_transmitting(1, false);
  const int cqi_abs = lte::sinr_db_to_cqi(env.sinr_db(profile));
  EXPECT_GT(cqi_abs, cqi_interfered + 3);
}

// ----------------------------------------------------------- Error model --

TEST(ErrorModel, MatchedMcsHasAboutTenPercentBler) {
  ErrorModel model(5);
  const int cqi = 9;
  const int mcs = lte::cqi_to_mcs(cqi);
  int failures = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (!model.transport_block_ok(mcs, cqi)) ++failures;
  }
  EXPECT_NEAR(static_cast<double>(failures) / n, 0.10, 0.02);
}

TEST(ErrorModel, ConservativeMcsAlwaysDecodes) {
  ErrorModel model(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(model.transport_block_ok(lte::cqi_to_mcs(5), /*actual_cqi=*/10));
  }
}

TEST(ErrorModel, RetransmissionsImproveDecodeProbability) {
  ErrorModel model(5);
  const int cqi = 8;
  const int aggressive_mcs = lte::cqi_to_mcs(cqi) + 2;
  int first_tx_fail = 0;
  int third_tx_fail = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (!model.transport_block_ok(aggressive_mcs, cqi, 0)) ++first_tx_fail;
    if (!model.transport_block_ok(aggressive_mcs, cqi, 2)) ++third_tx_fail;
  }
  EXPECT_GT(first_tx_fail, 2 * third_tx_fail);
}

TEST(ErrorModel, ZeroCqiNeverDecodes) {
  ErrorModel model(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(model.transport_block_ok(0, /*actual_cqi=*/0));
  }
}

}  // namespace
}  // namespace flexran::phy
