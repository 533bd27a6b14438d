#include "phy/fixed_phy.hpp"

#include <gtest/gtest.h>

#include "common/math.hpp"
#include "common/rng.hpp"

namespace charisma::phy {
namespace {

TEST(FixedPhy, BerAtReferenceEqualsTarget) {
  const FixedPhy phy(9.5, 1e-5, 160);
  EXPECT_NEAR(phy.ber(common::from_db(9.5)), 1e-5, 1e-8);
}

TEST(FixedPhy, PerMonotoneDecreasing) {
  const FixedPhy phy(9.5, 1e-5, 160);
  double prev = 1.1;
  for (double db = -10.0; db <= 25.0; db += 0.5) {
    const double per = phy.packet_error_rate(common::from_db(db));
    EXPECT_LE(per, prev + 1e-12);
    prev = per;
  }
}

TEST(FixedPhy, DeepFadeLosesEverything) {
  const FixedPhy phy(9.5, 1e-5, 160);
  EXPECT_NEAR(phy.packet_error_rate(common::from_db(-10.0)), 1.0, 1e-9);
}

TEST(FixedPhy, GoodChannelLosesNothing) {
  const FixedPhy phy(9.5, 1e-5, 160);
  EXPECT_LT(phy.packet_error_rate(common::from_db(20.0)), 1e-9);
}

TEST(FixedPhy, TransmitStatisticsMatchPer) {
  const FixedPhy phy(9.5, 1e-5, 160);
  common::RngStream rng(1);
  const double snr = common::from_db(6.0);
  const double per = phy.packet_error_rate(snr);
  ASSERT_GT(per, 0.01);
  int failures = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (!phy.transmit_packet(snr, rng)) ++failures;
  }
  EXPECT_NEAR(static_cast<double>(failures) / n, per, 0.01);
}

TEST(FixedPhy, Validation) {
  EXPECT_THROW(FixedPhy(9.5, 0.0, 160), std::invalid_argument);
  EXPECT_THROW(FixedPhy(9.5, 0.5, 160), std::invalid_argument);
  EXPECT_THROW(FixedPhy(9.5, 1e-5, 0), std::invalid_argument);
}

}  // namespace
}  // namespace charisma::phy
