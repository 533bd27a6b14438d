#include "channel/fading.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "common/math.hpp"
#include "common/rng.hpp"

namespace charisma::channel {
namespace {

TEST(Jakes, UnitMeanPower) {
  common::RngStream rng(1);
  JakesFadingGenerator gen(100.0, 16, rng);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += gen.power_gain(static_cast<double>(i) * 1e-3);
  }
  EXPECT_NEAR(sum / n, 1.0, 0.1);
}

TEST(Jakes, RayleighEnvelopeDistribution) {
  // P(|h|^2 < x) should match 1 - exp(-x) for the unit-mean Rayleigh power.
  common::RngStream rng(2);
  // Average over several independent generators to suppress the
  // finite-oscillator correlation of a single realization.
  int below_half = 0, below_two = 0;
  const int gens = 40, samples = 2000;
  for (int g = 0; g < gens; ++g) {
    JakesFadingGenerator gen(100.0, 16, rng);
    for (int i = 0; i < samples; ++i) {
      const double p = gen.power_gain(static_cast<double>(i) * 2e-3);
      if (p < 0.5) ++below_half;
      if (p < 2.0) ++below_two;
    }
  }
  const double n = gens * samples;
  EXPECT_NEAR(below_half / n, 1.0 - std::exp(-0.5), 0.03);
  EXPECT_NEAR(below_two / n, 1.0 - std::exp(-2.0), 0.03);
}

TEST(Jakes, AutocorrelationFollowsBesselJ0) {
  // The Clarke-model autocorrelation of the complex gain is J0(2 pi fd tau).
  common::RngStream rng(3);
  const double fd = 100.0;
  const double tau = 2e-3;  // J0(2 pi * 0.2) ~ 0.6425
  double corr_sum = 0.0;
  const int gens = 60;
  for (int g = 0; g < gens; ++g) {
    JakesFadingGenerator gen(fd, 32, rng);
    double acc = 0.0;
    const int n = 500;
    for (int i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) * 5e-3;
      const auto h0 = gen.gain(t);
      const auto h1 = gen.gain(t + tau);
      acc += h0.real() * h1.real() + h0.imag() * h1.imag();
    }
    corr_sum += acc / n;
  }
  const double expected = common::bessel_j0(2.0 * M_PI * fd * tau);
  EXPECT_NEAR(corr_sum / gens, expected, 0.08);
}

TEST(Jakes, InvalidArguments) {
  common::RngStream rng(4);
  EXPECT_THROW(JakesFadingGenerator(0.0, 16, rng), std::invalid_argument);
  EXPECT_THROW(JakesFadingGenerator(100.0, 4, rng), std::invalid_argument);
}

TEST(ArRho, ExponentialForm) {
  EXPECT_NEAR(ar_rho_for(100.0, 2.5e-3), std::exp(-0.25), 1e-12);
  EXPECT_NEAR(ar_rho_for(20.0, 2.5e-3), std::exp(-0.05), 1e-12);
  EXPECT_THROW(ar_rho_for(0.0, 1e-3), std::invalid_argument);
  EXPECT_THROW(ar_rho_for(100.0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace charisma::channel
