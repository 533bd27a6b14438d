#include "common/math.hpp"

#include <cmath>
#include <gtest/gtest.h>

namespace charisma::common {
namespace {

TEST(MathDb, RoundTrip) {
  for (double db : {-20.0, -3.0, 0.0, 3.0, 10.0, 17.5, 30.0}) {
    EXPECT_NEAR(to_db(from_db(db)), db, 1e-12);
  }
}

TEST(MathDb, KnownValues) {
  EXPECT_NEAR(from_db(0.0), 1.0, 1e-15);
  EXPECT_NEAR(from_db(10.0), 10.0, 1e-12);
  EXPECT_NEAR(from_db(3.0), 1.9952623149688795, 1e-12);
  EXPECT_NEAR(to_db(100.0), 20.0, 1e-12);
}

TEST(MathDb, ZeroAndNegativeGiveMinusInfinity) {
  EXPECT_TRUE(std::isinf(to_db(0.0)));
  EXPECT_LT(to_db(0.0), 0.0);
  EXPECT_TRUE(std::isinf(to_db(-1.0)));
}

TEST(MathErfcInv, RoundTripAcrossDecades) {
  for (double y : {1.9, 1.5, 1.0, 0.5, 0.1, 1e-2, 1e-4, 1e-6, 1e-9}) {
    const double x = erfc_inv(y);
    EXPECT_NEAR(std::erfc(x), y, y * 1e-9 + 1e-15) << "y=" << y;
  }
}

TEST(MathErfcInv, CentralValue) {
  EXPECT_NEAR(erfc_inv(1.0), 0.0, 1e-12);
}

TEST(MathErfcInv, DomainErrors) {
  EXPECT_THROW(erfc_inv(0.0), std::domain_error);
  EXPECT_THROW(erfc_inv(2.0), std::domain_error);
  EXPECT_THROW(erfc_inv(-0.5), std::domain_error);
}

TEST(MathBesselJ0, KnownValues) {
  EXPECT_NEAR(bessel_j0(0.0), 1.0, 1e-7);
  // First zero of J0 at x ~ 2.404826.
  EXPECT_NEAR(bessel_j0(2.404826), 0.0, 1e-5);
  EXPECT_NEAR(bessel_j0(1.0), 0.7651976866, 1e-6);
  EXPECT_NEAR(bessel_j0(5.0), -0.1775967713, 1e-6);
  EXPECT_NEAR(bessel_j0(10.0), -0.2459357645, 1e-6);
}

TEST(MathBesselJ0, EvenFunction) {
  for (double x : {0.3, 1.7, 4.2, 9.1}) {
    EXPECT_NEAR(bessel_j0(x), bessel_j0(-x), 1e-12);
  }
}

TEST(MathGammaQ, ExponentialSpecialCase) {
  // Q(1, x) = exp(-x).
  for (double x : {0.0, 0.5, 1.0, 3.0}) {
    EXPECT_NEAR(gamma_upper_regularized(1, x), std::exp(-x), 1e-12);
  }
}

TEST(MathGammaQ, KnownValueK4) {
  // Q(4, 2) = e^-2 (1 + 2 + 2 + 4/3).
  const double expected = std::exp(-2.0) * (1.0 + 2.0 + 2.0 + 4.0 / 3.0);
  EXPECT_NEAR(gamma_upper_regularized(4, 2.0), expected, 1e-12);
}

TEST(MathGammaQ, Monotonicity) {
  double prev = 1.0;
  for (double x = 0.0; x <= 10.0; x += 0.5) {
    const double q = gamma_upper_regularized(3, x);
    EXPECT_LE(q, prev + 1e-15);
    prev = q;
  }
}

TEST(MathGammaQ, DomainErrors) {
  EXPECT_THROW(gamma_upper_regularized(0, 1.0), std::domain_error);
  EXPECT_THROW(gamma_upper_regularized(2, -1.0), std::domain_error);
}

}  // namespace
}  // namespace charisma::common
