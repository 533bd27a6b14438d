// Numeric helpers shared by the channel and PHY models: dB conversions,
// the inverse complementary error function, the Bessel J0 used by the
// Jakes fading autocorrelation and the regularized upper incomplete gamma.
#pragma once

namespace charisma::common {

/// Converts a linear power ratio to decibels.
double to_db(double linear);

/// Converts decibels to a linear power ratio.
double from_db(double db);

/// Inverse of the complementary error function. Accurate to ~1e-9 over
/// y in (0, 2) via a rational seed refined with two Newton steps.
double erfc_inv(double y);

/// Bessel function of the first kind, order zero. Polynomial approximation
/// (Abramowitz & Stegun 9.4.1/9.4.3), |error| < 1e-7.
double bessel_j0(double x);

/// Regularized upper incomplete gamma Q(k, x) for *integer* k >= 1:
/// P(Gamma(k,1) > x) = e^-x * sum_{n<k} x^n/n!.
/// Used to validate the Nakagami-m effective-SNR distribution in tests and
/// to derive operating points analytically.
double gamma_upper_regularized(int k, double x);

}  // namespace charisma::common
