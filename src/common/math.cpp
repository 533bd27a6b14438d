#include "common/math.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace charisma::common {

double to_db(double linear) {
  if (linear <= 0.0) return -std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(linear);
}

double from_db(double db) { return std::pow(10.0, db / 10.0); }

double erfc_inv(double y) {
  if (y <= 0.0 || y >= 2.0) {
    throw std::domain_error("erfc_inv: argument must lie in (0, 2)");
  }
  // Seed with the Giles (2010) style rational approximation of erfinv on
  // z = 1 - y, then polish with Newton iterations on f(x) = erfc(x) - y.
  const double z = 1.0 - y;  // erf(x) target
  double x = 0.0;
  const double w = -std::log((1.0 - z) * (1.0 + z));
  if (w < 6.25) {
    const double ww = w - 3.125;
    double p = -3.6444120640178196996e-21;
    p = -1.685059138182016589e-19 + p * ww;
    p = 1.2858480715256400167e-18 + p * ww;
    p = 1.115787767802518096e-17 + p * ww;
    p = -1.333171662854620906e-16 + p * ww;
    p = 2.0972767875968561637e-17 + p * ww;
    p = 6.6376381343583238325e-15 + p * ww;
    p = -4.0545662729752068639e-14 + p * ww;
    p = -8.1519341976054721522e-14 + p * ww;
    p = 2.6335093153082322977e-12 + p * ww;
    p = -1.2975133253453532498e-11 + p * ww;
    p = -5.4154120542946279317e-11 + p * ww;
    p = 1.051212273321532285e-09 + p * ww;
    p = -4.1126339803469836976e-09 + p * ww;
    p = -2.9070369957882005086e-08 + p * ww;
    p = 4.2347877827932403518e-07 + p * ww;
    p = -1.3654692000834678645e-06 + p * ww;
    p = -1.3882523362786468719e-05 + p * ww;
    p = 0.0001867342080340571352 + p * ww;
    p = -0.00074070253416626697512 + p * ww;
    p = -0.0060336708714301490533 + p * ww;
    p = 0.24015818242558961693 + p * ww;
    p = 1.6536545626831027356 + p * ww;
    x = p * z;
  } else {
    const double ww = std::sqrt(w) - 3.0;
    double p = -0.000200214257592989898;
    p = 0.000100950558753654891 + p * ww;
    p = 0.00134934322215091074 + p * ww;
    p = -0.00367708950378919103 + p * ww;
    p = 0.00573950773400123798 + p * ww;
    p = -0.0076224613258459574 + p * ww;
    p = 0.00943887047941515369 + p * ww;
    p = 1.00167406037309141 + p * ww;
    p = 2.83297682961763801 + p * ww;
    x = p * z;
  }
  // erfinv(z) = erfc_inv(1 - z); refine on erfc directly.
  constexpr double kTwoOverSqrtPi = 1.1283791670955126;
  for (int i = 0; i < 2; ++i) {
    const double err = std::erfc(x) - y;
    x += err / (kTwoOverSqrtPi * std::exp(-x * x));
  }
  return x;
}

double bessel_j0(double x) {
  // Abramowitz & Stegun polynomial fits, split at |x| = 3.
  const double ax = std::fabs(x);
  if (ax < 3.0) {
    const double t = (x / 3.0) * (x / 3.0);
    return 1.0 +
           t * (-2.2499997 +
                t * (1.2656208 +
                     t * (-0.3163866 +
                          t * (0.0444479 +
                               t * (-0.0039444 + t * 0.00021)))));
  }
  const double t = 3.0 / ax;
  const double f0 =
      0.79788456 +
      t * (-0.00000077 +
           t * (-0.00552740 +
                t * (-0.00009512 +
                     t * (0.00137237 +
                          t * (-0.00072805 + t * 0.00014476)))));
  const double theta0 =
      ax - 0.78539816 +
      t * (-0.04166397 +
           t * (-0.00003954 +
                t * (0.00262573 +
                     t * (-0.00054125 +
                          t * (-0.00029333 + t * 0.00013558)))));
  return f0 * std::cos(theta0) / std::sqrt(ax);
}

double gamma_upper_regularized(int k, double x) {
  if (k < 1) throw std::domain_error("gamma_upper_regularized: k must be >= 1");
  if (x < 0.0) throw std::domain_error("gamma_upper_regularized: x must be >= 0");
  double term = 1.0;
  double sum = 1.0;
  for (int n = 1; n < k; ++n) {
    term *= x / static_cast<double>(n);
    sum += term;
  }
  return std::exp(-x) * sum;
}

}  // namespace charisma::common
