#include "channel/fading.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace charisma::channel {

JakesFadingGenerator::JakesFadingGenerator(common::Hertz doppler,
                                           int oscillators,
                                           common::RngStream& rng)
    : doppler_(doppler) {
  if (doppler <= 0.0) {
    throw std::invalid_argument("JakesFadingGenerator: doppler must be > 0");
  }
  if (oscillators < 8) {
    throw std::invalid_argument(
        "JakesFadingGenerator: need at least 8 oscillators");
  }
  doppler_shift_.reserve(static_cast<std::size_t>(oscillators));
  phase_.reserve(static_cast<std::size_t>(2 * oscillators));
  // Random arrival angles (uniform over the circle) rather than the classic
  // equally-spaced set: avoids the deterministic-Jakes correlation artifacts
  // and keeps distinct users statistically independent.
  for (int k = 0; k < oscillators; ++k) {
    const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
    doppler_shift_.push_back(doppler * std::cos(angle));
    phase_.push_back(rng.uniform(0.0, 2.0 * std::numbers::pi));  // I phase
    phase_.push_back(rng.uniform(0.0, 2.0 * std::numbers::pi));  // Q phase
  }
  amplitude_ = std::sqrt(1.0 / oscillators);
}

std::complex<double> JakesFadingGenerator::gain(common::Time t) const {
  double re = 0.0;
  double im = 0.0;
  const double two_pi = 2.0 * std::numbers::pi;
  for (std::size_t k = 0; k < doppler_shift_.size(); ++k) {
    const double arg = two_pi * doppler_shift_[k] * t;
    re += std::cos(arg + phase_[2 * k]);
    im += std::sin(arg + phase_[2 * k + 1]);
  }
  return {amplitude_ * re, amplitude_ * im};
}

double JakesFadingGenerator::power_gain(common::Time t) const {
  return std::norm(gain(t));
}

double ar_rho_for(common::Hertz doppler, common::Time dt) {
  if (doppler <= 0.0 || dt <= 0.0) {
    throw std::invalid_argument("ar_rho_for: doppler and dt must be > 0");
  }
  return std::exp(-dt * doppler);
}

}  // namespace charisma::channel
