// Short-term (multipath) fading models.
//
//  * JakesFadingGenerator — Clarke/Jakes sum-of-sinusoids model. Produces a
//    continuous-time complex gain; used for the Fig. 5 style fading traces
//    and for validating the AR(1) model's autocorrelation against
//    J0(2*pi*fd*tau).
//  * ar_rho_for — the per-step correlation of the first-order Gauss-Markov
//    branches ChannelBank steps on the frame grid; the per-slot *effective*
//    SNR used by the protocol simulations is the average power of
//    `branches` i.i.d. branches (Gamma(L) marginal, i.e. Nakagami-L),
//    modelling interleaving + diversity combining.
#pragma once

#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace charisma::channel {

/// Clarke/Jakes sum-of-sinusoids Rayleigh fading. The complex gain at time t
/// is a deterministic function of t given the randomly drawn arrival angles
/// and phases, so traces can be sampled at any resolution.
class JakesFadingGenerator {
 public:
  /// `oscillators` >= 8 for an acceptably Rayleigh-like envelope.
  JakesFadingGenerator(common::Hertz doppler, int oscillators,
                       common::RngStream& rng);

  /// Complex channel gain at time t; E[|h|^2] == 1.
  std::complex<double> gain(common::Time t) const;

  /// Power gain |h(t)|^2.
  double power_gain(common::Time t) const;

  common::Hertz doppler() const { return doppler_; }

 private:
  common::Hertz doppler_;
  std::vector<double> doppler_shift_;  // per-oscillator frequency, Hz
  std::vector<double> phase_;          // per-oscillator initial phase
  double amplitude_;                   // per-oscillator amplitude
};

/// Per-step correlation coefficient for a grid interval dt under coherence
/// time Tc = 1/doppler: rho = exp(-dt * doppler). (An exponential
/// correlation model rather than the oscillatory J0 form: its k-step
/// correlation is rho^k, which admits the exact O(1) k-step jump
/// ChannelBank uses.)
double ar_rho_for(common::Hertz doppler, common::Time dt);

}  // namespace charisma::channel
