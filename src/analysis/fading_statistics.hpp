// Closed-form statistics of the calibrated channel model: outage/mode
// probabilities and the mean adaptive throughput under Nakagami-L fast
// fading with log-normal shadowing. Tests (FadingStatistics.*) use them to
// pin the simulator's empirical behaviour to theory.
#pragma once

#include "channel/channel_bank.hpp"
#include "phy/modes.hpp"

namespace charisma::analysis {

/// P(effective SNR < threshold) under the given channel configuration:
/// E_shadow[ P(Gamma(L, mean*shadow/L) < threshold) ], the shadowing
/// expectation evaluated by Gauss-Hermite quadrature.
double snr_below_probability(const channel::ChannelConfig& config,
                             double threshold_linear);

/// Stationary probability that the ABICM scheme selects each entry of
/// `table` (index 0..size-1) or is in outage (returned at index size...0?):
/// element [0] is the outage probability, element [q+1] the probability of
/// mode q.
std::vector<double> mode_occupancy(const channel::ChannelConfig& config,
                                   const phy::ModeTable& table);

/// E[normalized ABICM throughput] at the channel's operating point — the
/// quantity behind the paper's "D-TDMA/VR has twice the average offered
/// throughput of D-TDMA/FR".
double mean_adaptive_throughput(const channel::ChannelConfig& config,
                                const phy::ModeTable& table);

}  // namespace charisma::analysis
