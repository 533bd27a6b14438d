// The classical fixed-throughput physical layer used by RAMA, RMAV, DRMA
// and D-TDMA/FR: one modulation/coding scheme sized for a reference SNR,
// always one packet per slot, with the packet-error rate following the same
// coded-modulation BER curve evaluated at the instantaneous channel state.
// No adaptation: transmissions during fades are simply corrupted (paper
// §5.3.1). The scheme is a one-mode ModeTable, so a fixed-rate slot is a
// one-mode, one-packet SlotBurst.
#pragma once

#include "phy/modes.hpp"

namespace charisma::phy {

class FixedPhy {
 public:
  /// `ber_reference_db`: SNR at which the scheme reaches `target_ber`
  /// (the design point of the static link budget).
  FixedPhy(double ber_reference_db, double target_ber, int packet_bits);

  double ber(double true_snr_linear) const { return mode_.ber(true_snr_linear); }
  double packet_error_rate(double true_snr_linear) const;

  /// What every slot carries: the one mode, one packet.
  SlotBurst burst() const { return {&mode_, 1}; }

  /// Draws a packet success from the user's stream — any type with a
  /// bernoulli(double) draw (a BasicRngStream or a TrafficRng).
  template <typename Rng>
  bool transmit_packet(double true_snr_linear, Rng& rng) const {
    return mode_.transmit_packet(true_snr_linear, packet_bits_, rng);
  }

 private:
  TransmissionMode mode_;
  int packet_bits_;
};

}  // namespace charisma::phy
