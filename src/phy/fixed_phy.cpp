#include "phy/fixed_phy.hpp"

#include <stdexcept>

namespace charisma::phy {

FixedPhy::FixedPhy(double ber_reference_db, double target_ber, int packet_bits)
    : mode_(ModeTable::custom({1.0}, {ber_reference_db}, target_ber).mode(0)),
      packet_bits_(packet_bits) {
  if (packet_bits <= 0) {
    throw std::invalid_argument("FixedPhy: packet_bits must be positive");
  }
}

double FixedPhy::packet_error_rate(double true_snr_linear) const {
  return mode_.per(true_snr_linear, packet_bits_);
}

}  // namespace charisma::phy
