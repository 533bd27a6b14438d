#include "phy/fixed_phy.hpp"

#include <stdexcept>

#include "common/math.hpp"

namespace charisma::phy {

FixedPhy::FixedPhy(double ber_reference_db, double target_ber, int packet_bits)
    : packet_bits_(packet_bits) {
  if (target_ber <= 0.0 || target_ber >= 0.5) {
    throw std::invalid_argument("FixedPhy: target_ber must be in (0, 0.5)");
  }
  if (packet_bits <= 0) {
    throw std::invalid_argument("FixedPhy: packet_bits must be positive");
  }
  const double x = common::erfc_inv(2.0 * target_ber);
  mode_.index = 0;
  mode_.bits_per_symbol = 1.0;
  mode_.threshold_db = ber_reference_db;
  mode_.threshold_linear = common::from_db(ber_reference_db);
  mode_.ber_coefficient = x * x / mode_.threshold_linear;
}

double FixedPhy::packet_error_rate(double true_snr_linear) const {
  return mode_.per(true_snr_linear, packet_bits_);
}

}  // namespace charisma::phy
