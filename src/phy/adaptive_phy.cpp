#include "phy/adaptive_phy.hpp"

#include <cmath>
#include <stdexcept>

#include "common/math.hpp"

namespace charisma::phy {

AdaptivePhy::AdaptivePhy(ModeTable table, PhyConfig config)
    : table_(std::move(table)),
      config_(config),
      margin_linear_(common::from_db(config.selection_margin_db)) {
  if (config.slot_symbols <= 0 || config.packet_bits <= 0) {
    throw std::invalid_argument("AdaptivePhy: invalid slot geometry");
  }
}

AdaptivePhy AdaptivePhy::abicm6(PhyConfig config) {
  return AdaptivePhy(ModeTable::abicm6(config.target_ber), config);
}

std::optional<int> AdaptivePhy::select_mode(double snr_estimate_linear) const {
  return table_.select_linear(snr_estimate_linear, margin_linear_);
}

int AdaptivePhy::packets_per_slot(int mode) const {
  const double bits =
      table_.mode(mode).bits_per_symbol * config_.slot_symbols;
  return static_cast<int>(std::floor(bits / config_.packet_bits + 1e-9));
}

SlotBurst AdaptivePhy::burst(std::optional<int> mode) const {
  if (!mode) return {};
  return {&table_.mode(*mode), packets_per_slot(*mode)};
}

double AdaptivePhy::packet_error_rate(int mode,
                                      double true_snr_linear) const {
  return table_.mode(mode).per(true_snr_linear, config_.packet_bits);
}

}  // namespace charisma::phy
