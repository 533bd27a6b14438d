#include "phy/modes.hpp"

#include <cmath>
#include <stdexcept>

#include "common/math.hpp"

namespace charisma::phy {

double TransmissionMode::ber(double snr_linear) const {
  if (snr_linear <= 0.0) return 0.5;
  const double b = 0.5 * std::erfc(std::sqrt(ber_coefficient * snr_linear));
  return b < 0.5 ? b : 0.5;
}

double TransmissionMode::per(double snr_linear, int bits) const {
  const double b = ber(snr_linear);
  // 1 - (1-b)^bits, computed stably for tiny b.
  return -std::expm1(static_cast<double>(bits) * std::log1p(-b));
}

ModeTable ModeTable::custom(const std::vector<double>& bits_per_symbol,
                            const std::vector<double>& thresholds_db,
                            double target_ber) {
  if (bits_per_symbol.empty() ||
      bits_per_symbol.size() != thresholds_db.size()) {
    throw std::invalid_argument("ModeTable: mismatched mode lists");
  }
  if (target_ber <= 0.0 || target_ber >= 0.5) {
    throw std::invalid_argument("ModeTable: target_ber must be in (0, 0.5)");
  }
  ModeTable table;
  table.target_ber_ = target_ber;
  // BER(th) = target  =>  g = erfc_inv(2*target)^2 / th_linear.
  const double x = common::erfc_inv(2.0 * target_ber);
  const double x2 = x * x;
  for (std::size_t i = 0; i < bits_per_symbol.size(); ++i) {
    if (i > 0) {
      if (thresholds_db[i] <= thresholds_db[i - 1] ||
          bits_per_symbol[i] <= bits_per_symbol[i - 1]) {
        throw std::invalid_argument(
            "ModeTable: thresholds/throughputs must be strictly increasing");
      }
    }
    TransmissionMode mode;
    mode.index = static_cast<int>(i);
    mode.bits_per_symbol = bits_per_symbol[i];
    mode.threshold_db = thresholds_db[i];
    mode.threshold_linear = common::from_db(thresholds_db[i]);
    mode.ber_coefficient = x2 / mode.threshold_linear;
    table.modes_.push_back(mode);
  }
  return table;
}

ModeTable ModeTable::abicm6(double target_ber) {
  // Thresholds calibrated in DESIGN.md: the trellis-coded low modes are
  // more robust than the legacy fixed-rate design point (10 dB), while the
  // dense high modes match adaptive-modulation ladders.
  return custom({0.5, 1.0, 2.0, 3.0, 4.0, 5.0},
                {2.5, 5.5, 9.0, 13.0, 16.5, 20.0}, target_ber);
}

std::optional<int> ModeTable::select(double snr_estimate_linear,
                                     double margin_db) const {
  return select_linear(snr_estimate_linear, common::from_db(margin_db));
}

std::optional<int> ModeTable::select_linear(double snr_estimate_linear,
                                            double margin_linear) const {
  std::optional<int> best;
  for (const auto& mode : modes_) {
    if (snr_estimate_linear >= mode.threshold_linear * margin_linear) {
      best = mode.index;
    } else {
      break;  // thresholds are increasing
    }
  }
  return best;
}

const TransmissionMode& ModeTable::mode(int index) const {
  if (index < 0 || index >= size()) {
    throw std::out_of_range("ModeTable::mode: bad index");
  }
  return modes_[static_cast<std::size_t>(index)];
}

double ModeTable::normalized_throughput(std::optional<int> selection) const {
  if (!selection) return 0.0;
  return mode(*selection).bits_per_symbol;
}

}  // namespace charisma::phy
