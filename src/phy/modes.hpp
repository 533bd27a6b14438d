// Transmission-mode table for the variable-throughput channel-adaptive
// physical layer (the paper's 6-mode ABICM scheme [15]).
//
// Each mode q carries a normalized throughput (information bits per
// modulation symbol) and an adaptation threshold: the scheme operates in
// "constant BER mode" (paper §4.2), i.e. thresholds are placed so that the
// target BER is met exactly at the threshold SNR. The per-mode BER curve is
// the coded-modulation form
//      BER_q(snr) = 0.5 * erfc( sqrt(g_q * snr) )
// with g_q chosen so BER_q(threshold_q) == target BER. Below the lowest
// threshold the scheme is out of its adaptation range (Fig. 7a): no mode
// can hold the target BER.
#pragma once

#include <optional>
#include <vector>

#include "common/units.hpp"

namespace charisma::phy {

struct TransmissionMode {
  int index = 0;                 ///< 0 = most robust (lowest throughput)
  double bits_per_symbol = 0.0;  ///< normalized throughput
  double threshold_db = 0.0;     ///< adaptation threshold (SNR, dB)
  double threshold_linear = 0.0;
  double ber_coefficient = 0.0;  ///< g_q in BER = 0.5 erfc(sqrt(g_q snr))

  /// Instantaneous bit-error rate at the given true SNR.
  double ber(double snr_linear) const;

  /// Packet-error rate for a packet of `bits` i.i.d. bit errors.
  double per(double snr_linear, int bits) const;
};

class ModeTable {
 public:
  /// Builds a table from parallel throughput/threshold lists; thresholds
  /// must be strictly increasing with throughput.
  static ModeTable custom(const std::vector<double>& bits_per_symbol,
                          const std::vector<double>& thresholds_db,
                          double target_ber);

  /// The paper's 6-mode ABICM ladder: throughputs {0.5,1,2,3,4,5} bit/sym
  /// with thresholds {2,5,9,13,16.5,20} dB (DESIGN.md calibration).
  static ModeTable abicm6(double target_ber = 1e-5);

  /// Highest mode whose threshold (plus `margin_db` of backoff) is met by
  /// the SNR estimate; nullopt when even mode 0 cannot hold the target BER
  /// (adaptation range exceeded).
  std::optional<int> select(double snr_estimate_linear,
                            double margin_db = 0.0) const;

  /// select() with the backoff already converted to a linear factor
  /// (common::from_db(margin_db)), for callers that fix the margin once and
  /// select per request.
  std::optional<int> select_linear(double snr_estimate_linear,
                                   double margin_linear) const;

  const TransmissionMode& mode(int index) const;
  int size() const { return static_cast<int>(modes_.size()); }
  double target_ber() const { return target_ber_; }

  /// Normalized throughput of a selection; 0 for nullopt (outage).
  double normalized_throughput(std::optional<int> selection) const;

  const std::vector<TransmissionMode>& modes() const { return modes_; }

 private:
  std::vector<TransmissionMode> modes_;
  double target_ber_ = 0.0;
};

}  // namespace charisma::phy
