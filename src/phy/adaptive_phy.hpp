// The variable-throughput channel-adaptive physical layer (paper §4.2,
// Fig. 6): given a CSI estimate the transmitter picks a transmission mode;
// the slot then carries a mode-dependent number of fixed-size packets. The
// *realized* error rate is evaluated at the true channel state at
// transmission time, so stale or noisy CSI translates into elevated packet
// loss — exactly the effect CHARISMA's CSI-refresh mechanism (§4.4) exists
// to contain.
#pragma once

#include <optional>

#include "phy/modes.hpp"

namespace charisma::phy {

/// Geometry/operating parameters of the slot-level PHY.
struct PhyConfig {
  int slot_symbols = 160;          ///< modulation symbols per info slot
  int packet_bits = 160;           ///< fixed packet size (one voice packet)
  double target_ber = 1e-5;        ///< constant-BER operating point
  double selection_margin_db = 0.0;  ///< extra backoff on mode selection
};

class AdaptivePhy {
 public:
  AdaptivePhy(ModeTable table, PhyConfig config);

  /// Convenience: ABICM-6 ladder with the given config.
  static AdaptivePhy abicm6(PhyConfig config = {});

  /// Mode selected for an SNR estimate, nullopt = outage (adaptation range
  /// exceeded; Fig. 7a).
  std::optional<int> select_mode(double snr_estimate_linear) const;

  /// Whole packets one slot carries in the given mode. Mode 0 (0.5 bit/sym
  /// on a one-packet slot) carries zero whole packets: the slot cannot ship
  /// a packet — this is the "wasted allocation" regime of §5.3.1.
  int packets_per_slot(int mode) const;

  /// What a slot announced in `mode` carries: that mode with its
  /// packets_per_slot. An outage (nullopt) carries 0 packets.
  SlotBurst burst(std::optional<int> mode) const;

  /// Normalized throughput of a (possibly outage) selection.
  double normalized_throughput(std::optional<int> selection) const {
    return table_.normalized_throughput(selection);
  }

  /// Packet-error rate when transmitting in `mode` while the channel truly
  /// is at `true_snr_linear`.
  double packet_error_rate(int mode, double true_snr_linear) const;

  /// Draws a packet success for one transmission from the user's stream —
  /// any type with a bernoulli(double) draw (a BasicRngStream or a
  /// TrafficRng).
  template <typename Rng>
  bool transmit_packet(int mode, double true_snr_linear, Rng& rng) const {
    return table_.mode(mode).transmit_packet(true_snr_linear,
                                             config_.packet_bits, rng);
  }

  const ModeTable& table() const { return table_; }
  const PhyConfig& config() const { return config_; }

 private:
  ModeTable table_;
  PhyConfig config_;
  /// from_db(config_.selection_margin_db), converted once at construction.
  double margin_linear_;
};

}  // namespace charisma::phy
