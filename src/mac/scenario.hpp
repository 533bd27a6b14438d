// Scenario description for one simulation run: user population, traffic,
// radio environment and PHY operating point. The same ScenarioParams feeds
// all six protocols, realizing the paper's "common simulation platform".
#pragma once

#include <cstdint>

#include "channel/channel_bank.hpp"
#include "common/rng.hpp"
#include "mac/energy.hpp"
#include "mac/geometry.hpp"
#include "phy/adaptive_phy.hpp"

namespace charisma::mac {

struct ScenarioParams {
  // Population (paper: N_v voice users, N_d data users).
  int num_voice_users = 0;
  int num_data_users = 0;

  /// Whether the base station keeps a request queue for requests that
  /// survive contention but get no information slot (paper §4.5).
  bool request_queue = true;

  std::uint64_t seed = 1;

  FrameGeometry geometry{};
  channel::ChannelConfig channel{};
  phy::PhyConfig phy{};

  /// Design point (dB) of the fixed-throughput PHY used by the
  /// non-adaptive baselines; bench/table1_parameters prints it.
  double fixed_phy_reference_db = 9.75;

  // Traffic model (paper §2).
  double mean_talkspurt_s = 1.0;
  double mean_silence_s = 1.35;
  double mean_data_interarrival_s = 1.0;
  double mean_burst_packets = 100.0;

  // Markov-modulated (two-state) data arrivals beyond the plain Poisson
  // bursts: in the high state bursts arrive mmpp_rate_ratio times faster;
  // state sojourns are exponential with the given mean. ratio = 1 or
  // sojourn = 0 disables modulation (no extra RNG draws; legacy results
  // stay bit-identical).
  double data_mmpp_rate_ratio = 1.0;
  double data_mmpp_mean_sojourn_s = 0.0;

  /// Closed-loop access-class barring (overload survival; off by default —
  /// the disabled path preserves every legacy result bit for bit). The
  /// loop's tuning is BarringController's constants.
  bool barring = false;

  /// Demand-driven channel materialization (off by default — eager
  /// advancement preserves every legacy result bit for bit). When on, the
  /// per-frame bank pass becomes an O(1) clock move and only touched/read
  /// users pay jumps: statistically exact (the closed-form jump is the
  /// k-step AR(1)/OU composition) and invariant to thread count and
  /// touch batching, but a different realization than eager —
  /// a k-jump consumes one innovation set where k unit steps consume k.
  bool lazy_channel = false;

  /// Which generator backs the per-user traffic/MAC streams (kMt — the
  /// default — keeps the historical mt19937_64 streams and reproduces
  /// every pinned sequence and golden metric bit for bit; kCompact swaps
  /// in ~24-byte splitmix64-counter streams, collapsing the per-attached-
  /// user RNG footprint by two orders of magnitude at the price of a
  /// different — statistically equivalent — realization, like lazy_channel).
  /// Channel and base-station streams are unaffected either way.
  common::RngKind traffic_rng = common::RngKind::kMt;

  /// Sparse presence (CellularWorld): when true the engine starts with an
  /// *empty* population and the world admits users into each cell's band
  /// on demand (ProtocolEngine::band_admit). false — the historical
  /// behaviour — materializes the full population at construction.
  bool defer_population = false;

  // Request contention model (paper §2): permission probabilities.
  double voice_permission_prob = 0.3;
  double data_permission_prob = 0.2;

  // CSI estimation (paper §4.4): pilot-based estimates carry log-domain
  // noise and stay valid for two frames.
  double csi_error_sigma_db = 0.5;
  int csi_validity_frames = 2;

  /// Per-user link-budget disparity: each device's mean SNR is offset by a
  /// fixed N(0, snr_spread_db) draw — the "geographically scattered mobile
  /// devices ... suffer from different degrees of fading and shadowing"
  /// of §1. 0 = homogeneous cell (the figure benches' default); > 0
  /// exercises the capacity-fair scheduling extension (§6 / [22]).
  double snr_spread_db = 0.0;

  /// Mobile-device transmit-energy model (paper §1, motivation 2).
  EnergyModel energy{};

  /// Probability that a downlink acknowledgment is lost, in which case the
  /// device never learns its request succeeded and retries (paper §4.1's
  /// ACK-timeout path; default off — enable for failure injection).
  double ack_loss_prob = 0.0;

  int total_users() const { return num_voice_users + num_data_users; }

  bool valid() const {
    return num_voice_users >= 0 && num_data_users >= 0 && geometry.valid() &&
           mean_talkspurt_s > 0.0 && mean_silence_s > 0.0 &&
           mean_data_interarrival_s > 0.0 && mean_burst_packets >= 1.0 &&
           voice_permission_prob > 0.0 && voice_permission_prob <= 1.0 &&
           data_permission_prob > 0.0 && data_permission_prob <= 1.0 &&
           csi_error_sigma_db >= 0.0 && csi_validity_frames > 0 &&
           snr_spread_db >= 0.0 && energy.tx_power_w >= 0.0 &&
           ack_loss_prob >= 0.0 && ack_loss_prob < 1.0 &&
           data_mmpp_rate_ratio >= 1.0 && data_mmpp_mean_sojourn_s >= 0.0;
  }
};

}  // namespace charisma::mac
