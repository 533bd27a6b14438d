// Per-run protocol statistics, matching the paper's three reported metrics
// (voice packet loss Eq. (3), data throughput, data delay) plus the
// internal counters needed to explain them (contention efficiency, slot
// utilization, CSI bookkeeping).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"

namespace charisma::mac {

struct ProtocolMetrics {
  /// Geometry of the data-delay histogram (shared with the experiment
  /// aggregators so replications merge exactly).
  static constexpr double kDelayHistLo = 0.0;
  static constexpr double kDelayHistHi = 5.0;
  static constexpr std::size_t kDelayHistBins = 500;

  // Measurement window.
  std::int64_t frames = 0;
  common::Time measured_time = 0.0;

  // Voice accounting. loss = dropped (deadline) + error (channel) +
  // dropped (handoff).
  std::int64_t voice_generated = 0;
  std::int64_t voice_delivered = 0;
  std::int64_t voice_dropped_deadline = 0;
  std::int64_t voice_error_lost = 0;

  // Data accounting.
  std::int64_t data_generated = 0;
  std::int64_t data_delivered = 0;
  std::int64_t data_tx_attempts = 0;
  std::int64_t data_retransmissions = 0;
  common::Accumulator data_delay_s;  ///< arrival -> successful tx start
  /// Delay distribution for tail quantiles; out-of-range mass is tracked in
  /// the histogram's underflow/overflow tails (histogram_clip_warning).
  common::Histogram data_delay_hist{kDelayHistLo, kDelayHistHi,
                                    kDelayHistBins};

  // Multi-cell mobility accounting (CellularWorld). In a single-cell run
  // the handoff counters stay zero; attached_user_frames still counts the
  // full (always-present) population.
  std::int64_t handoffs_in = 0;   ///< users handed into this cell
  std::int64_t handoffs_out = 0;  ///< users handed out of this cell
  /// Voice packets in flight at the instant of a handoff out (lost in
  /// transit; part of voice_loss_rate()).
  std::int64_t voice_dropped_handoff = 0;
  /// Sum over frames of the attached-population size — per-cell load;
  /// divide by frames for the mean (mean_attached_users()).
  std::int64_t attached_user_frames = 0;

  // Cell-outage fault injection (CellularWorld outage schedule). Users on
  // a cell that goes dark are force-evicted to the best lit neighbour;
  // their in-flight voice is dropped and counted here (part of
  // voice_loss_rate()). outage_evictions plays the role handoffs_out plays
  // for hysteresis moves, so across a world
  // sum(handoffs_in) == sum(handoffs_out) + sum(outage_evictions).
  std::int64_t outage_evictions = 0;
  std::int64_t voice_dropped_outage = 0;

  // Access-class barring (closed-loop overload control; BarringController).
  // A "check" is one contention entry evaluated against a class factor
  // below 1; with barring disabled (or the factor at 1) nothing is counted
  // and no RNG is drawn, preserving legacy results bit for bit.
  std::int64_t barring_checks = 0;
  std::int64_t barring_barred_voice = 0;
  std::int64_t barring_barred_data = 0;
  /// One sample per control window: the class admission factors in force.
  common::Accumulator barring_factor_voice;
  common::Accumulator barring_factor_data;

  // Inter-cell interference accounting (CellularWorld's uplink SINR
  // plane). One sample per decision epoch: the mean SINR penalty (dB,
  // 10·log10(1 + I/N)) across this cell's per-user interference plane.
  // count() stays 0 when the interference plane is disabled (single-cell
  // runs, legacy worlds).
  common::Accumulator interference_db;

  // Request-phase accounting (per minislot).
  std::int64_t request_slots = 0;
  std::int64_t request_successes = 0;
  std::int64_t request_collisions = 0;
  std::int64_t request_idle = 0;

  // Information-slot accounting.
  std::int64_t info_slots_offered = 0;
  std::int64_t info_slots_assigned = 0;
  /// Assigned but carried zero packets (reserved user idle, or granted mode
  /// below one packet per slot — the paper's "wasted allocation").
  std::int64_t info_slots_wasted = 0;

  // CHARISMA-specific bookkeeping.
  std::int64_t csi_polls = 0;
  std::int64_t csi_stale_allocations = 0;

  // Downlink acknowledgment failures (injected; see ScenarioParams).
  std::int64_t acks_lost = 0;

  // Channel-materialization accounting (ScenarioParams::lazy_channel
  // observability; eager runs report every user advanced every frame).
  // users_advanced_frames counts user-frames where a jump executed;
  // users_skipped_frames counts user-frames covered lazily by a later
  // jump. advanced + skipped = user-frames of channel evolution observed;
  // mean_materialization_stride() = their ratio to jumps executed.
  std::int64_t users_advanced_frames = 0;
  std::int64_t users_skipped_frames = 0;

  // Mobile-device energy accounting (paper §1, motivation 2).
  double energy_request_j = 0.0;  ///< request/auction/competitive bursts
  double energy_info_j = 0.0;     ///< information-slot transmissions
  double energy_pilot_j = 0.0;    ///< CSI-poll pilot responses
  double energy_wasted_j = 0.0;   ///< joules that delivered no packet

  /// Packets delivered per user id (voice + data) — the fairness view
  /// needed by the §6 capacity-fair extension. A single-cell engine fills
  /// it, one entry per user from the first delivery on. A world cell's own
  /// metrics leave it empty: the cell keeps its ledger band-local, and
  /// CellularWorld::aggregate_metrics builds this vector for the world
  /// (ProtocolEngine::add_deliveries_by_user), as long as the longest
  /// per-cell vector used to be.
  std::vector<std::int64_t> per_user_delivered;

  void reset() { *this = ProtocolMetrics{}; }

  /// Exact equality over every field (counters, accumulators, histogram,
  /// per-user ledger; doubles compared with ==). This is the single
  /// definition of "bit-identical metrics" used by the parallel-vs-serial
  /// determinism test and bench_world's exit-code cross-check — a field
  /// added here (and to merge()) is covered by both automatically.
  bool operator==(const ProtocolMetrics&) const = default;

  /// Accumulates another cell's (or replication's) counters into this one —
  /// the aggregate view CellularWorld reports. Counters add; accumulators
  /// and histograms merge; measured_time takes the max (cells run in
  /// lockstep, so their windows coincide rather than concatenate).
  void merge(const ProtocolMetrics& other);

  // ---- Derived quantities (guard against empty windows) ----

  /// Paper Eq. (3): fraction of voice packets not received intact
  /// (deadline drops + channel errors + handoff drops + outage drops).
  double voice_loss_rate() const;
  /// Deadline-drop component only.
  double voice_drop_rate() const;
  /// Channel-error component only.
  double voice_error_rate() const;
  /// Handoff-drop component only.
  double voice_handoff_drop_rate() const;
  /// Outage-eviction component only.
  double voice_outage_drop_rate() const;

  /// Fraction of barring checks that barred the user (all classes);
  /// 0 when barring never engaged.
  double effective_barring_probability() const;

  /// Paper §5.2: average data packets successfully received per frame.
  double data_throughput_per_frame() const;
  /// Mean data delay in seconds.
  double mean_data_delay_s() const;

  double request_success_ratio() const;
  double slot_utilization() const;
  double slot_waste_ratio() const;

  /// Mean number of attached users per frame (per-cell load).
  double mean_attached_users() const;
  /// Mean per-epoch SINR penalty (dB); 0 when no interference plane ran.
  double mean_interference_db() const;
  /// User-frames of channel evolution per executed jump: exactly 1 under
  /// eager advancement, the lazy win factor otherwise. 0 on empty windows.
  double mean_materialization_stride() const;
  /// Handoffs out of this cell per measured second.
  double handoff_rate_hz() const;

  /// Jain's fairness index over per-user delivered packets restricted to
  /// the users in [first, last]: (sum x)^2 / (n * sum x^2); 1 = perfectly
  /// even, 1/n = one user takes everything. Returns 1 when nothing was
  /// delivered. Pass the data-user id range to judge data fairness.
  double jain_fairness_index(std::size_t first, std::size_t last) const;

  /// Total uplink transmit energy across all devices, joules.
  double total_energy_j() const;
  /// Millijoules of transmit energy per successfully delivered packet
  /// (voice + data); 0 when nothing was delivered.
  double energy_per_delivered_packet_mj() const;
  /// Fraction of transmit energy that delivered nothing.
  double energy_waste_ratio() const;
};

}  // namespace charisma::mac
