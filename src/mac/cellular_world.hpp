// Multi-cell mobility scenario layer — the paper's §6 future-work question
// ("to which new base station should the user attach, from a channel
// quality point of view?") promoted from a side study to a first-class
// simulation workload.
//
// A CellularWorld owns one ProtocolEngine per cell. Presence is sparse
// and band-local: a user holds materialized channel/engine state only in
// the cells whose pilot band covers it — the sites within
// `pilot_band_radius_m` of its position (wrap-aware, SiteIndex), plus
// always its attached cell — and is *present* (generating traffic,
// contending, holding reservations) in exactly one of them. Radius 0 (the
// default) puts every user in every cell's band, which reproduces the
// historical dense users×cells world bit for bit; a finite radius makes
// per-cell memory and epoch work O(band occupancy) instead of
// O(population), which is what makes million-user worlds affordable.
// Each decision epoch the world:
//
//   1. moves every user (MobilityModel) and updates band membership from
//      the new positions — engines admit entering users
//      (ProtocolEngine::band_admit: a fresh ChannelBank row, or a
//      recycled one re-seeded from the per-(user, cell) visit counter)
//      and release leavers (band_release),
//   2. re-anchors each band-resident (user, cell) link's mean SNR from
//      distance-based path loss, computes the cell's per-user co-channel
//      interference penalties (from the *previous* epoch's attached-user
//      loads) fed through ChannelBank::set_interference_db_all, and
//      snapshots each cell's instantaneous pilot plane
//      (set_mean_snr_db_all / snr_db_all — fading/shadowing state and RNG
//      draw order untouched). With interference enabled, pilots and
//      in-cell SNR are SINR.
//   3. updates per-(user, cell) filtered pilots and applies the
//      strongest-with-hysteresis attachment rule
//      (mac::strongest_with_hysteresis — every challenger measured
//      against the *attached* pilot), executing handoffs that carry the
//      user's traffic/backoff state into the target cell while the source
//      protocol releases its reservation and queued requests, then
//      aggregates the new per-cell attached-user loads that drive the
//      next epoch's interference plane,
//   4. advances every engine by one epoch of MAC frames.
//
// Sites sit on a mac::SiteLayout — the historical line, or hexagonal
// rings with an optional frequency-reuse pattern (only co-channel cells
// interfere) and wrap-around distances for edge-free full-ring clusters.
//
// Cells are share-nothing — each engine owns its frame clock, ChannelBank
// and RNG streams — so steps 2 and 4 dispatch one task per cell across a
// persistent experiment::WorkerPool (num_threads in the config). The
// cross-cell steps (pilot filtering, attachment, handoff, load
// aggregation) stay on the coordinating thread between the pool's
// barriers, and each cell's interference row is computed inside its own
// task from the frozen load vector, which keeps the world's results
// bit-identical to a serial run at any thread count — interference
// included (tests/mac/world_determinism_test.cpp).
//
// Handoffs, voice packets dropped in transit, and per-cell load all land in
// ProtocolMetrics, so the existing reporting stack works unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "experiment/worker_pool.hpp"
#include "mac/engine.hpp"
#include "mac/mobility.hpp"
#include "mac/presence.hpp"
#include "mac/scenario.hpp"
#include "mac/site_layout.hpp"
#include "traffic/modulation.hpp"

namespace charisma::mac {

/// One scheduled cell outage: the cell is dark during [start, end).
struct CellOutageWindow {
  int cell = 0;
  common::Time start = 0.0;
  common::Time end = 0.0;

  bool valid(int num_cells) const {
    return cell >= 0 && cell < num_cells && start >= 0.0 && end > start;
  }
};

struct CellularConfig {
  int num_cells = 2;

  /// Per-cell protocol scenario. The population is the whole world's (every
  /// engine instantiates all of it); `params.seed` roots the world — cells
  /// derive decorrelated sub-seeds so the same user fades independently on
  /// each cell's link. `params.channel.mean_snr_db` is re-interpreted as
  /// the link budget at CellularWorld::kReferenceDistanceM from a base
  /// station.
  ScenarioParams params{};

  MobilityConfig mobility{};

  /// Site geometry + frequency-reuse partition. The default (line layout,
  /// spacing derived from the field width, reuse 1) reproduces the
  /// historical site positions exactly.
  SiteLayoutConfig layout{};

  /// Per-attached-user transmit activity factor feeding the inter-cell
  /// uplink interference plane: each cell's aggregate load is
  /// activity × attached users, placed at its site, and co-channel loads
  /// raise every neighbour link's SINR penalty. 0 (the default) disables
  /// interference entirely — the legacy interference-free SNR world, bit
  /// for bit. A voice-dominated population transmits roughly
  /// talkspurt / (talkspurt + silence) ≈ 0.4 of the time.
  double interference_activity = 0.0;

  /// Worker threads stepping the share-nothing cells in parallel: 1 (the
  /// default) runs serially on the caller, 0 picks the hardware
  /// concurrency. Results are bit-identical at every setting.
  unsigned num_threads = 1;

  /// Coordinator shards: the world plane — mobility stepping, SiteIndex
  /// band-roster computation, pilot blending and the attachment rule — is
  /// computed over this many contiguous user-id ranges in parallel on the
  /// worker pool, each shard emitting proposal lists (suspended mobility
  /// walks, new band rosters, handoff/eviction candidates) that the
  /// coordinator merges in ascending user-id order. Free-list state, RNG
  /// derivation and every downstream draw are therefore byte-for-byte
  /// independent of the shard *and* thread count. 0 (the default) matches
  /// the resolved worker-thread count; 1 computes the plane in one range
  /// (inline when the world is serial).
  unsigned num_shards = 0;

  /// Pilot-band radius (m): a user holds channel/engine state only in the
  /// cells whose site is within this distance (wrap-aware), plus always
  /// its attached cell. 0 (the default) is the all-cells band — the
  /// historical dense world, bit for bit. A finite radius must cover the
  /// attachment geometry (≳ the site spacing) to leave handoffs a target;
  /// memory and epoch work then scale with band occupancy, not with
  /// users × cells.
  double pilot_band_radius_m = 0.0;

  /// Attachment policy (mac::strongest_with_hysteresis inputs).
  double handoff_hysteresis_db = 4.0;

  /// Cell-outage fault schedule. While a cell is dark its pilot reads the
  /// sentinel floor (nobody attaches), its attached users are force-evicted
  /// to their strongest lit neighbour — in-flight voice dropped and counted
  /// as voice_dropped_outage — and on recovery the pilot filter restarts
  /// from a fresh snapshot so re-attachment is not delayed by a stale
  /// filtered history. An epoch is dark iff its start time falls inside a
  /// window. Empty (the default) preserves legacy runs bit for bit.
  std::vector<CellOutageWindow> outages{};

  /// Spatio-temporal traffic modulation (flash crowds, diurnal tides):
  /// the coordinator rescales every user's source intensity each epoch
  /// from its position. kNone (the default) applies nothing.
  traffic::TrafficModulationConfig modulation{};

  bool valid() const {
    for (const auto& o : outages) {
      if (!o.valid(num_cells)) return false;
    }
    return num_cells >= 1 && params.valid() && mobility.valid() &&
           layout.valid() && pilot_band_radius_m >= 0.0 &&
           interference_activity >= 0.0 &&
           interference_activity <= 1.0 && handoff_hysteresis_db >= 0.0 &&
           modulation.valid();
  }
};

/// Builds the protocol engine for one cell (typically wraps
/// protocols::make_protocol; injected to keep mac/ independent of the
/// protocol catalogue).
using EngineFactory =
    std::function<std::unique_ptr<ProtocolEngine>(const ScenarioParams&)>;

class CellularWorld {
 public:
  /// Mobility/attachment decision cadence (s): one epoch.
  static constexpr common::Time kDecisionInterval = 20e-3;
  /// Pilot low-pass filter time constant (s) — suppresses fading-rate
  /// ping-pong.
  static constexpr common::Time kPilotFilterTau = 0.2;

  // ---- Distance -> mean SNR (log-distance path loss) ----
  static constexpr double kPathLossExponent = 3.5;
  static constexpr double kReferenceDistanceM = 200.0;
  /// Distances clamp here so a user standing on a site keeps a finite SNR.
  static constexpr double kMinDistanceM = 10.0;
  /// The closed form the SNR plane evaluates:
  ///   db(d) = C − kPathLossHalfK · ln(max(d², kMinDistanceSqM2))
  /// with K = 10 n / ln 10 and C the mean SNR at the reference distance
  /// with K · ln(d0) folded in. The interference plane evaluates the same
  /// model linearly, as path_gain() · max(d², kMinDistanceSqM2)^(−n/4)
  /// (co_channel_inr).
  static constexpr double kPathLossHalfK =
      0.5 * (10.0 * kPathLossExponent / 2.302585092994046);
  static constexpr double kMinDistanceSqM2 = kMinDistanceM * kMinDistanceM;

  /// Shadowing decorrelation *distance* (Gudmundson): when users move,
  /// each cell's shadow_tau is derived as distance / speed, so slow users
  /// see slowly evolving shadowing and vehicular users churn through it —
  /// which is what makes the handoff rate speed-dependent. A static
  /// population keeps params.channel.shadow_tau as configured.
  static constexpr double kShadowDecorrelationM = 25.0;

  CellularWorld(const CellularConfig& config, const EngineFactory& factory);

  /// Runs `warmup` seconds (all metrics then reset, handoff counter
  /// included), then `measure` seconds, in decision-interval epochs. May be
  /// called repeatedly; windows are monotone like ProtocolEngine::run.
  void run(common::Time warmup, common::Time measure);

  /// Advances the world by `duration` seconds of epochs with NO metric
  /// reset — counters keep accumulating across calls. This is run()'s
  /// measurement loop without the warmup bookkeeping; the frame_alloc
  /// suite wraps it in a counting allocator to pin the steady-state epoch
  /// path (band maintenance included) as allocation-free.
  void advance(common::Time duration);

  int num_cells() const { return static_cast<int>(cells_.size()); }
  ProtocolEngine& cell(int c) { return *cells_.at(static_cast<std::size_t>(c)); }
  /// One cell's metrics. Its per_user_delivered is empty: a cell keeps
  /// its fairness ledger band-local (ProtocolEngine::add_deliveries_by_user).
  const ProtocolMetrics& cell_metrics(int c) const {
    return cells_.at(static_cast<std::size_t>(c))->metrics();
  }
  /// Sum/merge of every cell's metrics — the whole-world view, with the
  /// dense by-id per_user_delivered built from the cells' ledgers.
  ProtocolMetrics aggregate_metrics() const;

  /// Handoffs executed since the last metrics reset.
  std::int64_t handoffs() const { return handoffs_; }
  int attached_cell(common::UserId user) const {
    return attached_.at(static_cast<std::size_t>(user));
  }
  Vec2 site_position(int c) const { return layout_.position(c); }
  const SiteLayout& layout() const { return layout_; }
  /// Whether the uplink interference plane is active
  /// (interference_activity > 0).
  bool interference_enabled() const {
    return config_.interference_activity > 0.0;
  }
  /// Current SINR penalty (dB, >= 0) on the (user, cell) link; exactly 0
  /// when the plane is disabled or the cell has no co-channel load. The
  /// user must be resident in cell `c`'s band.
  double interference_db(common::UserId user, int c) const {
    auto& cell = *cells_.at(static_cast<std::size_t>(c));
    return cell.channel_bank().interference_db(cell.user(user).slot());
  }
  /// The aggregate load (activity × attached users) cell `c` contributed
  /// to the current epoch's interference plane.
  double cell_load(int c) const {
    return cell_load_.at(static_cast<std::size_t>(c));
  }
  const MobilityModel& mobility() const { return mobility_; }
  common::Time now() const { return now_; }
  unsigned thread_count() const { return pool_->thread_count(); }
  /// Resolved coordinator shard count (num_shards after the 0 = auto and
  /// population clamps).
  unsigned shard_count() const { return num_shards_; }

  /// Cumulative wall-clock split of the epoch loop since the last run()
  /// measurement window began (reset together with the metrics):
  /// coordinator-only merge/apply work vs the sharded world-plane
  /// barriers vs the per-cell plane/frame barriers.
  struct EpochTimings {
    double serial_plane_s = 0.0;  ///< coordinator merge/apply/aggregate
    double shard_plane_s = 0.0;   ///< sharded world-plane phases
    double cell_plane_s = 0.0;    ///< per-cell SNR plane + MAC frames
    /// The per-cell SNR/SINR-plane round alone (also in cell_plane_s).
    double snr_plane_s = 0.0;
    std::uint64_t epochs = 0;
  };
  const EpochTimings& epoch_timings() const { return timings_; }

  /// Whether cell `c` is dark in the current epoch (always false without
  /// an outage schedule).
  bool cell_dark(int c) const {
    return !dark_.empty() && dark_[static_cast<std::size_t>(c)] != 0;
  }
  /// Number of users currently attached to cell `c` — an O(1) read of the
  /// per-cell counter maintained by initialize_attachments and move_user
  /// (debug builds reconcile it against the full scan).
  int attached_count(int c) const;

  /// Cells whose pilot band currently contains `user`, ascending — test
  /// visibility into the sparse-presence bookkeeping.
  std::vector<int> band_cells(common::UserId user) const;

  /// Mean SNR (dB) the path-loss model assigns at distance `d_m` — exposed
  /// for tests and the bench's sanity prints.
  double mean_snr_at_distance_db(double d_m) const;
  /// G = 10^(C/10), the path-loss model's linear gain: a unit load at
  /// distance d adds an INR of G · d^−n (co_channel_inr).
  double path_gain() const { return path_gain_; }

 private:
  /// One (user, cell) band residency: the cell, the user's engine/bank
  /// slot there, and the filtered pilot. `fresh` marks entries admitted
  /// this epoch: their first blend starts the filter from the snapshot
  /// instead of decaying from an empty history.
  struct BandPilot {
    int cell = 0;
    std::uint32_t slot = 0;
    double pilot_db = 0.0;
    bool fresh = true;
  };

  /// One attachment-phase proposal: user moves to cell `to`, either as an
  /// ordinary hysteresis handoff or as a forced outage eviction.
  struct AttachMove {
    int user = 0;
    int to = 0;
    bool evict = false;
  };

  /// Per-shard proposal arena — everything a world-plane shard writes.
  /// Shards own disjoint arenas, so the parallel phases share nothing;
  /// vectors are clear()ed per epoch and reach steady capacity, after
  /// which the epoch path allocates nothing.
  struct ShardArena {
    std::vector<MobilityModel::Suspended> suspended;
    /// The users of the shard's range whose band changes this epoch,
    /// ascending, and their new rosters (ascending cells per user)
    /// concatenated, offsets[k] .. offsets[k+1] delimiting the k-th
    /// changed user's.
    std::vector<int> band_users;
    std::vector<int> band_cells;
    std::vector<std::uint32_t> band_offsets;
    std::vector<AttachMove> moves;
    /// Attachment-rule gather scratch (one user's pilots + cell ids).
    std::vector<double> pilot_scratch;
    std::vector<int> cell_of_scratch;
  };

  /// Sharded mobility step to absolute time `t`: phase A advances every
  /// shard's trajectories draw-free (suspending random-waypoint arrivals),
  /// phase B resumes the suspended walks on the coordinator in ascending
  /// user order — consuming the shared mobility stream in exactly the
  /// serial advance_to draw sequence.
  void advance_mobility(common::Time t);

  /// Sharded band-roster proposals: each shard queries SiteIndex for its
  /// users' new cell sets (plus the pinned attached cell when
  /// `include_attached`), diffs each against the user's current band and
  /// keeps only the changed ones in its arena. Pure computation — no
  /// engine is touched, and nothing writes band_ during the round.
  void propose_bands(bool include_attached);
  /// Coordinator merge of the changed bands in ascending user-id order:
  /// admits entrants into / releases leavers from the cell engines and
  /// rebuilds band_[u]. An unchanged user would neither admit nor
  /// release, so skipping it changes nothing; the deterministic
  /// admit/release order of the rest is what keeps the banks' free lists,
  /// and therefore the whole world, bit-identical at any shard/thread
  /// count.
  void apply_band_proposals();
  /// The two-pointer diff of one user's old band against its proposed
  /// cell set (both ascending), issuing band_release/band_admit.
  void update_user_band(int u, std::span<const int> cells);
  /// propose + apply (construction; epochs call the phases directly).
  void update_bands(bool include_attached);
  /// Grows each cell's plane scratch rows to the bank's current row count
  /// (vacant rows are never read; they only keep the spans full-size).
  void resize_plane_rows();
  void initialize_attachments();
  /// Per-cell epoch task (runs on the pool): over the cell's band — never
  /// users × cells — re-anchor the mean-SNR plane from the members'
  /// positions, compute each member's co-channel SINR penalty from the
  /// coordinator-frozen load vector, feed the bank and the cell's
  /// penalty-mean metric, and take the pilot snapshot into this cell's
  /// slot-indexed plane row. The penalty sum runs site-outer over the
  /// members' packed positions, several members per instruction; each
  /// member adds interference_penalty_db's terms in its order, so the
  /// plane equals that function bit for bit.
  void update_cell_snr_plane(int c);
  /// The per-epoch plane update: one share-nothing barrier of cell tasks,
  /// interference included.
  void update_snr_planes();
  /// Coordinator step after attachment: refreshes cell_load_ (activity ×
  /// attached users per cell) for the next epoch's interference plane.
  void update_cell_loads();
  /// Low-pass blend (pilot_alpha_) of the per-cell snapshot rows into one
  /// user's band entries. Fresh entries — every entry at construction —
  /// start from the snapshot.
  void blend_user_pilots(std::size_t u);
  /// Sharded attachment phase: each shard blends its users' pilots and
  /// evaluates the outage-eviction / strongest-with-hysteresis rule
  /// against the frozen epoch snapshot, emitting AttachMove proposals.
  /// Valid because a user's decision reads only its own band pilots and
  /// its own attached cell — nothing another user's same-epoch move
  /// mutates.
  void decide_attachments();
  /// One user's blend + decision; returns true when a move is proposed.
  bool decide_user(int u, ShardArena& arena, AttachMove& move);
  /// Coordinator replay of the proposed moves in ascending user-id order:
  /// executes each move_user so every engine mutation (and RNG draw) lands
  /// in the serial order.
  void apply_attachment_moves();
  /// Executes one move: the target adopts the user's service state (the
  /// in-flight voice packet dies in transit; the data backlog rides
  /// along), the source releases the user, and the target attaches it. An
  /// ordinary move is a hysteresis handoff; an outage eviction (`evict`)
  /// is booked by the source as such (in-flight voice ->
  /// voice_dropped_outage) and not counted in handoffs().
  void move_user(const AttachMove& move);
  /// True when the outage schedule darkens cell `c` at time `t`.
  bool is_dark(int c, common::Time t) const;
  /// Rolls the per-epoch dark flags forward to epoch-start time `t`
  /// (prev_dark_ keeps the previous epoch's flags for the recovery reset).
  void update_outage_flags(common::Time t);
  /// Rescales every user's traffic sources from the modulation config and
  /// its current position (coordinator step; no-op for kNone).
  void apply_traffic_modulation(common::Time t);
  void run_window(common::Time duration);

  CellularConfig config_;
  std::vector<std::unique_ptr<ProtocolEngine>> cells_;
  SiteLayout layout_;
  SiteIndex site_index_;
  MobilityModel mobility_;
  /// Steps cells and user shards; a one-thread pool runs every round
  /// inline on the caller.
  std::unique_ptr<experiment::WorkerPool> pool_;
  std::vector<int> attached_;          ///< per-user cell index
  /// Per-user band residencies, ascending by cell — the sparse
  /// replacement for the dense users×cells filtered-pilot plane.
  std::vector<std::vector<BandPilot>> band_;
  /// Per-cell slot-indexed epoch scratch: the mean-SNR/pilot snapshot row
  /// fed to (and read back from) the cell's bank. Only band members'
  /// slots are written or read.
  std::vector<std::vector<double>> plane_rows_;
  /// Per-cell slot-indexed SINR penalty rows; empty when the plane is
  /// disabled.
  std::vector<std::vector<double>> interference_rows_;
  /// Per-cell attached-user counters (mirrors counting attached_; the
  /// scan is debug-assert only).
  std::vector<int> attach_counts_;
  /// Coordinator scratch: band-diff merge target.
  std::vector<BandPilot> band_scratch_;
  /// Per-shard proposal arenas (size num_shards_; arena s is written only
  /// by shard s's task and read only by the coordinator between barriers).
  std::vector<ShardArena> shard_arenas_;
  /// Per-cell aggregate load (activity × attached users) frozen by the
  /// coordinator each epoch; read-only inside the parallel cell tasks.
  std::vector<double> cell_load_;
  /// Per-cell co-channel interferer site lists (reuse partition).
  std::vector<std::vector<int>> cochannel_;
  /// Per-epoch outage flags (empty when no outage schedule): frozen by the
  /// coordinator before the parallel plane tasks read them.
  std::vector<char> dark_;
  std::vector<char> prev_dark_;
  double pilot_alpha_ = 1.0;
  // Path loss in per-site precomputed form: db = C - K/2 * ln(d²) with the
  // reference-distance log10 folded into C, so a member's mean SNR costs
  // one ln of the squared distance — no sqrt, no division-by-d0. The
  // interference plane reads the linear G = 10^(C/10) instead.
  double path_loss_c_db_ = 0.0;
  double path_gain_ = 0.0;
  unsigned num_shards_ = 1;
  EpochTimings timings_;
  std::int64_t handoffs_ = 0;
  common::Time now_ = 0.0;
};

}  // namespace charisma::mac
