// ProtocolEngine: the "common simulation platform" (paper §5) every
// protocol runs on. It owns the world (users, channels, sources), the
// frame clock, both physical layers, the CSI estimator and the metrics,
// and advances the simulation one MAC frame at a time. Subclasses
// implement process_frame() with their access-control rules and return the
// frame duration they consumed — constant for the static-frame protocols,
// data-dependent for RMAV/DRMA — which sets when the next frame starts.
// The request cycle the protocols share (the contention entry test, the
// contention phase and its settlement, the request a winner's ACK opens,
// FCFS service of the queue) is written once here.
//
// Per-frame work is activity-indexed. The engine keeps a roster of its
// attached users (a sparse band also holds neighbours' users it only
// measures), advance_world calls only the traffic sources with an event
// due, and every protocol scan walks the roster (for_each_attached). Both
// are exact: results are bit-identical to visiting every band member.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "channel/channel_bank.hpp"
#include "channel/csi.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "mac/barring.hpp"
#include "mac/contention.hpp"
#include "mac/metrics.hpp"
#include "mac/mobile_user.hpp"
#include "mac/request_queue.hpp"
#include "mac/reservation.hpp"
#include "mac/scenario.hpp"
#include "phy/adaptive_phy.hpp"
#include "phy/fixed_phy.hpp"

namespace charisma::mac {

/// One band-resident user of an engine: its id and the storage slot its
/// state occupies (== its ChannelBank row). The band is kept sorted by id,
/// so iterating it reproduces the historical ascending-id loops bit for
/// bit; the slot is where a reused free-list row actually lives.
struct BandMember {
  common::UserId id;
  std::uint32_t slot;
};

/// One attached user of an engine: its id, its storage slot, and the
/// earliest time its traffic source has an event due (the source's
/// next_event_time() as of advance_world's last visit; -inf after every
/// attach, so the first frame always visits). The roster is kept sorted by
/// id, so the per-frame scans over it keep the historical ascending-id
/// order.
struct RosterEntry {
  common::UserId id;
  std::uint32_t slot;
  common::Time next_event;
};

class MobileUser;

/// Range view over an engine's band-resident users in ascending user-id
/// order — the sparse-presence replacement for the historical
/// `std::vector<MobileUser>&` that users() returned, for tests and
/// benchmarks. The frame loop walks the roster of attached users instead.
class UserBand {
 public:
  class iterator {
   public:
    iterator(const BandMember* m, const std::unique_ptr<MobileUser>* slots)
        : m_(m), slots_(slots) {}
    MobileUser& operator*() const { return *slots_[m_->slot]; }
    MobileUser* operator->() const { return slots_[m_->slot].get(); }
    iterator& operator++() {
      ++m_;
      return *this;
    }
    bool operator==(const iterator& o) const { return m_ == o.m_; }
    bool operator!=(const iterator& o) const { return m_ != o.m_; }

   private:
    const BandMember* m_;
    const std::unique_ptr<MobileUser>* slots_;
  };

  UserBand(const std::vector<BandMember>& band,
           const std::vector<std::unique_ptr<MobileUser>>& slots)
      : band_(&band), slots_(&slots) {}
  iterator begin() const { return {band_->data(), slots_->data()}; }
  iterator end() const {
    return {band_->data() + band_->size(), slots_->data()};
  }
  std::size_t size() const { return band_->size(); }
  bool empty() const { return band_->empty(); }

 private:
  const std::vector<BandMember>* band_;
  const std::vector<std::unique_ptr<MobileUser>>* slots_;
};

class ProtocolEngine {
 public:
  explicit ProtocolEngine(const ScenarioParams& params);
  virtual ~ProtocolEngine() = default;
  ProtocolEngine(const ProtocolEngine&) = delete;
  ProtocolEngine& operator=(const ProtocolEngine&) = delete;

  virtual std::string name() const = 0;

  /// Runs `warmup` seconds (statistics discarded), then `measure` seconds,
  /// and returns the metrics collected during measurement. Both durations
  /// are relative to now(), so repeated calls are window-monotonic: each
  /// call continues the same simulation and measures its own fresh window.
  /// warmup must be >= 0 and measure > 0.
  const ProtocolMetrics& run(common::Time warmup, common::Time measure);

  /// Advances the simulation `duration` seconds past now() without touching
  /// the accumulated metrics — the building block CellularWorld uses to
  /// interleave frames with mobility/attachment epochs. Runs every frame
  /// that starts at or before the window end (the first at t = 0), then
  /// parks now() at the window end; a frame pending past it runs in a
  /// later window at its own start time. No-op when duration <= 0. Throws
  /// logic_error if process_frame returns a non-positive duration.
  void advance_by(common::Time duration);

  /// Discards everything measured so far (run() does this after warmup).
  /// Also re-baselines the bank's materialization counters, so warmup
  /// materializations never leak into the first measured frame's
  /// users_advanced/skipped accounting.
  void reset_metrics() {
    reset_window();
    const auto stats = bank_.lazy_stats();
    lazy_events_seen_ = stats.jump_events;
    lazy_frames_seen_ = stats.jump_frames;
  }

  // ---- Fairness ledger of a band-local engine (defer_population) ----
  // A world cell keeps no by-id ledger in its metrics(): it counts
  // deliveries by storage slot, and band_release moves a departing user's
  // count into the per-user history it already keeps. The world builds the
  // dense by-id view once, in CellularWorld::aggregate_metrics, so the
  // ledger costs each cell O(band + departed users), not O(population). A
  // single-cell engine keeps the dense metrics().per_user_delivered and
  // adds nothing here.

  /// Adds the packets each user delivered here since the last
  /// reset_metrics() into `per_user` (indexed by id), first growing it
  /// with zeros to the size the dense by-id ledger has always had: the
  /// largest max(slot count, id + 1) over this window's deliveries.
  void add_deliveries_by_user(std::vector<std::int64_t>& per_user) const;

  // ---- Sparse presence: band membership (CellularWorld) ----
  // A cell's engine holds state only for the users inside its pilot band.
  // The historical dense mode is the special case where the whole
  // population is admitted at construction and never released.

  /// Admits `id` into this engine's band: adds a ChannelBank row (reusing
  /// the last released slot when there is one) and constructs the user's
  /// shell there, absent; attach_user_initial or attach_user makes it
  /// present. What the new row draws depends only on (scenario seed, id,
  /// per-(user,cell) visit count) — never on the presence history of the
  /// rest of the population or on which slot the free list handed back.
  /// Throws on a double admit or a bad id.
  MobileUser& band_admit(common::UserId id);

  /// Releases `id` from the band: destroys its shell and frees its bank
  /// row for reuse. The user must be detached first (throws logic_error
  /// otherwise); its next admit here draws a fresh rebirth seed.
  void band_release(common::UserId id);

  /// First-time attachment (the dense population at construction, the
  /// world's initial placement): makes the user present with live traffic,
  /// *without* counting a handoff — the initial placement is not a
  /// hand-in.
  void attach_user_initial(common::UserId id);

  /// Band membership, ascending by user id. slot is the user's storage /
  /// ChannelBank row index.
  const std::vector<BandMember>& band() const { return band_; }
  /// The attached (present) band members, ascending by user id with their
  /// slots: what every per-frame scan visits. Maintained by band_admit,
  /// attach_user, attach_user_initial, detach_user and evict_user — the
  /// only places a user's presence changes.
  const std::vector<RosterEntry>& roster() const { return roster_; }
  std::size_t band_size() const { return band_.size(); }
  bool band_resident(common::UserId id) const;

  // ---- Multi-cell attachment (CellularWorld) ----

  /// Removes the user from this cell's active population: the protocol
  /// releases any per-user state it holds (reservation, queued requests),
  /// in-flight voice packets are dropped and counted as
  /// voice_dropped_handoff, and the user stops generating traffic or
  /// contending here. No-op when already detached.
  void detach_user(common::UserId id);

  /// (Re-)admits the user to this cell's active population. The caller is
  /// responsible for carrying the user's service state in first
  /// (MobileUser::adopt_service_state). No-op when already attached.
  void attach_user(common::UserId id);

  /// Forced removal because this cell went dark (outage schedule): like
  /// detach_user, but the move is counted as an outage eviction and the
  /// in-flight voice as voice_dropped_outage rather than as a hysteresis
  /// handoff. No-op when already detached.
  void evict_user(common::UserId id);

  /// Records one decision epoch of the world's inter-cell interference
  /// plane for this cell: the mean SINR penalty (dB) across the per-user
  /// plane just fed to the ChannelBank. Called by CellularWorld inside
  /// the (share-nothing) per-cell epoch task; single-cell runs never
  /// record a sample.
  void note_interference_epoch(double mean_penalty_db) {
    metrics_.interference_db.add(mean_penalty_db);
  }

  /// Current access-class admission factors (1.0 when barring is off or
  /// has not tightened) — bench/test visibility into the closed loop.
  double barring_voice_factor() const {
    return barring_ ? barring_->voice_factor() : 1.0;
  }
  double barring_data_factor() const {
    return barring_ ? barring_->data_factor() : 1.0;
  }

  const ProtocolMetrics& metrics() const { return metrics_; }
  const ScenarioParams& params() const { return params_; }
  common::Time now() const { return now_; }
  common::FrameIndex frame_index() const { return frame_index_; }

  /// Every band-resident user in ascending user-id order, attached or not
  /// (historically: the whole population). The frame loop itself never
  /// walks it — advance_world and the protocols' scans visit the roster of
  /// attached users — so this is the tests' and benchmarks' view.
  UserBand users() { return {band_, users_}; }
  MobileUser& user(common::UserId id);

  /// The SoA channel state whose rows are the users' channels
  /// (MobileUser::slot); exposed for benchmarks and tests of the batched
  /// hot path.
  channel::ChannelBank& channel_bank() { return bank_; }
  const channel::ChannelBank& channel_bank() const { return bank_; }

 protected:
  /// One frame of protocol operation at sim time now(); returns the frame
  /// duration consumed (> 0).
  virtual common::Time process_frame() = 0;

  /// Protocol hook run by detach_user before the user goes absent: release
  /// every per-user structure the protocol holds (reservations, queue
  /// entries, grants, CSI cache). Default: nothing to release.
  virtual void on_user_detached(common::UserId /*id*/) {}

  /// Twin hook run by attach_user / attach_user_initial after the user
  /// becomes present: construct (or debug-verify the absence of) per-user
  /// protocol state. Every stock protocol keys its state by user id and
  /// releases it in on_user_detached, so the default — and the overrides —
  /// do no release-mode work; overrides assert no stale residue survived a
  /// detach/release cycle. The dense at-construction population attaches
  /// inside the base constructor, where the call dispatches to this no-op
  /// (protocol constructors run after admission).
  virtual void on_user_attached(common::UserId /*id*/) {}

  /// Number of requests the protocol is holding at the base station
  /// (admitted but unserved) — the barring controller's queue-depth signal.
  /// Default: no queue.
  virtual std::int64_t pending_request_count() const { return 0; }

  // ---- World helpers ----

  /// Advances channels and sources to the current frame boundary and
  /// accounts packet generation/expiry. The channel side is one of the two
  /// places the schedule differs (touch_channels is the other):
  /// advance_all_to (eager, the default) or, with params.lazy_channel, an
  /// O(1) clock move (bank_.set_time) after which per-user state
  /// materializes when the frame touches or reads it. Traffic is
  /// activity-indexed: only roster entries whose next event is due
  /// (next_event <= now + 1e-9, the test on_frame itself makes) call
  /// on_frame, since on_frame before that instant changes nothing. The
  /// cached time can only be early, never late: the mutations a source
  /// sees between frames (consume_packet, drop_pending_voice, push_front,
  /// set_rate_scale) never move its next event earlier, and an early
  /// visit is a no-op that refreshes the cache.
  void advance_world();

  /// The band member stored at `slot` (a roster entry's or a protocol's
  /// recorded slot): the O(1) alternative to user(id)'s search.
  MobileUser& at_slot(std::uint32_t slot) { return *users_[slot]; }

  /// The per-frame scan: calls `visit(MobileUser&)` for every attached
  /// user in ascending id order, except the ids in `skip` — an ascending
  /// id list such as RequestQueue::members() — which one merge-walk
  /// passes over instead of a membership search per user. Neither the
  /// roster nor `skip` may change during the walk.
  template <typename Visit>
  void for_each_attached(std::span<const common::UserId> skip,
                         Visit&& visit) {
    auto next_skip = skip.begin();
    for (const RosterEntry& e : roster_) {
      while (next_skip != skip.end() && *next_skip < e.id) ++next_skip;
      if (next_skip != skip.end() && *next_skip == e.id) continue;
      visit(*users_[e.slot]);
    }
  }
  template <typename Visit>
  void for_each_attached(Visit&& visit) {
    for_each_attached({}, std::forward<Visit>(visit));
  }

  /// Ends the reservation of every attached voice user whose talkspurt is
  /// over with no packet left to send (the grid-based baselines' per-frame
  /// release; ascending id order).
  void release_finished_talkspurts(ReservationGrid& grid);

  /// Declares the users this frame is about to read (slot owners, due
  /// lists, contention candidates, grant queues): under the lazy schedule
  /// they materialize as one batch instead of paying scattered on-read
  /// jumps; the eager schedule (the default) needs nothing. Protocols pass user
  /// ids; the engine translates them to bank slots (a sparse band's rows
  /// are recycled, so ids != slots). The touch set is an optimization, not
  /// an obligation — any user read without being declared still
  /// materializes transparently, so protocol hooks only need to cover
  /// their hot sets.
  void touch_channels(std::span<const common::UserId> users) {
    if (params_.lazy_channel) materialize_touched(users);
  }

  /// This user's permission probability (paper §2, p_v / p_d).
  double permission_prob(const MobileUser& u) const;

  /// The reservation phase of the current frame: a reserved voice user
  /// owns one slot in every frames_per_voice_period-th frame.
  int voice_phase() const {
    return static_cast<int>(frame_index_ % geom_.frames_per_voice_period);
  }

  /// Access-class barring gate at contention entry: true when the user is
  /// barred from contending this frame. With barring disabled, or the
  /// user's class factor at 1, returns false without drawing RNG — the
  /// legacy bit-for-bit path. Protocols call this exactly where a user
  /// would become a NEW contention candidate (never on users already
  /// holding a reservation or a queued request).
  bool barring_blocks(MobileUser& u);

  /// The grid baselines' contention entry test for an attached user
  /// without a queued request: a voice user in a talkspurt with a packet
  /// pending and no reservation, or a data user with a backlog, that the
  /// barring gate lets through. The gate (and its draw) is consulted only
  /// for users the first test admits.
  bool contends_for_reservation(MobileUser& u, const ReservationGrid& grid) {
    const bool active = u.is_voice()
                            ? !grid.has_reservation(u.id()) &&
                                  u.voice().in_talkspurt() &&
                                  u.voice().has_packet()
                            : u.data().backlog() > 0;
    return active && !barring_blocks(u);
  }

  /// The request a contention winner's ACK opens at the base station:
  /// voice asks for one slot by its pending packet's deadline, data for
  /// its whole backlog with no deadline.
  PendingRequest acked_request(const MobileUser& u) const;

  /// run_request_phase over `candidates` with each user's own MAC stream,
  /// into the outcome the engine reuses across phases (so a warm phase
  /// allocates nothing). The returned outcome is valid until the next
  /// phase starts.
  template <typename Permission>
  const ContentionOutcome& request_phase(
      const std::vector<common::UserId>& candidates, int minislots,
      Permission&& permission) {
    run_request_phase(
        candidates, minislots, std::forward<Permission>(permission),
        [this](common::UserId id) -> common::TrafficRng& {
          return user(id).rng();
        },
        contention_, contenders_);
    return contention_;
  }

  /// Runs a contention phase over `candidates` with the class permission
  /// probabilities scaled by each device's backoff state, records the
  /// tally, injects downlink-ACK loss, and settles the phase
  /// (settle_contention; a winner whose ACK was lost behaves like a
  /// collided loser and is dropped from the winners). Each request costs a
  /// minislot's energy. The outcome is request_phase's.
  const ContentionOutcome& run_contention(
      const std::vector<common::UserId>& candidates, int minislots);

  /// The tail of every request phase: updates backoff (winners reset,
  /// collided losers halve) and charges `symbols_per_request` of energy
  /// per transmitted request, the winners' counting as useful.
  void settle_contention(const ContentionOutcome& outcome,
                         double symbols_per_request);

  /// The FCFS service of D-TDMA and RAMA: serves `queue`'s requests, then
  /// `winners`, voice before data (order_voice_first, built in
  /// `scratch`), calling `serve(PendingRequest&)`, which returns true when
  /// the request is finished. The queue is rebuilt from the unfinished
  /// ones when the request queue is on (§4.5); otherwise they are dropped.
  template <typename Serve>
  void serve_voice_first(RequestQueue& queue,
                         std::span<const PendingRequest> winners,
                         std::vector<PendingRequest>& scratch, Serve&& serve) {
    order_voice_first(queue.entries(), winners, scratch);
    queue.clear();
    for (PendingRequest& request : scratch) {
      if (!serve(request) && params_.request_queue) {
        ++request.frames_waited;
        queue.push(request);
      }
    }
  }

  // ---- Energy accounting (paper §1, motivation 2) ----

  /// Joules for an uplink burst of `symbols` at this geometry's rate.
  double burst_energy(double symbols) const;
  /// Charges request-phase energy: `bursts` transmissions of
  /// `symbols_each`, of which `useful` carried a winning request.
  void note_request_energy(int bursts, double symbols_each, int useful);
  /// Charges a pilot response to a CSI poll.
  void note_pilot_energy();

  /// Pilot-based CSI estimate of the user's current channel.
  channel::CsiEstimate estimate_csi(MobileUser& u);

  // ---- Transmissions (update metrics; caller owns slot assignment) ----
  // One information slot assigned to `u`, carrying `burst`: the fixed PHY's
  // one-packet burst (fixed_phy_.burst()) or the adaptive PHY's burst for
  // the announced mode (adaptive_phy_.burst(mode)). A slot whose burst
  // carries no packet, or whose user has nothing to send, is wasted and the
  // device stays silent (no energy spent).

  /// Sends the user's pending voice packet. Consumes the packet; counts
  /// delivery or channel-error loss. With a zero-packet burst the packet
  /// stays pending until its deadline.
  void transmit_voice(MobileUser& u, phy::SlotBurst burst);

  /// Sends up to burst.packets head-of-line data packets in one slot;
  /// failures stay queued for ARQ retransmission.
  void transmit_data(MobileUser& u, phy::SlotBurst burst);

  // ---- Accounting helpers ----
  void note_contention(const ContentionTally& tally);
  /// Credits delivered packets to the user's fairness ledger.
  void note_user_delivery(const MobileUser& u, int packets);
  void offer_info_slots(int n) { metrics_.info_slots_offered += n; }

  ScenarioParams params_;
  FrameGeometry geom_;
  channel::ChannelBank bank_;  // users_[slot]'s channel is row `slot`
  // Slot-indexed storage mirroring the bank's rows one-for-one (null at
  // vacant slots), plus the ascending-id membership index over it. In the
  // dense population slot == id and band_ is the identity.
  std::vector<std::unique_ptr<MobileUser>> users_;
  std::vector<BandMember> band_;
  std::vector<RosterEntry> roster_;  ///< attached band members, by id
  ProtocolMetrics metrics_;
  phy::FixedPhy fixed_phy_;
  phy::AdaptivePhy adaptive_phy_;
  channel::CsiEstimator csi_estimator_;
  common::RngStream bs_rng_;
  common::FrameIndex frame_index_ = 0;

 private:
  void note_assigned_slot() { ++metrics_.info_slots_assigned; }
  void note_wasted_slot() { ++metrics_.info_slots_wasted; }
  /// Starts a fresh measurement window: clears the metrics and a band-local
  /// engine's ledger (the slot counts and the departed users' counts).
  void reset_window();
  /// One frame at now(): advance the world, run the protocol frame, and
  /// return the consumed duration (the offset of the next frame's start).
  common::Time frame_tick();
  /// touch_channels' lazy path: translates each id through user(id)'s
  /// lookup into touch_slots_ and materializes those bank slots.
  void materialize_touched(std::span<const common::UserId> users);
  /// detach_user and evict_user: the protocol releases the user, its
  /// in-flight voice is dropped into `voice_dropped`, and `removals`
  /// counts the move. No-op when already detached.
  void remove_user(common::UserId id, std::int64_t& voice_dropped,
                   std::int64_t& removals);
  /// The only presence transitions: flip the user's flag and enter it in
  /// (or remove it from) the roster at its id's place.
  void mark_attached(MobileUser& u);
  void mark_detached(MobileUser& u);
  /// Debug cross-check: the roster lists exactly the present band members,
  /// in ascending id, with their slots.
  bool roster_matches_band() const;

  /// The frame clock: the current simulation time and the start time of
  /// the next frame (the first frame starts at t = 0).
  common::Time now_ = 0.0;
  common::Time next_frame_ = 0.0;

  /// True while slot == id for every band member with no vacancies — the
  /// dense population's invariant, letting user(id) skip the binary
  /// search. Cleared (permanently) by the first out-of-order admit or any
  /// release.
  bool identity_ = true;
  /// What a user's released shells left behind in this cell.
  struct BandHistory {
    /// Completed band visits *here*: how many times the user has been
    /// released from this cell's band. Seeds the rebirth stream on
    /// re-admission.
    std::uint32_t visits = 0;
    /// Packets those shells delivered here since the last reset_metrics()
    /// (the ledger's share of users no longer band-resident).
    std::int64_t delivered = 0;
  };
  /// Per released user; empty for the dense population. A re-entering
  /// user's stays share one entry.
  std::unordered_map<common::UserId, BandHistory> band_history_;
  /// A band-local engine's ledger of its band members: packets delivered
  /// since the last reset_metrics(), by storage slot (grown to the slot
  /// count when a slot past its end first delivers; empty for the dense
  /// population, whose ledger is metrics_.per_user_delivered).
  std::vector<std::int64_t> delivered_by_slot_;
  /// The dense ledger's size for this window (add_deliveries_by_user's
  /// rule); 0 before any delivery.
  std::size_t ledger_extent_ = 0;
  /// Slot scratch for materialize_touched, reused across frames.
  std::vector<std::uint32_t> touch_slots_;
  /// request_phase's outcome and resolved candidates, reused across
  /// phases.
  ContentionOutcome contention_;
  std::vector<Contender<common::TrafficRng>> contenders_;
  /// Failed-arrival scratch for transmit_data, sized at construction for
  /// the largest burst, so ARQ retransmissions never allocate.
  std::vector<common::Time> retx_scratch_;

  // Closed-loop barring (engaged only when params.barring; the controller
  // lives inside this cell's engine, so the parallel world's share-nothing
  // guarantee is untouched).
  std::optional<BarringController> barring_;
  // Bank-counter snapshot already attributed to metrics_ (frame_tick
  // scrapes deltas; reset_metrics re-baselines).
  std::int64_t lazy_events_seen_ = 0;
  std::int64_t lazy_frames_seen_ = 0;
};

}  // namespace charisma::mac
