#include "mac/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

namespace charisma::mac {

namespace {
constexpr std::uint64_t kBaseStationStream = 0x4000'0000ULL;
// The sources' own "event due" tolerance (VoiceSource/DataSource on_frame).
constexpr double kTimeEps = 1e-9;

bool id_before(const RosterEntry& e, common::UserId id) { return e.id < id; }

/// The next instant the user's traffic source has anything to do.
[[maybe_unused]] common::Time next_event_of(const MobileUser& u) {
  return u.is_voice() ? u.voice().next_event_time()
                      : u.data().next_event_time();
}
}  // namespace

ProtocolEngine::ProtocolEngine(const ScenarioParams& params)
    : params_(params),
      geom_(params.geometry),
      fixed_phy_(params.fixed_phy_reference_db, params.phy.target_ber,
                 params.geometry.packet_bits),
      adaptive_phy_(phy::ModeTable::abicm6(params.phy.target_ber),
                    [&params] {
                      phy::PhyConfig cfg = params.phy;
                      cfg.slot_symbols = params.geometry.slot_symbols;
                      cfg.packet_bits = params.geometry.packet_bits;
                      return cfg;
                    }()),
      csi_estimator_(params.csi_error_sigma_db,
                     params.csi_validity_frames *
                         params.geometry.frame_duration),
      bs_rng_(params.seed, kBaseStationStream) {
  if (!params.valid()) {
    throw std::invalid_argument("ProtocolEngine: invalid scenario parameters");
  }
  if (params.barring) barring_.emplace();
  // A slot burst fails at most the top mode's packets, so the ARQ scratch
  // never grows inside a frame.
  retx_scratch_.reserve(static_cast<std::size_t>(
      adaptive_phy_.packets_per_slot(adaptive_phy_.table().size() - 1)));
  // The channel grid step must match the frame cadence so per-frame draws
  // line up with the coherence model.
  params_.channel.sample_interval = geom_.frame_duration;
  if (!params_.defer_population) {
    // Dense (historical) population: every user admitted in id order —
    // slot == id throughout — present with live traffic from the start.
    // defer_population leaves the engine empty; the world admits each
    // cell's pilot band instead, so memory scales with band occupancy
    // rather than with the population.
    const auto total = static_cast<std::size_t>(params.total_users());
    bank_.reserve(total);
    users_.reserve(total);
    band_.reserve(total);
    for (int i = 0; i < params.total_users(); ++i) {
      band_admit(static_cast<common::UserId>(i));
      attach_user_initial(static_cast<common::UserId>(i));
    }
  }
}

MobileUser& ProtocolEngine::user(common::UserId id) {
  if (identity_) {
    if (id < 0 || id >= static_cast<common::UserId>(users_.size())) {
      throw std::out_of_range("ProtocolEngine::user: bad id");
    }
    return *users_[static_cast<std::size_t>(id)];
  }
  const auto it = std::lower_bound(
      band_.begin(), band_.end(), id,
      [](const BandMember& m, common::UserId v) { return m.id < v; });
  if (it == band_.end() || it->id != id) {
    throw std::out_of_range("ProtocolEngine::user: not band-resident");
  }
  return *users_[it->slot];
}

void ProtocolEngine::materialize_touched(
    std::span<const common::UserId> users) {
  touch_slots_.clear();
  for (const common::UserId id : users) {
    touch_slots_.push_back(user(id).slot());
  }
  bank_.materialize_users(touch_slots_);
}

bool ProtocolEngine::band_resident(common::UserId id) const {
  const auto it = std::lower_bound(
      band_.begin(), band_.end(), id,
      [](const BandMember& m, common::UserId v) { return m.id < v; });
  return it != band_.end() && it->id == id;
}

MobileUser& ProtocolEngine::band_admit(common::UserId id) {
  if (id < 0 || id >= static_cast<common::UserId>(params_.total_users())) {
    throw std::out_of_range("ProtocolEngine::band_admit: bad id");
  }
  const auto pos = std::lower_bound(
      band_.begin(), band_.end(), id,
      [](const BandMember& m, common::UserId v) { return m.id < v; });
  if (pos != band_.end() && pos->id == id) {
    throw std::logic_error("ProtocolEngine::band_admit: already resident");
  }
  const ServiceType service = id < params_.num_voice_users
                                  ? ServiceType::kVoice
                                  : ServiceType::kData;
  std::uint32_t visit = 0;
  if (!band_history_.empty()) {
    const auto it = band_history_.find(id);
    if (it != band_history_.end()) visit = it->second.visits;
  }
  auto u = std::make_unique<MobileUser>(id, service, params_, bank_, visit);
  // The bank decides the slot (fresh row or a reused free-list one); the
  // engine's storage mirrors the bank's rows one-for-one.
  const std::size_t slot = u->slot();
  if (slot == users_.size()) {
    users_.push_back(std::move(u));
  } else {
    users_[slot] = std::move(u);
  }
  if (slot != static_cast<std::size_t>(id)) identity_ = false;
  band_.insert(pos, BandMember{id, static_cast<std::uint32_t>(slot)});
  return *users_[slot];
}

void ProtocolEngine::mark_attached(MobileUser& u) {
  u.set_present(true);
  const auto pos =
      std::lower_bound(roster_.begin(), roster_.end(), u.id(), id_before);
  roster_.insert(pos, RosterEntry{u.id(), u.slot(),
                                  -std::numeric_limits<double>::infinity()});
}

void ProtocolEngine::mark_detached(MobileUser& u) {
  u.set_present(false);
  roster_.erase(
      std::lower_bound(roster_.begin(), roster_.end(), u.id(), id_before));
}

bool ProtocolEngine::roster_matches_band() const {
  auto entry = roster_.begin();
  for (const BandMember& m : band_) {
    if (users_[m.slot]->present()) {
      if (entry == roster_.end() || entry->id != m.id ||
          entry->slot != m.slot) {
        return false;
      }
      ++entry;
    }
  }
  return entry == roster_.end();
}

void ProtocolEngine::band_release(common::UserId id) {
  const auto it = std::lower_bound(
      band_.begin(), band_.end(), id,
      [](const BandMember& m, common::UserId v) { return m.id < v; });
  if (it == band_.end() || it->id != id) {
    throw std::logic_error("ProtocolEngine::band_release: not band-resident");
  }
  const std::uint32_t slot = it->slot;
  if (users_[slot]->present()) {
    throw std::logic_error("ProtocolEngine::band_release: still attached");
  }
  BandHistory& history = band_history_[id];
  ++history.visits;
  if (slot < delivered_by_slot_.size()) {
    history.delivered += std::exchange(delivered_by_slot_[slot], 0);
  }
  users_[slot].reset();
  bank_.release_user(slot);
  band_.erase(it);
  identity_ = false;
}

const ProtocolMetrics& ProtocolEngine::run(common::Time warmup,
                                           common::Time measure) {
  if (warmup < 0.0 || measure <= 0.0) {
    throw std::invalid_argument("ProtocolEngine::run: invalid durations");
  }
  // Durations are relative to now(): a second run() continues the same
  // simulation and measures its own window. (Absolute durations would make
  // a repeated call with warmup <= now() silently return a zero-frame
  // window whose rate helpers divide by zero.)
  advance_by(warmup);
  reset_window();
  advance_by(measure);
  return metrics_;
}

void ProtocolEngine::advance_by(common::Time duration) {
  if (duration <= 0.0) return;
  // A frame stamped exactly at the window end still runs in this window.
  const common::Time end = now_ + duration;
  while (next_frame_ <= end) {
    now_ = next_frame_;
    next_frame_ = now_ + frame_tick();
  }
  now_ = end;
}

void ProtocolEngine::detach_user(common::UserId id) {
  remove_user(id, metrics_.voice_dropped_handoff, metrics_.handoffs_out);
}

void ProtocolEngine::attach_user(common::UserId id) {
  auto& u = user(id);
  if (u.present()) return;
  ++metrics_.handoffs_in;
  // A shell admitted into the band gets its MAC stream here; the traffic
  // sources were already adopted from the previous cell (handoff
  // continuity wins over a fresh draw), so ensure_traffic only fills gaps.
  u.ensure_traffic(params_);
  mark_attached(u);
  on_user_attached(id);
}

void ProtocolEngine::attach_user_initial(common::UserId id) {
  auto& u = user(id);
  u.ensure_traffic(params_);
  if (!u.present()) mark_attached(u);
  on_user_attached(id);
}

void ProtocolEngine::evict_user(common::UserId id) {
  remove_user(id, metrics_.voice_dropped_outage, metrics_.outage_evictions);
}

void ProtocolEngine::remove_user(common::UserId id,
                                 std::int64_t& voice_dropped,
                                 std::int64_t& removals) {
  auto& u = user(id);
  if (!u.present()) return;
  on_user_detached(id);
  if (u.is_voice()) voice_dropped += u.drop_pending_voice();
  ++removals;
  mark_detached(u);
}

common::Time ProtocolEngine::frame_tick() {
  advance_world();
  const common::Time duration = process_frame();
  if (duration <= 0.0) {
    throw std::logic_error("process_frame returned non-positive duration");
  }
  ++frame_index_;
  ++metrics_.frames;
  metrics_.measured_time += duration;
  // Materialization accounting: fold the bank's counter deltas into the
  // metrics. jump-event delta = users that did channel work this frame;
  // covered-frames delta beyond that = user-frames lazily skipped earlier
  // and paid for by one jump now. Eager banks report stride exactly 1.
  {
    const auto stats = bank_.lazy_stats();
    const std::int64_t events = stats.jump_events - lazy_events_seen_;
    const std::int64_t frames = stats.jump_frames - lazy_frames_seen_;
    metrics_.users_advanced_frames += events;
    metrics_.users_skipped_frames += frames - events;
    lazy_events_seen_ = stats.jump_events;
    lazy_frames_seen_ = stats.jump_frames;
  }
  if (barring_ && barring_->end_frame(pending_request_count())) {
    metrics_.barring_factor_voice.add(barring_->voice_factor());
    metrics_.barring_factor_data.add(barring_->data_factor());
  }
  return duration;  // RMAV/DRMA: data-dependent; static protocols: constant
}

void ProtocolEngine::advance_world() {
  const common::Time t = now_;
  // This branch and touch_channels' are the whole difference between the
  // two channel schedules.
  //
  // Eager (default): one batched SoA pass over every user's
  // fading/shadowing state instead of per-user pointer-chasing walks.
  // Detached users' channels keep evolving (their pilots are what the
  // attachment policy measures and the draw order must not depend on the
  // attachment pattern); only their traffic is frozen — the attached
  // cell's copy is authoritative and is carried over on handoff.
  //
  // Lazy (params.lazy_channel): an O(1) clock move. Users materialize via
  // the protocol's touch_channels sets or transparently on first read —
  // an idle user's whole gap collapses into one closed-form jump when it
  // next matters (detached users' included, at the epoch pilot plane).
  if (params_.lazy_channel) {
    bank_.set_time(t);
  } else {
    bank_.advance_all_to(t);
  }
  assert(roster_matches_band());
  // Only the attached users with a traffic event due: a talking voice
  // source has one per voice period, a silent one per silence, a data
  // source one per burst. Skipping the rest is exact — on_frame before
  // the next event replays nothing and draws nothing.
  for (RosterEntry& e : roster_) {
    if (e.next_event > t + kTimeEps) {
      assert(next_event_of(*users_[e.slot]) > t + kTimeEps);
      continue;
    }
    MobileUser& u = *users_[e.slot];
    if (u.is_voice()) {
      auto& source = u.voice();
      const auto update = source.on_frame(t);
      metrics_.voice_generated += update.packets_generated;
      metrics_.voice_dropped_deadline += update.packets_expired;
      e.next_event = source.next_event_time();
    } else {
      auto& source = u.data();
      const auto update = source.on_frame(t);
      metrics_.data_generated += update.packets_arrived;
      e.next_event = source.next_event_time();
    }
  }
  const auto attached = static_cast<std::int64_t>(roster_.size());
  metrics_.attached_user_frames += attached;
  if (barring_) barring_->note_attached(attached);
}

void ProtocolEngine::release_finished_talkspurts(ReservationGrid& grid) {
  for_each_attached([&grid](MobileUser& u) {
    if (u.is_voice() && grid.has_reservation(u.id()) &&
        !u.voice().in_talkspurt() && !u.voice().has_packet()) {
      grid.release(u.id());
    }
  });
}

double ProtocolEngine::permission_prob(const MobileUser& u) const {
  return u.is_voice() ? params_.voice_permission_prob
                      : params_.data_permission_prob;
}

bool ProtocolEngine::barring_blocks(MobileUser& u) {
  if (!barring_) return false;
  const double f =
      u.is_voice() ? barring_->voice_factor() : barring_->data_factor();
  if (f >= 1.0) return false;  // open gate: no draw, no count
  ++metrics_.barring_checks;
  if (u.rng().bernoulli(f)) return false;
  ++(u.is_voice() ? metrics_.barring_barred_voice
                  : metrics_.barring_barred_data);
  return true;
}

PendingRequest ProtocolEngine::acked_request(const MobileUser& u) const {
  PendingRequest request;
  request.user = u.id();
  if (u.is_voice()) {
    request.type = RequestType::kVoice;
    request.deadline = u.voice().packet().deadline;
    request.packets_requested = 1;
  } else {
    request.type = RequestType::kData;
    request.deadline = std::numeric_limits<double>::infinity();
    request.packets_requested = u.data().backlog();
  }
  request.acked_at = now_;
  return request;
}

const ContentionOutcome& ProtocolEngine::run_contention(
    const std::vector<common::UserId>& candidates, int minislots) {
  // Contenders are this frame's dense read set (winners get CSI estimates,
  // CHARISMA ranks them by channel): one batched materialization beats the
  // scattered on-read jumps the lazy schedule would otherwise pay.
  touch_channels(candidates);
  request_phase(candidates, minislots, [this](common::UserId id) {
    const auto& u = user(id);
    return permission_prob(u) * u.backoff_scale();
  });
  ContentionOutcome& outcome = contention_;
  note_contention(outcome.tally);

  // Downlink ACK loss: the base station acknowledged, but the device never
  // heard it — it will time out and retry, and the base station's copy of
  // the request is dropped (it would be superseded by the retry anyway).
  if (params_.ack_loss_prob > 0.0) {
    std::erase_if(outcome.winners, [this](common::UserId) {
      if (bs_rng_.bernoulli(params_.ack_loss_prob)) {
        ++metrics_.acks_lost;
        return true;
      }
      return false;
    });
  }

  settle_contention(outcome, geom_.minislot_symbols);
  return outcome;
}

void ProtocolEngine::settle_contention(const ContentionOutcome& outcome,
                                       double symbols_per_request) {
  for (common::UserId id : outcome.transmitted) {
    user(id).note_contention_collision();
  }
  for (common::UserId id : outcome.winners) {
    user(id).note_contention_success();
  }
  note_request_energy(outcome.tally.transmissions, symbols_per_request,
                      static_cast<int>(outcome.winners.size()));
}

double ProtocolEngine::burst_energy(double symbols) const {
  return params_.energy.burst_energy_j(symbols, geom_.symbol_rate());
}

void ProtocolEngine::note_request_energy(int bursts, double symbols_each,
                                         int useful) {
  const double total = bursts * burst_energy(symbols_each);
  metrics_.energy_request_j += total;
  const int wasted_bursts = std::max(0, bursts - useful);
  metrics_.energy_wasted_j += wasted_bursts * burst_energy(symbols_each);
}

void ProtocolEngine::note_pilot_energy() {
  metrics_.energy_pilot_j += burst_energy(geom_.minislot_symbols);
}

channel::CsiEstimate ProtocolEngine::estimate_csi(MobileUser& u) {
  return csi_estimator_.estimate(bank_.snr_linear(u.slot()), now_,
                                 u.rng());
}

void ProtocolEngine::transmit_voice(MobileUser& u, phy::SlotBurst burst) {
  note_assigned_slot();
  auto& src = u.voice();
  if (!src.has_packet() || burst.packets < 1) {
    // Nothing to send, or a mode too low to carry a whole packet: the
    // allocation is wasted and any packet stays pending (it may still make
    // a later frame before its deadline). The adaptive transmitter stays
    // silent — its energy advantage over the blind fixed PHY.
    note_wasted_slot();
    return;
  }
  const bool ok = burst.mode->transmit_packet(bank_.snr_linear(u.slot()),
                                              geom_.packet_bits, u.rng());
  src.consume_packet();
  const double energy = burst_energy(geom_.slot_symbols);
  metrics_.energy_info_j += energy;
  if (ok) {
    ++metrics_.voice_delivered;
    note_user_delivery(u, 1);
  } else {
    ++metrics_.voice_error_lost;
    metrics_.energy_wasted_j += energy;  // the paper's motivation 2
  }
}

void ProtocolEngine::transmit_data(MobileUser& u, phy::SlotBurst burst) {
  note_assigned_slot();
  auto& src = u.data();
  if (burst.packets < 1 || src.empty()) {
    note_wasted_slot();
    return;
  }
  const double snr = bank_.snr_linear(u.slot());
  const int to_send = std::min(burst.packets, src.backlog());
  int delivered = 0;
  // Reused across frames: a steady-state retransmission burst must not
  // allocate (the frame_alloc pin covers this path).
  std::vector<common::Time>& failed = retx_scratch_;
  failed.clear();
  for (int i = 0; i < to_send; ++i) {
    const common::Time arrival = src.head_arrival();
    src.pop_head();
    ++metrics_.data_tx_attempts;
    if (burst.mode->transmit_packet(snr, geom_.packet_bits, u.rng())) {
      ++metrics_.data_delivered;
      metrics_.data_delay_s.add(now_ - arrival);
      metrics_.data_delay_hist.add(now_ - arrival);
      ++delivered;
    } else {
      ++metrics_.data_retransmissions;
      failed.push_back(arrival);
    }
  }
  src.push_front(failed);
  if (delivered > 0) note_user_delivery(u, delivered);
  // One slot burst regardless of fill; the corrupted fraction is waste.
  const double energy = burst_energy(geom_.slot_symbols);
  metrics_.energy_info_j += energy;
  if (delivered < to_send) {
    metrics_.energy_wasted_j +=
        energy * static_cast<double>(to_send - delivered) /
        static_cast<double>(to_send);
  }
}

void ProtocolEngine::note_contention(const ContentionTally& tally) {
  metrics_.request_slots += tally.minislots;
  metrics_.request_successes += tally.successes;
  metrics_.request_collisions += tally.collisions;
  metrics_.request_idle += tally.idle;
  if (barring_) barring_->note_contention(tally);
}

void ProtocolEngine::note_user_delivery(const MobileUser& u, int packets) {
  // users_ is slot-count, not population: a band-resident id can exceed
  // it, so the ledger spans whichever is larger. The dense population
  // still gets the historical users_.size()-sized ledger.
  const auto id = static_cast<std::size_t>(u.id());
  const std::size_t extent = std::max(users_.size(), id + 1);
  if (params_.defer_population) {
    if (u.slot() >= delivered_by_slot_.size()) {
      delivered_by_slot_.resize(users_.size(), 0);
    }
    delivered_by_slot_[u.slot()] += packets;
    ledger_extent_ = std::max(ledger_extent_, extent);
    return;
  }
  auto& ledger = metrics_.per_user_delivered;
  if (ledger.size() < extent) ledger.resize(extent, 0);
  ledger[id] += packets;
}

void ProtocolEngine::reset_window() {
  metrics_.reset();
  std::fill(delivered_by_slot_.begin(), delivered_by_slot_.end(), 0);
  for (auto& [id, history] : band_history_) history.delivered = 0;
  ledger_extent_ = 0;
}

void ProtocolEngine::add_deliveries_by_user(
    std::vector<std::int64_t>& per_user) const {
  if (per_user.size() < ledger_extent_) per_user.resize(ledger_extent_, 0);
  for (const BandMember& m : band_) {
    if (m.slot < delivered_by_slot_.size() && delivered_by_slot_[m.slot] != 0) {
      per_user[static_cast<std::size_t>(m.id)] += delivered_by_slot_[m.slot];
    }
  }
  for (const auto& [id, history] : band_history_) {
    if (history.delivered != 0) {
      per_user[static_cast<std::size_t>(id)] += history.delivered;
    }
  }
}

}  // namespace charisma::mac
