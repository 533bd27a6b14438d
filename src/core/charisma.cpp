#include "core/charisma.hpp"

#include <cassert>
#include <algorithm>
#include <cmath>

namespace charisma::core {

namespace {
constexpr double kTimeEps = 1e-9;
// Reservation nodes (about 40 bytes) are pooled in chunks of at most 32;
// the map's bucket arrays, larger than 64 bytes, bypass the pool. The
// library defaults pool those too and grow chunks far past what a cell's
// reservations need.
constexpr std::pmr::pool_options kReservationPool{
    .max_blocks_per_chunk = 32, .largest_required_pool_block = 64};
}  // namespace

CharismaProtocol::CharismaProtocol(const mac::ScenarioParams& params,
                                   const CharismaOptions& options)
    : mac::ProtocolEngine(params),
      options_(options),
      poll_budget_(options.csi_poll_budget >= 0
                       ? options.csi_poll_budget
                       : params.geometry.num_pilot_slots),
      reservation_nodes_(kReservationPool),
      reservations_(&reservation_nodes_) {}

common::Time CharismaProtocol::process_frame() {
  // Uplink frame (Fig. 4a): request subframe -> information subframe ->
  // pilot subframe; the matching downlink carries ACKs, the CSI poll, and
  // the allocation announcement. Per-frame phases in order:
  release_finished_talkspurts();
  pool_.purge_expired_voice(now());
  generate_voice_auto_requests();
  run_contention_phase();
  refresh_backlog_csi();
  allocate_and_transmit();

  if (!params_.request_queue) {
    // Without the §4.5 request queue, unserved requests are discarded: a
    // data device (or a voice device whose first packet missed out) must
    // contend again; auto-generated reservation requests recur at the next
    // voice period.
    pool_.clear();
  } else {
    pool_.age_all();
  }
  return geom_.frame_duration;
}

channel::CsiEstimate& CharismaProtocol::cached_csi(std::uint32_t slot) {
  if (slot >= csi_cache_.size()) csi_cache_.resize(users_.size());
  return csi_cache_[slot];
}

void CharismaProtocol::release_finished_talkspurts() {
  for (auto it = reservations_.begin(); it != reservations_.end();) {
    auto& u = at_slot(it->second.slot);
    if (!u.voice().in_talkspurt() && !u.voice().has_packet()) {
      pool_.remove(it->first);
      it = reservations_.erase(it);
    } else {
      ++it;
    }
  }
}

void CharismaProtocol::generate_voice_auto_requests() {
  // "Additional requests will be automatically generated by the base
  // station periodically at 20 msec time intervals" (§4.3) — one request
  // per voice packet, so the reserved device never re-enters contention
  // during the talkspurt. The walk follows reservations_' own iteration
  // order, which fixes these requests' pool positions and so the Eq. (2)
  // tie-break (DeepBacklogGolden pins it).
  for (auto& [uid, reservation] : reservations_) {
    if (now() + kTimeEps < reservation.next_request_at) continue;
    auto& u = at_slot(reservation.slot);
    if (!u.voice().has_packet()) continue;  // packet already expired
    if (pool_.contains(uid)) continue;      // previous request still queued
    mac::PendingRequest request;
    request.user = uid;
    request.type = mac::RequestType::kVoice;
    request.packets_requested = 1;
    request.acked_at = now();
    request.deadline = u.voice().packet().deadline;
    // The auto request carries no fresh pilots; it inherits the base
    // station's cached estimate and is a natural candidate for the §4.4
    // CSI poll.
    request.csi = cached_csi(reservation.slot);
    pool_.push(request);
    reservation.next_request_at = u.voice().next_packet_at();
    reservation.requested_packet_at = u.voice().packet().generated_at;
  }
}

void CharismaProtocol::on_user_detached(common::UserId id) {
  // The departing user's request, reservation and CSI history belong to
  // this base station; the target cell learns the channel afresh.
  pool_.remove(id);
  reservations_.erase(id);
  cached_csi(user(id).slot()) = channel::CsiEstimate{};
}

void CharismaProtocol::on_user_attached([[maybe_unused]] common::UserId id) {
  // A (re-)attaching user must arrive clean: any request, reservation or
  // CSI history from an earlier stay was dropped on detach/band-release.
  assert(!pool_.contains(id));
  assert(reservations_.find(id) == reservations_.end());
  assert([&] {
    const std::uint32_t slot = user(id).slot();
    return slot >= csi_cache_.size() || !csi_cache_[slot].valid();
  }());
}

void CharismaProtocol::run_contention_phase() {
  candidates_.clear();
  for_each_attached(pool_.members(), [this](mac::MobileUser& u) {
    if (u.is_voice()) {
      if (!u.voice().has_packet()) return;
      const auto reservation = reservations_.find(u.id());
      if (reservation == reservations_.end()) {
        // New talkspurt: the first packet always goes through contention,
        // gated by the overload barring controller.
        if (u.voice().in_talkspurt() && !barring_blocks(u)) {
          candidates_.push_back(u.id());
        }
      } else if (reservation->second.requested_packet_at ==
                     u.voice().packet().generated_at &&
                 !barring_blocks(u)) {
        // The request for this packet was issued but is no longer pooled —
        // it was discarded unserved (no-queue mode). The device saw no
        // announcement and retries through the request slots.
        candidates_.push_back(u.id());
      }
    } else if (u.data().backlog() > 0 && !barring_blocks(u)) {
      candidates_.push_back(u.id());
    }
  });

  const auto& outcome = run_contention(candidates_, geom_.num_request_slots);

  for (common::UserId uid : outcome.winners) {
    auto& u = user(uid);
    // Request packets embed pilot symbols (Fig. 9a): the base station gets
    // a fresh CSI estimate with every successful request.
    const auto estimate = estimate_csi(u);
    cached_csi(u.slot()) = estimate;

    mac::PendingRequest request = acked_request(u);
    request.csi = estimate;
    if (u.is_voice()) {
      // The successful request establishes (or refreshes) the talkspurt's
      // reservation: follow-up requests are generated by the base station.
      auto& reservation = reservations_[uid];
      reservation.slot = u.slot();
      reservation.next_request_at = u.voice().next_packet_at();
      reservation.requested_packet_at = u.voice().packet().generated_at;
    }
    pool_.push(request);
  }
}

void CharismaProtocol::refresh_backlog_csi() {
  if (poll_budget_ <= 0) return;
  // Short-list the backlog requests whose CSI has expired, by priority
  // (§4.4), and poll the top N_b through the pilot-symbol subframe.
  const auto pool = pool_.entries();
  stale_.clear();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (pool[i].csi.expired(now(), csi_estimator_.validity())) {
      stale_.push_back({priority_of(pool[i]), i, 0.0});
    }
  }
  const auto polls = std::min<std::size_t>(
      stale_.size(), static_cast<std::size_t>(poll_budget_));
  std::partial_sort(stale_.begin(), stale_.begin() + polls, stale_.end(),
                    ranks_before);
  // The polled short-list is a dense read set (one pilot estimate each):
  // under the lazy schedule, declare it as one batch.
  polled_.clear();
  for (std::size_t i = 0; i < polls; ++i) {
    polled_.push_back(pool[stale_[i].position].user);
  }
  touch_channels(polled_);
  for (std::size_t i = 0; i < polls; ++i) {
    auto& request = pool[stale_[i].position];
    auto& u = user(request.user);
    const auto estimate = estimate_csi(u);
    request.csi = estimate;
    cached_csi(u.slot()) = estimate;
    ++metrics_.csi_polls;
    note_pilot_energy();  // the polled device transmits pilot symbols
  }
}

double CharismaProtocol::throughput_estimate(
    const mac::PendingRequest& request) const {
  if (!request.csi.valid()) return 0.0;
  const auto mode = adaptive_phy_.select_mode(request.csi.snr_linear);
  const double raw = adaptive_phy_.normalized_throughput(mode);
  return fairness_.adjusted_throughput(request.user, raw, options_.fairness);
}

double CharismaProtocol::priority_of(const mac::PendingRequest& request) const {
  return request_priority(request, throughput_estimate(request), now(),
                          geom_.frame_duration, options_.priority);
}

void CharismaProtocol::allocate_and_transmit() {
  offer_info_slots(geom_.num_info_slots);

  // Rank the entire gathered pool (Fig. 8b) — this is the step no baseline
  // performs: slots go to the best (CSI, urgency) candidates rather than to
  // whoever happened to win contention first.
  const auto pool = pool_.entries();
  ranked_.clear();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ranked_.push_back({priority_of(pool[i]), i, 0.0});
  }
  std::sort(ranked_.begin(), ranked_.end(), ranks_before);

  int slots_left = geom_.num_info_slots;
  completed_.clear();
  for (auto& entry : ranked_) {
    if (slots_left == 0) break;
    auto& request = pool[entry.position];
    if (!request.csi.valid()) continue;  // nothing to announce a mode from
    const auto mode = adaptive_phy_.select_mode(request.csi.snr_linear);
    const phy::SlotBurst burst = adaptive_phy_.burst(mode);
    if (burst.packets < 1) {
      // Outage or sub-packet mode: allocating would waste the slot
      // (§5.3.1); defer until the CSI improves or the deadline purges it.
      continue;
    }
    const bool stale = request.csi.expired(now(), csi_estimator_.validity());
    auto& u = user(request.user);
    if (request.type == mac::RequestType::kVoice) {
      if (!u.voice().has_packet()) {
        completed_.push_back(request.user);
        continue;
      }
      if (stale) ++metrics_.csi_stale_allocations;
      transmit_voice(u, burst);
      entry.granted = adaptive_phy_.normalized_throughput(mode);
      --slots_left;
      completed_.push_back(request.user);
    } else {
      const int needed = static_cast<int>(std::ceil(
          static_cast<double>(u.data().backlog()) / burst.packets));
      const int grant = std::min(slots_left, needed);
      if (grant <= 0) {
        completed_.push_back(request.user);
        continue;
      }
      if (stale) ++metrics_.csi_stale_allocations;
      for (int s = 0; s < grant; ++s) {
        transmit_data(u, burst);
      }
      entry.granted = adaptive_phy_.normalized_throughput(mode);
      slots_left -= grant;
      request.packets_requested = u.data().backlog();
      if (u.data().backlog() == 0) completed_.push_back(request.user);
    }
  }
  if (options_.fairness != FairnessMode::kNone) {
    // Proportional fair bookkeeping: every pooled competitor logs what it
    // actually got — the served their mode's rate, everyone else zero, so
    // a passed-over user's achieved average decays and its priority rises.
    for (const auto& entry : ranked_) {
      fairness_.observe(pool[entry.position].user, entry.granted);
    }
  }
  for (common::UserId uid : completed_) pool_.remove(uid);
}

}  // namespace charisma::core
