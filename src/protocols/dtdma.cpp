#include "protocols/dtdma.hpp"

#include <cassert>

namespace charisma::protocols {

DtdmaProtocol::DtdmaProtocol(const mac::ScenarioParams& params,
                             PhyVariant variant)
    : mac::ProtocolEngine(params),
      variant_(variant),
      grid_(params.geometry.frames_per_voice_period,
            params.geometry.num_info_slots) {}

void DtdmaProtocol::on_user_detached(common::UserId id) {
  grid_.release(id);
  queue_.remove(id);
}

void DtdmaProtocol::on_user_attached([[maybe_unused]] common::UserId id) {
  // A (re-)attaching user must arrive clean of earlier-stay state.
  assert(!grid_.has_reservation(id));
  assert(!queue_.contains(id));
}

phy::SlotBurst DtdmaProtocol::burst_for(mac::MobileUser& u) {
  if (variant_ == PhyVariant::kFixedRate) return fixed_phy_.burst();
  // VR: the transmitter adapts its mode from fresh receiver feedback (no
  // MAC interaction); an outage (or the sub-packet mode 0) ships nothing
  // and the slot is wasted.
  return adaptive_phy_.burst(
      adaptive_phy_.select_mode(estimate_csi(u).snr_linear));
}

bool DtdmaProtocol::serve_request(const mac::PendingRequest& request,
                                  int phase, int& free_slots) {
  auto& u = user(request.user);
  if (request.type == mac::RequestType::kVoice) {
    if (!u.voice().has_packet()) return true;  // packet expired meanwhile
    if (free_slots <= 0) return false;
    if (!grid_.reserve(phase, request.user)) {
      // Current phase fully booked: FCFS assignment is frame-local (§3.4),
      // so the request waits (queue) or dies (no queue).
      return false;
    }
    transmit_voice(u, burst_for(u));
    --free_slots;
    return true;
  }
  // Data: leftover slots only, head-of-line burst, slot by slot.
  if (u.data().backlog() == 0) return true;
  while (free_slots > 0 && u.data().backlog() > 0) {
    transmit_data(u, burst_for(u));
    --free_slots;
  }
  return u.data().backlog() == 0;
}

common::Time DtdmaProtocol::process_frame() {
  release_finished_talkspurts(grid_);
  queue_.purge_expired_voice(now());

  const int phase = voice_phase();
  offer_info_slots(geom_.num_info_slots);

  // 1. Reserved voice users transmit in their owned slots. They are this
  //    frame's dense read set, so declare them in one batch (lazy schedule)
  //    (queued to_serve users are sparse and materialize on read).
  grid_.due_in_phase(phase, due_);
  touch_channels(due_);
  for (common::UserId uid : due_) {
    auto& u = user(uid);
    transmit_voice(u, burst_for(u));
  }
  int free_slots = geom_.num_info_slots - static_cast<int>(due_.size());

  // 2. Request phase: N_r contention minislots; queued users wait.
  candidates_.clear();
  for_each_attached(queue_.members(), [this](mac::MobileUser& u) {
    if (contends_for_reservation(u, grid_)) candidates_.push_back(u.id());
  });
  const auto& outcome = run_contention(candidates_, geom_.num_request_slots);

  // 3. FCFS service: queued requests first (oldest), then this frame's
  //    winners in minislot order. Unserved requests stay queued only in
  //    the with-queue configuration (§4.5). Voice outranks data in every
  //    protocol of the study (paper §1): serve all voice requests before
  //    any data request, FCFS within each class.
  winner_scratch_.clear();
  for (common::UserId uid : outcome.winners) {
    winner_scratch_.push_back(acked_request(user(uid)));
  }
  serve_voice_first(queue_, winner_scratch_, serve_scratch_,
                    [&](const mac::PendingRequest& request) {
                      return serve_request(request, phase, free_slots);
                    });
  return geom_.frame_duration;
}

}  // namespace charisma::protocols
