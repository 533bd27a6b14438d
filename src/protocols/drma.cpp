#include "protocols/drma.hpp"

#include <cassert>
#include <algorithm>

namespace charisma::protocols {

namespace {
void insert_sorted(std::vector<common::UserId>& ids, common::UserId id) {
  ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
}

void erase_sorted(std::vector<common::UserId>& ids, common::UserId id) {
  const auto at = std::lower_bound(ids.begin(), ids.end(), id);
  assert(at != ids.end() && *at == id);
  ids.erase(at);
}
}  // namespace

DrmaProtocol::DrmaProtocol(const mac::ScenarioParams& params)
    : mac::ProtocolEngine(params),
      grid_(params.geometry.frames_per_voice_period, kInfoSlots) {}

void DrmaProtocol::on_user_detached(common::UserId id) {
  grid_.release(id);
  queue_.remove(id);
}

void DrmaProtocol::on_user_attached([[maybe_unused]] common::UserId id) {
  // A (re-)attaching user must arrive clean of earlier-stay state.
  assert(!grid_.has_reservation(id));
  assert(!queue_.contains(id));
}

common::Time DrmaProtocol::process_frame() {
  release_finished_talkspurts(grid_);
  queue_.purge_expired_voice(now());

  const int phase = voice_phase();
  offer_info_slots(kInfoSlots);

  // Requests awaiting service: yesterday's queue first (with-queue mode),
  // then winners of this frame's conversions as they happen.
  pending_.assign(queue_.entries().begin(), queue_.entries().end());
  engaged_.assign(queue_.members().begin(), queue_.members().end());
  queue_.clear();

  // Touch set: reservation holders of this phase plus the queued users a
  // free slot may serve; conversion contenders are covered by
  // run_contention's own touch.
  grid_.due_in_phase(phase, touched_);
  for (const auto& r : pending_) touched_.push_back(r.user);
  touch_channels(touched_);

  for (int slot = 0; slot < kInfoSlots; ++slot) {
    const common::UserId owner = grid_.user_at(phase, slot);
    if (owner != common::kNoUser) {
      // Reserved slot: its voice user transmits (or idles it away).
      transmit_voice(user(owner), fixed_phy_.burst());
      continue;
    }

    // Drop dead pending entries (expired voice packet, drained burst).
    std::erase_if(pending_, [this](const mac::PendingRequest& r) {
      auto& u = user(r.user);
      const bool dead = r.type == mac::RequestType::kVoice
                            ? !u.voice().has_packet()
                            : u.data().backlog() == 0;
      if (dead) erase_sorted(engaged_, r.user);
      return dead;
    });

    if (!pending_.empty()) {
      // Serve the oldest pending request in this free slot, voice first
      // (voice outranks data in every protocol of the study).
      auto pick = pending_.begin();
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->type == mac::RequestType::kVoice) {
          pick = it;
          break;
        }
      }
      auto request = *pick;
      pending_.erase(pick);
      auto& u = user(request.user);
      if (request.type == mac::RequestType::kVoice) {
        // The served slot position becomes the talkspurt's reservation.
        grid_.reserve_at(phase, slot, request.user);
        transmit_voice(u, fixed_phy_.burst());
        erase_sorted(engaged_, request.user);
      } else {
        // One information slot per successful data request (§3.3): the
        // device contends again for the rest of its burst. (Persisting data
        // requests in the queue would let a handful of data users occupy
        // every otherwise-free slot, which starves the conversions new
        // voice talkspurts need — the queue stores only requests that got
        // *no* slot, per §4.5.)
        transmit_data(u, fixed_phy_.burst());
        erase_sorted(engaged_, request.user);
      }
      continue;
    }

    // Free slot with nothing to serve: convert it into N_x request
    // minislots.
    candidates_.clear();
    for_each_attached(engaged_, [this](mac::MobileUser& u) {
      if (contends_for_reservation(u, grid_)) candidates_.push_back(u.id());
    });
    if (candidates_.empty()) continue;  // slot stays idle

    const auto& outcome = run_contention(candidates_, kMinislotsPerConversion);
    for (common::UserId uid : outcome.winners) {
      pending_.push_back(acked_request(user(uid)));
      insert_sorted(engaged_, uid);
    }
  }

  // Winners/queue entries that found no slot this frame.
  if (params_.request_queue) {
    for (auto& request : pending_) {
      ++request.frames_waited;
      queue_.push(request);
    }
  }
  return geom_.frame_duration;
}

}  // namespace charisma::protocols
