#include "protocols/prma.hpp"

#include <cassert>

namespace charisma::protocols {

PrmaProtocol::PrmaProtocol(const mac::ScenarioParams& params)
    : mac::ProtocolEngine(params),
      grid_(params.geometry.frames_per_voice_period, kInfoSlots) {}

void PrmaProtocol::on_user_detached(common::UserId id) { grid_.release(id); }

void PrmaProtocol::on_user_attached([[maybe_unused]] common::UserId id) {
  // A (re-)attaching user must arrive clean of earlier-stay reservations.
  assert(!grid_.has_reservation(id));
}

common::Time PrmaProtocol::process_frame() {
  release_finished_talkspurts(grid_);

  const int phase = voice_phase();
  offer_info_slots(kInfoSlots);

  // Touch set: this phase's reservation holders transmit unconditionally;
  // direct-transmission winners are sparse and materialize on read.
  grid_.due_in_phase(phase, owners_);
  touch_channels(owners_);

  mac::ContentionTally tally;
  for (int slot = 0; slot < kInfoSlots; ++slot) {
    const common::UserId owner = grid_.user_at(phase, slot);
    if (owner != common::kNoUser) {
      transmit_voice(user(owner), fixed_phy_.burst());
      continue;
    }

    // Available slot: contenders transmit their packet directly.
    transmitters_.clear();
    for_each_attached([this](mac::MobileUser& u) {
      if (contends_for_reservation(u, grid_) &&
          u.rng().bernoulli(permission_prob(u) * u.backoff_scale())) {
        transmitters_.push_back(u.id());
      }
    });
    ++tally.minislots;
    tally.transmissions += static_cast<int>(transmitters_.size());

    if (transmitters_.empty()) {
      ++tally.idle;
      continue;
    }
    if (transmitters_.size() > 1) {
      // Collision: a whole information slot is burned, every transmitted
      // packet is lost from the air (it stays queued at the device).
      ++tally.collisions;
      note_request_energy(static_cast<int>(transmitters_.size()),
                          geom_.slot_symbols, /*useful=*/0);
      for (common::UserId id : transmitters_) {
        user(id).note_contention_collision();
      }
      continue;
    }

    // Exactly one transmitter: the packet itself went over the air.
    ++tally.successes;
    auto& winner = user(transmitters_.front());
    winner.note_contention_success();
    if (winner.is_voice()) {
      // The slot position becomes the talkspurt's reservation.
      grid_.reserve_at(phase, slot, winner.id());
      transmit_voice(winner, fixed_phy_.burst());
    } else {
      transmit_data(winner, fixed_phy_.burst());
    }
  }
  note_contention(tally);
  return geom_.frame_duration;
}

}  // namespace charisma::protocols
