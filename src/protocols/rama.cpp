#include "protocols/rama.hpp"

#include <cassert>

namespace charisma::protocols {

RamaProtocol::RamaProtocol(const mac::ScenarioParams& params)
    : mac::ProtocolEngine(params),
      grid_(params.geometry.frames_per_voice_period,
            params.geometry.num_info_slots) {}

void RamaProtocol::on_user_detached(common::UserId id) {
  grid_.release(id);
  queue_.remove(id);
}

void RamaProtocol::on_user_attached([[maybe_unused]] common::UserId id) {
  // A (re-)attaching user must arrive clean of earlier-stay state.
  assert(!grid_.has_reservation(id));
  assert(!queue_.contains(id));
}

bool RamaProtocol::serve_request(const mac::PendingRequest& request, int phase,
                                 int& free_slots) {
  auto& u = user(request.user);
  if (request.type == mac::RequestType::kVoice) {
    if (!u.voice().has_packet()) return true;
    if (free_slots <= 0) return false;
    if (!grid_.reserve(phase, request.user)) return false;
    transmit_voice(u, fixed_phy_.burst());
    --free_slots;
    return true;
  }
  // A data auction win is worth one information slot per frame (§3.1).
  // With the request queue the request persists until the burst drains
  // (one slot each frame); without it the device re-enters the auction
  // for the rest of its burst.
  if (u.data().backlog() == 0) return true;
  if (free_slots <= 0) return false;
  transmit_data(u, fixed_phy_.burst());
  --free_slots;
  return u.data().backlog() == 0 || !params_.request_queue;
}

common::Time RamaProtocol::process_frame() {
  release_finished_talkspurts(grid_);
  queue_.purge_expired_voice(now());

  const int phase = voice_phase();
  offer_info_slots(geom_.num_info_slots);

  // This frame's dense read set: reservation holders transmit below; the
  // auction itself never reads the channel (ID digits arbitrate), so
  // winners and served requests materialize on read.
  grid_.due_in_phase(phase, due_);
  touch_channels(due_);
  for (common::UserId uid : due_) {
    transmit_voice(user(uid), fixed_phy_.burst());
  }
  int free_slots = geom_.num_info_slots - static_cast<int>(due_.size());

  // The auction: every active device without a queued request
  // participates (no permission probability — the bidding process is the
  // arbitration, and the barring gate the only admission control in front
  // of it). Each auction slot resolves one winner; voice IDs dominate data
  // IDs. The contender lists stay in ascending id order: the auction
  // indexes them with a shared bs_rng_ draw.
  voice_contenders_.clear();
  data_contenders_.clear();
  for_each_attached(queue_.members(), [this](mac::MobileUser& u) {
    if (contends_for_reservation(u, grid_)) {
      (u.is_voice() ? voice_contenders_ : data_contenders_).push_back(u.id());
    }
  });

  winners_.clear();
  mac::ContentionTally tally;
  tally.minislots = kAuctionSlots;
  // An auction slot spans ~3 minislots of digit rounds; every remaining
  // contender transmits its ID digits in every auction slot.
  const double auction_symbols = 3.0 * geom_.minislot_symbols;
  for (int a = 0; a < kAuctionSlots; ++a) {
    std::vector<common::UserId>* pool =
        !voice_contenders_.empty() ? &voice_contenders_
        : !data_contenders_.empty() ? &data_contenders_
                                    : nullptr;
    if (pool == nullptr) {
      ++tally.idle;
      continue;
    }
    const int bidders = static_cast<int>(voice_contenders_.size() +
                                         data_contenders_.size());
    note_request_energy(bidders, auction_symbols, /*useful=*/1);
    tally.transmissions += bidders;
    // IDs are random per auction slot: the winner is uniform over the
    // dominant class.
    const int pick = bs_rng_.uniform_int(static_cast<int>(pool->size()));
    const common::UserId winner = (*pool)[static_cast<std::size_t>(pick)];
    pool->erase(pool->begin() + pick);
    ++tally.successes;
    winners_.push_back(acked_request(user(winner)));
  }
  note_contention(tally);

  // Queued requests go first (FCFS), then the auction winners. Voice
  // outranks data (paper §1): serve all voice requests before any data
  // request, FCFS within each class.
  serve_voice_first(queue_, winners_, to_serve_,
                    [&](const mac::PendingRequest& request) {
                      return serve_request(request, phase, free_slots);
                    });
  return geom_.frame_duration;
}

}  // namespace charisma::protocols
