#include "protocols/rama.hpp"

#include <cassert>
#include <algorithm>
#include <limits>
#include <vector>

namespace charisma::protocols {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

RamaProtocol::RamaProtocol(const mac::ScenarioParams& params,
                           RamaOptions options)
    : mac::ProtocolEngine(params),
      options_(options),
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

void RamaProtocol::release_finished_talkspurts() {
  for (auto& u : users()) {
    if (u.is_voice() && grid_.has_reservation(u.id()) &&
        !u.voice().in_talkspurt() && !u.voice().has_packet()) {
      grid_.release(u.id());
    }
  }
}

bool RamaProtocol::serve_request(const mac::PendingRequest& request, int phase,
                                 int& free_slots) {
  auto& u = user(request.user);
  if (request.type == mac::RequestType::kVoice) {
    if (!u.voice().has_packet()) return true;
    if (free_slots <= 0) return false;
    if (!grid_.reserve(phase, request.user)) return false;
    transmit_voice_fixed(u);
    --free_slots;
    return true;
  }
  // A data auction win is worth one information slot per frame (§3.1).
  // With the request queue the request persists until the burst drains
  // (one slot each frame); without it the device re-enters the auction
  // for the rest of its burst.
  if (u.data().backlog() == 0) return true;
  if (free_slots <= 0) return false;
  transmit_data_fixed(u);
  --free_slots;
  return u.data().backlog() == 0 || !params_.request_queue;
}

common::Time RamaProtocol::process_frame() {
  release_finished_talkspurts();
  queue_.purge_expired_voice(now());

  const int phase =
      static_cast<int>(frame_index() % geom_.frames_per_voice_period);
  offer_info_slots(geom_.num_info_slots);

  // This frame's dense read set: reservation holders transmit below; the
  // auction itself never reads the channel (ID digits arbitrate), so
  // winners and served requests materialize on read.
  const auto due = grid_.due_in_phase(phase);
  touch_channels(due);
  for (common::UserId uid : due) {
    transmit_voice_fixed(user(uid));
  }
  int free_slots = geom_.num_info_slots - static_cast<int>(due.size());

  // The auction: every active device without a queued request
  // participates (no permission probability — the bidding process is the
  // arbitration). Each auction slot resolves one winner; voice IDs
  // dominate data IDs.
  std::vector<common::UserId> voice_contenders;
  std::vector<common::UserId> data_contenders;
  for (auto& u : users()) {
    if (!u.present()) continue;
    if (queue_.contains(u.id())) continue;
    if (u.is_voice()) {
      // RAMA has no permission probability, so the barring gate is the
      // only admission control in front of the auction.
      if (!grid_.has_reservation(u.id()) && u.voice().in_talkspurt() &&
          u.voice().has_packet() && !barring_blocks(u)) {
        voice_contenders.push_back(u.id());
      }
    } else if (u.data().backlog() > 0 && !barring_blocks(u)) {
      data_contenders.push_back(u.id());
    }
  }

  // Queued requests go first (FCFS).
  std::vector<mac::PendingRequest> to_serve(queue_.entries().begin(),
                                            queue_.entries().end());
  queue_.clear();

  mac::ContentionTally tally;
  tally.minislots = options_.auction_slots;
  // An auction slot spans ~3 minislots of digit rounds; every remaining
  // contender transmits its ID digits in every auction slot.
  const double auction_symbols = 3.0 * geom_.minislot_symbols;
  for (int a = 0; a < options_.auction_slots; ++a) {
    std::vector<common::UserId>* pool =
        !voice_contenders.empty() ? &voice_contenders
        : !data_contenders.empty() ? &data_contenders
                                   : nullptr;
    if (pool == nullptr) {
      ++tally.idle;
      continue;
    }
    const int bidders = static_cast<int>(voice_contenders.size() +
                                         data_contenders.size());
    note_request_energy(bidders, auction_symbols, /*useful=*/1);
    tally.transmissions += bidders;
    if (options_.id_collision_prob > 0.0 &&
        bs_rng_.bernoulli(options_.id_collision_prob)) {
      ++tally.collisions;  // two devices drew identical IDs
      continue;
    }
    // IDs are random per auction slot: the winner is uniform over the
    // dominant class.
    const int pick = bs_rng_.uniform_int(static_cast<int>(pool->size()));
    const common::UserId winner = (*pool)[static_cast<std::size_t>(pick)];
    pool->erase(pool->begin() + pick);
    ++tally.successes;

    mac::PendingRequest request;
    request.user = winner;
    auto& u = user(winner);
    if (u.is_voice()) {
      request.type = mac::RequestType::kVoice;
      request.deadline = u.voice().packet().deadline;
      request.packets_requested = 1;
    } else {
      request.type = mac::RequestType::kData;
      request.deadline = kInf;
      request.packets_requested = u.data().backlog();
    }
    request.acked_at = now();
    to_serve.push_back(request);
  }
  note_contention(tally);

  // Voice outranks data (paper §1): serve all voice requests before any
  // data request, FCFS within each class.
  std::stable_partition(to_serve.begin(), to_serve.end(),
                        [](const mac::PendingRequest& r) {
                          return r.type == mac::RequestType::kVoice;
                        });
  for (auto& request : to_serve) {
    const bool finished = serve_request(request, phase, free_slots);
    if (!finished && params_.request_queue) {
      ++request.frames_waited;
      queue_.push(request);
    }
  }
  return geom_.frame_duration;
}

}  // namespace charisma::protocols
